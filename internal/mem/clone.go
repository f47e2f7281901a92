package mem

// Fork support: a simulated fork duplicates the parent's entire memory
// image — pages, regions, live-object metadata and allocator state — so
// that parent and child diverge independently afterwards, exactly like a
// (copy-on-write) fork of a C server. Soft-dirty bits are copied as-is:
// Linux preserves them across fork, and MCR's dirty tracking relies on the
// child inheriting the parent's post-startup dirty state.

// Clone returns a deep copy of the address space. The pages keep their
// stamps; the store journal is not copied, so the clone's first listing
// walks its page map.
func (as *AddressSpace) Clone() *AddressSpace {
	as.mu.RLock()
	defer as.mu.RUnlock()
	out := NewAddressSpace()
	out.regions = make([]Region, len(as.regions))
	copy(out.regions, as.regions)
	out.mutations, out.reshaped = as.mutations, as.reshaped
	for pb, p := range as.pages {
		np := &page{softDirty: p.softDirty, stamp: p.stamp}
		np.data = p.data
		out.pages[pb] = np
	}
	return out
}

// Clone returns a deep copy of the object index. Object structs are
// copied, not shared: parent and child metadata diverge after fork. The
// copy runs over the parent's sorted snapshot, so the child starts with
// its own snapshot ready — a forked process's first All costs nothing.
func (ix *ObjectIndex) Clone() *ObjectIndex {
	objs, gen := ix.Snapshot()
	out := &ObjectIndex{
		byStart: make(map[Addr]*Object, len(objs)),
		byPage:  make(map[Addr][]*Object),
		gen:     gen,
		snap:    make([]*Object, len(objs)),
		snapGen: gen,
	}
	for i, o := range objs {
		oc := *o
		out.snap[i] = &oc
		out.byStart[oc.Addr] = &oc
		out.place(&oc) // in address order: a large object appends to large
	}
	return out
}

// CloneInto returns a copy of the allocator rebound to the child's address
// space and object index (which must be clones of this allocator's own).
func (a *Allocator) CloneInto(as *AddressSpace, ix *ObjectIndex) *Allocator {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := &Allocator{
		as:         as,
		index:      ix,
		regionName: a.regionName,
		base:       a.base,
		brk:        a.brk,
		limit:      a.limit,
		bins:       make(map[uint64][]Addr, len(a.bins)),
		freeByAddr: make(map[Addr]uint64, len(a.freeByAddr)),
		startup:    a.startup,
		deferFree:  a.deferFree,
		siteSeq:    make(map[uint64]uint64, len(a.siteSeq)),
		stats:      a.stats,
	}
	for sz, lst := range a.bins {
		cp := make([]Addr, len(lst))
		copy(cp, lst)
		out.bins[sz] = cp
	}
	for addr, sz := range a.freeByAddr {
		out.freeByAddr[addr] = sz
	}
	for site, seq := range a.siteSeq {
		out.siteSeq[site] = seq
	}
	out.deferred = append([]Addr(nil), a.deferred...)
	if a.plan != nil {
		out.plan = make(map[PlanKey]Addr, len(a.plan))
		for k, v := range a.plan {
			out.plan[k] = v
		}
	}
	return out
}
