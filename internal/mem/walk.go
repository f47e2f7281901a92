package mem

// walkChunkPages bounds how many pages WalkResident visits under one hold
// of the read lock: long enough that the lock round trip and the region
// check amortize to nothing per page, short enough that a store from the
// serving program never waits behind a whole-heap scan.
const walkChunkPages = 64

// WalkResident is the page-granular read primitive: it walks
// [addr, addr+size) in ascending order and hands fn every *resident* page
// fragment in place — base is the fragment's first address, data the bytes
// of the page frame itself (at most one page, clipped to the range).
//
// Pages that are mapped but were never touched are skipped, not
// materialized: they read as zeroes (demand-zero), and every consumer of
// this primitive looks for non-zero words, so a scan over a sparse heap
// costs one map probe per absent page instead of 512 loads of nothing. A
// caller that needs the zeroes too can infer them from the gaps between
// fragments.
//
// Locking contract. fn runs with the address-space read lock held, which
// is what makes the in-place view safe against concurrent stores; the lock
// is taken once per chunk of walkChunkPages pages and dropped between
// chunks, never per word. Therefore fn must not retain data past its
// return, must not write through it, and must not call back into this
// AddressSpace (a recursive read lock deadlocks behind a waiting writer).
// The walk is not a snapshot of the whole range: a store may land between
// two chunks, exactly as it may between two ReadAt calls. Callers that need
// to know bracket the walk with Mutations.
//
// The whole of each chunk must be mapped, or the walk stops there with
// ErrUnmapped — the same failure a ReadAt over the range reports.
func (as *AddressSpace) WalkResident(addr Addr, size uint64, fn func(base Addr, data []byte)) error {
	end := addr + Addr(size)
	for addr < end {
		stop := PageBase(addr) + walkChunkPages*PageSize
		if stop > end {
			stop = end
		}
		if err := as.walkChunk(addr, stop, fn); err != nil {
			return err
		}
		addr = stop
	}
	return nil
}

func (as *AddressSpace) walkChunk(addr, stop Addr, fn func(base Addr, data []byte)) error {
	as.mu.RLock()
	defer as.mu.RUnlock()
	if err := as.checkRangeLocked(addr, uint64(stop-addr)); err != nil {
		return err
	}
	for addr < stop {
		pb := PageBase(addr)
		next := pb + PageSize
		if next > stop {
			next = stop
		}
		if p := as.pages[pb]; p != nil {
			fn(addr, p.data[addr-pb:next-pb])
		}
		addr = next
	}
	return nil
}

// UpdateResident is the write-side twin of WalkResident: the same walk —
// ascending, resident fragments only, in place, one lock hold and one range
// check per chunk of walkChunkPages pages — under the write lock, with fn
// allowed to store through data. fn reports whether it did; a fragment it
// stored into leaves its page soft-dirty and advances Mutations, as a
// WriteAt of those bytes would have. Absent pages are skipped, never
// materialized: an update of bytes that read as zeroes has nothing to
// rewrite. The rest of WalkResident's contract holds unchanged: fn must not
// retain data or call back into this AddressSpace, and a range that leaves
// the mapping stops the walk with ErrUnmapped.
func (as *AddressSpace) UpdateResident(addr Addr, size uint64, fn func(base Addr, data []byte) (stored bool)) error {
	end := addr + Addr(size)
	for addr < end {
		stop := PageBase(addr) + walkChunkPages*PageSize
		if stop > end {
			stop = end
		}
		if err := as.updateChunk(addr, stop, fn); err != nil {
			return err
		}
		addr = stop
	}
	return nil
}

func (as *AddressSpace) updateChunk(addr, stop Addr, fn func(base Addr, data []byte) bool) error {
	as.mu.Lock()
	defer as.mu.Unlock()
	if err := as.checkRangeLocked(addr, uint64(stop-addr)); err != nil {
		return err
	}
	stored := false
	for addr < stop {
		pb := PageBase(addr)
		next := pb + PageSize
		if next > stop {
			next = stop
		}
		if p := as.pages[pb]; p != nil && fn(addr, p.data[addr-pb:next-pb]) {
			if !stored {
				as.mutations++
				stored = true
			}
			p.softDirty = true
			as.stampLocked(pb, p, false)
		}
		addr = next
	}
	return nil
}
