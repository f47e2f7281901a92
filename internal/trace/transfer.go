package trace

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"

	"repro/internal/faultinject"
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/program"
	"repro/internal/types"
)

// ErrTransferConflict marks a state-transfer conflict: the update changed
// something mutable tracing cannot remap automatically (a nonupdatable
// object's type, a semantic type change without a handler, a missing
// process counterpart). Conflicts abort the update and trigger rollback.
var ErrTransferConflict = errors.New("trace: state transfer conflict")

// ErrCanceled is returned by discovery when Options.Cancel fires: the
// update engine is rolling back for an unrelated reason and wants the
// in-flight old-side work abandoned promptly.
var ErrCanceled = errors.New("trace: discovery canceled")

func conflictf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrTransferConflict, fmt.Sprintf(format, args...))
}

// Stats summarizes one state transfer (per process, or aggregated).
type Stats struct {
	ObjectsDiscovered   int
	ObjectsTransferred  int
	BytesTransferred    uint64
	BytesTotalState     uint64 // all discovered state (dirty-reduction input)
	ObjectsReallocated  int    // objects newly allocated in the new version
	ObjectsSkippedClean int    // clean startup objects left to reinitialization
	TypeTransformed     int    // objects whose layout changed across versions
	HandlerInvocations  int
	// BytesFromShadow is always 0: every copied byte is read from the
	// quiesced address space.
	//
	// Deprecated: kept only for the benchmark's trace.bytes_shadow row
	// (bench/workloads.go); it goes with that row.
	BytesFromShadow uint64
	// BytesLive is the bytes copied object by object out of the quiesced
	// old address space during downtime.
	BytesLive uint64
	// TypeCacheHits counts pair() layout/transformation derivations served
	// from the per-transfer memo instead of recomputed — every object of a
	// changed type beyond the first is a hit.
	TypeCacheHits int
	// Zero-copy page adoption (Options.Adopt): whole pages whose every
	// object is provably bit-identical across the update moved into the
	// new address space as frames instead of being copied. Adopted objects
	// still count in ObjectsTransferred/BytesTransferred; BytesAdopted is
	// the other leg of the copy-source split, so
	// BytesLive + BytesAdopted == BytesTransferred.
	PagesAdopted int
	BytesAdopted uint64
	// Checksum digests the transferred source stream when
	// Options.Checksum is set: per transferred object an FNV-64a hash over
	// identity and pre-remap source bytes, XOR-combined so the digest is
	// independent of copy order and of the order in which processes
	// finish. Two transfers from the same quiesced state produce the same
	// checksum regardless of engine or adoption — the bit-identity witness
	// the live-traffic harness records.
	Checksum uint64
}

// Add accumulates other into s.
func (s *Stats) Add(other Stats) {
	s.ObjectsDiscovered += other.ObjectsDiscovered
	s.ObjectsTransferred += other.ObjectsTransferred
	s.BytesTransferred += other.BytesTransferred
	s.BytesTotalState += other.BytesTotalState
	s.ObjectsReallocated += other.ObjectsReallocated
	s.ObjectsSkippedClean += other.ObjectsSkippedClean
	s.TypeTransformed += other.TypeTransformed
	s.HandlerInvocations += other.HandlerInvocations
	s.BytesLive += other.BytesLive
	s.TypeCacheHits += other.TypeCacheHits
	s.PagesAdopted += other.PagesAdopted
	s.BytesAdopted += other.BytesAdopted
	s.Checksum ^= other.Checksum
}

// AdoptionFraction returns the fraction of transferred bytes that moved by
// zero-copy page adoption instead of object-by-object copy.
func (s *Stats) AdoptionFraction() float64 {
	if s.BytesTransferred == 0 {
		return 0
	}
	return float64(s.BytesAdopted) / float64(s.BytesTransferred)
}

// ShadowFraction returns 0: no copied byte comes from anywhere but the
// quiesced address space.
//
// Deprecated: kept only for the benchmark's trace.shadow_frac row
// (bench/workloads.go); it goes with that row.
func (s *Stats) ShadowFraction() float64 { return 0 }

// DirtyReduction returns the fraction of state bytes the soft-dirty filter
// avoided transferring (the 68%-86% reduction of §8).
func (s *Stats) DirtyReduction() float64 {
	if s.BytesTotalState == 0 {
		return 0
	}
	return 1 - float64(s.BytesTransferred)/float64(s.BytesTotalState)
}

// Options configures a transfer.
type Options struct {
	Policy types.Policy
	// TransferLibs names libraries whose opaque state is transferred.
	TransferLibs map[string]bool
	// DisableDirtyFilter transfers every discovered object, ignoring
	// soft-dirty tracking (the D1 ablation).
	DisableDirtyFilter bool
	// Checksum makes Stats.Checksum accumulate the order-independent FNV
	// digest of the full transferred source stream: one extra in-place
	// read per transferred object, intended for harnesses and audits
	// rather than the downtime-critical path.
	Checksum bool
	// Cancel, when non-nil, aborts an in-flight discovery once closed:
	// the walk stops between objects and discovery returns ErrCanceled. The
	// pipelined update engine closes it when the concurrent RESTART phase
	// fails, so rollback never waits for a full old-side walk.
	Cancel <-chan struct{}
	// Recorder, when set, records per-process discover/copy spans on the
	// transfer track (each process as its own sub-track, so the parallel
	// old-side walk renders as overlapping lanes) and, under Checksum,
	// the aggregate checksum instant.
	Recorder *obs.Recorder
	// Faults consults the fault-injection plane inside the copy path
	// (transfer error / stall) and at the REMAP pairing step. nil — the
	// production configuration — never fires.
	// Stalls park until Cancel closes or the plane releases them, so the
	// watchdog's pipeline cancel drains an injected hang the same way it
	// drains a real one.
	Faults *faultinject.Plane
	// Adopt arms the zero-copy fast path: old-instance pages whose every
	// overlapping object is provably bit-identical across the update
	// (layout-identical same-address pair needing no pointer rewrite) are
	// moved into the new address space as whole frames — the simulated
	// analogue of the paper's VMA remap — instead of copied object by
	// object. Successful transfers stay bit-identical with adoption on or
	// off (the Checksum digest covers adopted sources too).
	Adopt bool
	// Ledger, when set with Adopt, records every donated page frame so
	// the update engine can return them on rollback. Without a ledger
	// adopted frames are unrecoverable; the engine always supplies one.
	Ledger *mem.AdoptLedger
}

// anyPageOf reports whether any page of the ascending list overlaps o.
func anyPageOf(pages []mem.Addr, o *mem.Object) bool {
	i, _ := slices.BinarySearch(pages, mem.PageBase(o.Addr))
	return i < len(pages) && pages[i] < o.End()
}

// isDirty reports whether o overlaps a page written since startup. Asked
// per reachable object, against the page lists: the dirty-object set of
// the whole process is never built.
func (pt *procTransfer) isDirty(o *mem.Object) bool {
	return anyPageOf(pt.dirty, o)
}

type pairEntry struct {
	oldObj *mem.Object
	newObj *mem.Object
	// transform is non-nil when old and new layouts differ.
	transform *types.Transformation
}

// typePair keys the transformation memo by type identity: each version's
// registry interns one *Type per named type, so pointer equality is exact
// — every object of the same changed type shares one cache entry.
type typePair struct{ old, new *types.Type }

// typeDelta is one memoized pair() derivation: the layout comparison and,
// when layouts differ and both types are known, the Diff outcome.
type typeDelta struct {
	equal bool
	tr    *types.Transformation
	err   error
}

// deltaIdentical is the shared result for pointer-identical pairs.
var deltaIdentical = &typeDelta{equal: true}

// delta returns the memoized layout/transformation derivation for one
// (oldType, newType) pair, counting reuses in Stats.TypeCacheHits.
func (pt *procTransfer) delta(oldT, newT *types.Type) *typeDelta {
	if oldT == newT {
		// Same interned type object (or both untyped): trivially equal;
		// not worth a cache entry or a hit count.
		return deltaIdentical
	}
	key := typePair{oldT, newT}
	if d, ok := pt.typeCache[key]; ok {
		pt.stats.TypeCacheHits++
		return d
	}
	d := &typeDelta{equal: types.LayoutEqual(oldT, newT)}
	if !d.equal && oldT != nil && newT != nil {
		d.tr, d.err = types.Diff(oldT, newT)
	}
	pt.typeCache[key] = d
	return d
}

// procTransfer transfers one old process's state into its new counterpart.
type procTransfer struct {
	oldProc *program.Proc
	newProc *program.Proc
	an      *Analysis
	opts    Options
	ann     *program.Annotations

	// oldObjs is the old process's object snapshot, address-sorted, taken
	// once by discover: the roots come from it and every scan resolves
	// pointer targets against it.
	oldObjs []*mem.Object

	pairs     map[mem.Addr]*pairEntry     // keyed by old object start address
	bySiteSeq map[mem.PlanKey]*mem.Object // new-version heap objects

	// typeCache memoizes the per-(oldType, newType) layout comparison and
	// transformation pair() derives: a heap full of objects of one changed
	// type costs one Diff, not one per object.
	typeCache map[typePair]*typeDelta

	// layouts memoizes types.LayoutOf for the transfer (layoutOf): the
	// adoption test and both copy legs flatten each type once, not once
	// per object.
	layouts layoutMemo

	// dirty is the dirty-since-startup page set, ascending: the pages
	// soft-dirty at quiescence. Bits are set by writes and cleared only
	// when startup completes, so an object overlapping none of them is
	// exactly as startup left it.
	dirty []mem.Addr

	// adopted marks old objects whose pages moved by zero-copy frame
	// adoption; transferOne skips them. Written only by adoptPages
	// (before copyContents), read-only afterwards.
	adopted map[mem.Addr]bool

	stats Stats
}

// ProcDiscovery is the old-side half of one process's state transfer: the
// dirty-set computation and the reachability walk, which read only the
// quiesced old process. The pipelined update engine produces it while the
// new version is still starting up; Complete then pairs and copies into
// the new process the moment it exists.
type ProcDiscovery struct {
	pt        *procTransfer
	reachable []*mem.Object
}

// DiscoverProc runs the old-side half of a transfer: it snapshots the
// dirty page set (the pages soft-dirty at quiescence) and walks the
// reachable object graph. The new version does not need to exist yet.
func DiscoverProc(oldProc *program.Proc, opts Options) (*ProcDiscovery, error) {
	pt := &procTransfer{
		oldProc:   oldProc,
		opts:      opts,
		pairs:     make(map[mem.Addr]*pairEntry),
		typeCache: make(map[typePair]*typeDelta),
		layouts:   newLayoutMemo(opts.Policy),
		dirty:     oldProc.Space().SoftDirtyPages(),
	}
	reachable, err := pt.discover()
	if err != nil {
		return nil, err
	}
	return &ProcDiscovery{pt: pt, reachable: reachable}, nil
}

// Complete finishes the transfer against the new process: pair every
// reachable object with its counterpart and copy the contents. The
// analysis must come from AnalyzeProc on the old process with the same
// policy the discovery ran under.
func (d *ProcDiscovery) Complete(newProc *program.Proc, an *Analysis) (Stats, error) {
	pt := d.pt
	pt.newProc = newProc
	pt.an = an
	pt.ann = newProc.Instance().Version().Annotations
	pt.bySiteSeq = make(map[mem.PlanKey]*mem.Object)
	for _, o := range newProc.Index().All() {
		if o.Kind == mem.ObjHeap && o.Site != 0 {
			pt.bySiteSeq[mem.PlanKey{Site: o.Site, Seq: o.Seq}] = o
		}
	}
	if err := pt.pair(d.reachable); err != nil {
		return pt.stats, err
	}
	if err := pt.adoptPages(d.reachable); err != nil {
		return pt.stats, err
	}
	if err := pt.copyContents(d.reachable); err != nil {
		return pt.stats, err
	}
	return pt.stats, nil
}

// TransferProc transfers the state of oldProc into newProc. The analysis
// must come from AnalyzeProc on oldProc with the same policy. It is the
// unpipelined composition of DiscoverProc and Complete.
func TransferProc(oldProc, newProc *program.Proc, an *Analysis, opts Options) (Stats, error) {
	d, err := DiscoverProc(oldProc, opts)
	if err != nil {
		return Stats{}, err
	}
	return d.Complete(newProc, an)
}

// discover walks the old object graph breadth-first from the roots
// (static, stack and opted-in lib objects), following precise pointer
// slots and likely pointers, and returns the reachable objects sorted by
// address: pair() reallocates objects in this order. A scan failure ends
// the walk and is returned as is.
func (pt *procTransfer) discover() ([]*mem.Object, error) {
	seen := make(map[mem.Addr]bool)
	var out []*mem.Object
	push := func(o *mem.Object) {
		if !seen[o.Addr] {
			seen[o.Addr] = true
			out = append(out, o)
		}
	}
	pt.oldObjs = pt.oldProc.Index().All()
	for _, o := range pt.oldObjs {
		switch o.Kind {
		case mem.ObjStatic, mem.ObjStack:
			push(o)
		case mem.ObjLib:
			if pt.opts.TransferLibs[o.Name] {
				push(o)
			}
		}
	}
	r := newResolver(pt.oldObjs, pt.opts.Policy)
	// out doubles as the queue: everything before next has been scanned.
	for next := 0; next < len(out); next++ {
		if pt.canceled() {
			return nil, ErrCanceled
		}
		if err := pt.scanObject(out[next], r, push); err != nil {
			return nil, err
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Addr < out[j].Addr })
	for _, o := range out {
		pt.stats.ObjectsDiscovered++
		pt.stats.BytesTotalState += o.Size
	}
	return out, nil
}

// scanObject reads every traced pointer of o in place (resolver.scan, the
// pass the conservative analysis runs too) and calls visit for each live
// target, filtering non-transferred library objects.
func (pt *procTransfer) scanObject(o *mem.Object, r *resolver, visit func(*mem.Object)) error {
	return r.scan(pt.oldProc.Space(), o, func(precise, likely []int32) {
		for _, hits := range [2][]int32{precise, likely} {
			for _, ti := range hits {
				if t := r.objs[ti]; t.Kind != mem.ObjLib || pt.opts.TransferLibs[t.Name] {
					visit(t)
				}
			}
		}
	})
}

// canceled reports whether Options.Cancel has fired.
func (pt *procTransfer) canceled() bool {
	if pt.opts.Cancel == nil {
		return false
	}
	select {
	case <-pt.opts.Cancel:
		return true
	default:
		return false
	}
}

// newTypeFor maps an old object's type into the new version's registry:
// named types resolve by name (picking up update-induced layout changes);
// anonymous types carry over structurally.
func (pt *procTransfer) newTypeFor(old *types.Type) *types.Type {
	if old == nil {
		return nil
	}
	if old.Name != "" {
		if nt, ok := pt.newProc.Instance().Version().Types.Lookup(old.Name); ok {
			return nt
		}
		// Type deleted by the update: fall back to the old layout; the
		// object keeps its shape (and a conflict surfaces only if code
		// actually changed it).
	}
	return old
}

// pair finds or creates the new-version counterpart of every reachable old
// object, matching by the strategies of §6: symbol names for statics and
// stack variables, (site, seq) for startup-reallocated heap objects,
// allocation-site reallocation for the rest, same-address reservations for
// immutable objects.
func (pt *procTransfer) pair(reachable []*mem.Object) error {
	for _, o := range reachable {
		e := &pairEntry{oldObj: o}
		pt.pairs[o.Addr] = e
		switch o.Kind {
		case mem.ObjStatic, mem.ObjLib:
			if n, ok := pt.newProc.Global(o.Name); ok {
				e.newObj = n
			} else if n, ok := pt.newProc.Index().At(o.Addr); ok && n.Name == o.Name {
				// Lib objects: pre-linked at identical addresses.
				e.newObj = n
			}
			// A deleted global has no counterpart: dropped, unless some
			// transferred pointer still needs it (checked during remap).
		case mem.ObjStack:
			e.newObj = pt.findStackVar(o.Name)
		case mem.ObjHeap:
			imm := pt.an.IsImmutable(o.Addr)
			if o.Startup {
				if n, ok := pt.bySiteSeq[mem.PlanKey{Site: o.Site, Seq: o.Seq}]; ok {
					e.newObj = n
					if imm && n.Addr != o.Addr {
						return conflictf("immutable startup object %s reallocated at %#x", o, n.Addr)
					}
					break
				}
				// The new startup did not recreate it (changed startup
				// code): reallocate at transfer time like a dirty object.
			}
			var n *mem.Object
			var err error
			nt := pt.newTypeFor(o.Type)
			if imm {
				// Immutable: same address. The engine pre-reserved the
				// range before startup (possibly as part of a coalesced
				// superobject); if it did not (first contact), reserve it
				// now.
				if existing, ok := pt.newProc.Index().At(o.Addr); ok {
					n = existing
				} else if super, ok := pt.newProc.Index().Containing(o.Addr); ok &&
					super.Type == nil && super.End() >= o.End() {
					// A synthetic view into the reserved superobject:
					// correct address and size for copying and remapping,
					// not separately indexed.
					n = &mem.Object{Addr: o.Addr, Size: o.Size, Type: nt,
						Site: o.Site, Seq: o.Seq, Kind: mem.ObjHeap}
				} else {
					n, err = pt.newProc.Heap().AllocAt(o.Addr, o.Size, nt, o.Site)
					if err != nil {
						return conflictf("immutable object %s cannot be re-reserved: %v", o, err)
					}
				}
			} else {
				size := o.Size
				if nt != nil {
					// The new version's layout decides the size: a grown
					// type needs room for its added fields (Figure 2).
					size = nt.Size
				}
				n, err = pt.newProc.Heap().Alloc(size, nt, o.Site)
				if err != nil {
					return fmt.Errorf("trace: reallocate %s: %w", o, err)
				}
			}
			pt.stats.ObjectsReallocated++
			e.newObj = n
		}
		if e.newObj == nil {
			continue
		}
		// Derive the transformation if layouts differ. A user object
		// handler (MCR_ADD_OBJ_HANDLER) overrides the nonupdatability
		// invariant: the annotation asserts knowledge of the hidden
		// pointers the conservative analysis flagged (§3, Listing 1).
		oldT, newT := o.Type, e.newObj.Type
		if d := pt.delta(oldT, newT); !d.equal {
			_, hasHandler := pt.ann.ObjHandler(o.Name)
			if pt.an.Nonupdatable[o.Addr] && !hasHandler {
				return conflictf("nonupdatable object %s changed type %s -> %s", o, oldT, newT)
			}
			if oldT == nil || newT == nil {
				return conflictf("object %s lost/gained type information (%s -> %s)", o, oldT, newT)
			}
			if d.err != nil && !hasHandler {
				return conflictf("object %s: %v", o, d.err)
			}
			e.transform = d.tr
			pt.stats.TypeTransformed++
		}
	}
	return nil
}

func (pt *procTransfer) findStackVar(name string) *mem.Object {
	for _, o := range pt.newProc.Index().All() {
		if o.Kind == mem.ObjStack && o.Name == name {
			return o
		}
	}
	return nil
}

// RemapPtr translates an old pointer value to the new version.
func (pt *procTransfer) RemapPtr(old uint64) (uint64, bool) {
	target, ok := pt.oldProc.Index().Containing(mem.Addr(old))
	if !ok {
		return 0, false
	}
	e := pt.pairs[target.Addr]
	if e == nil || e.newObj == nil {
		return 0, false
	}
	off := uint64(mem.Addr(old) - target.Addr)
	if off == 0 {
		return uint64(e.newObj.Addr), true
	}
	if e.transform == nil {
		return uint64(e.newObj.Addr) + off, true
	}
	// Interior pointer into a transformed object: remap through the field
	// copy covering the offset.
	for _, c := range e.transform.Copies {
		if off >= c.SrcOffset && off < c.SrcOffset+c.SrcSize {
			return uint64(e.newObj.Addr) + c.DstOffset + (off - c.SrcOffset), true
		}
	}
	return 0, false
}

// OldProc implements program.TransferContext.
func (pt *procTransfer) OldProc() *program.Proc { return pt.oldProc }

// NewProc implements program.TransferContext.
func (pt *procTransfer) NewProc() *program.Proc { return pt.newProc }

// DefaultTransfer implements program.TransferContext for handlers that
// post-process the automatic transformation.
func (pt *procTransfer) DefaultTransfer(oldObj, newObj *mem.Object) error {
	e := pt.pairs[oldObj.Addr]
	if e == nil {
		e = &pairEntry{oldObj: oldObj, newObj: newObj}
	}
	var st Stats // handler-path bytes are accounted by the caller
	return pt.transferObject(e, &st)
}

var _ program.TransferContext = (*procTransfer)(nil)

// copyContents performs the actual state copy: dirty objects (and all
// post-startup reallocations) are transformed and remapped into the new
// version; clean startup objects are left to mutable reinitialization.
// Objects go one at a time, in address order.
func (pt *procTransfer) copyContents(reachable []*mem.Object) error {
	for _, o := range reachable {
		if err := pt.transferOne(o); err != nil {
			return err
		}
	}
	return nil
}

// transferOne copies one reachable object into its new-version pair,
// accumulating into pt.stats.
func (pt *procTransfer) transferOne(o *mem.Object) error {
	st := &pt.stats
	e := pt.pairs[o.Addr]
	if e == nil || e.newObj == nil {
		return nil
	}
	if pt.adopted[o.Addr] {
		// Moved wholesale by page adoption; accounted there.
		return nil
	}
	needsCopy := pt.isDirty(o) || !o.Startup || pt.opts.DisableDirtyFilter
	if o.Kind == mem.ObjHeap && o.Startup && pt.bySiteSeq[mem.PlanKey{Site: o.Site, Seq: o.Seq}] == nil {
		// Startup object the new version did not recreate: must copy.
		needsCopy = true
	}
	if !needsCopy {
		st.ObjectsSkippedClean++
		return nil
	}
	// Injected copy faults: the copy failing loudly mid-object, or parking
	// until the pipeline cancel / watchdog releases it.
	if err := pt.opts.Faults.Check(faultinject.PointTransferError); err != nil {
		return err
	}
	if err := pt.opts.Faults.Stall(faultinject.PointTransferStall, pt.opts.Cancel); err != nil {
		return err
	}
	if h, ok := pt.ann.ObjHandler(o.Name); ok {
		st.HandlerInvocations++
		if pt.opts.Checksum {
			if err := pt.checksumSource(o, o.Size, st); err != nil {
				return err
			}
		}
		if err := h(pt, o, e.newObj); err != nil {
			return conflictf("handler for %s: %v", o, err)
		}
		st.ObjectsTransferred++
		st.BytesTransferred += o.Size
		st.BytesLive += o.Size
		return nil
	}
	if err := pt.transferObject(e, st); err != nil {
		return err
	}
	st.ObjectsTransferred++
	st.BytesTransferred += o.Size
	return nil
}

// transferObject applies the automatic transformation for one object pair:
// verbatim copy for layout-identical pairs, field-mapped transformation
// otherwise, and in both cases a remap of the precise pointer slots that
// arrived. Nothing is staged: bytes move page to page out of the quiesced
// old address space (mem.CopyRange), and the pointer slots are rewritten
// where they landed (remapSlots). st records the bytes at object
// granularity like BytesTransferred, even when a field map covers only
// part of the object.
func (pt *procTransfer) transferObject(e *pairEntry, st *Stats) error {
	o, n := e.oldObj, e.newObj
	identical := e.transform == nil || e.transform.Identical
	size := o.Size
	if identical && n.Size < size {
		size = n.Size
	}
	st.BytesLive += size
	if pt.opts.Checksum {
		if err := pt.checksumSource(o, size, st); err != nil {
			return err
		}
	}
	if identical {
		if err := pt.copyBytes(n.Addr, o, 0, size); err != nil {
			return err
		}
		// Slots past the copied size (a shrunk counterpart) are left to
		// the new version's own state.
		return pt.remapSlots(n.Addr, size, pt.layoutOf(n.Type).Ptrs)
	}
	for _, c := range e.transform.Copies {
		if err := pt.copyField(o, n, c); err != nil {
			return err
		}
	}
	return nil
}

// copyBytes moves size source bytes of o, from offset off, to dst in the
// new address space, page to page out of the quiesced old address space.
func (pt *procTransfer) copyBytes(dst mem.Addr, o *mem.Object, off, size uint64) error {
	return mem.CopyRange(pt.newProc.Space(), dst, pt.oldProc.Space(), o.Addr+mem.Addr(off), size)
}

// checksumSource is the Checksum fold for one object: fold the first n
// quiesced bytes, in place, into the source digest and add the digest to
// st. The digest definition lives here only — the cross-engine
// bit-identity test depends on every copy path agreeing on it: per
// transferred object an FNV-64a hash over identity and pre-remap source
// bytes, XOR-combined into Stats.Checksum, which makes the stream digest
// order-independent. The process key is part of the identity: forked
// processes hold identical objects at identical addresses, and two equal
// digests would XOR to zero — cancelling exactly the fork-heavy copies the
// audit exists to cover.
func (pt *procTransfer) checksumSource(o *mem.Object, n uint64, st *Stats) error {
	h := newFNV64a()
	fmt.Fprintf(&h, "%v:%x:%x:%d:%s;", pt.oldProc.Key(), o.Addr, o.Size, o.Kind, o.Name)
	if err := foldBytes(pt.oldProc.Space(), o.Addr, n, func(_ uint64, b []byte) { h.Write(b) }, h.zeroes); err != nil {
		return err
	}
	st.Checksum ^= uint64(h)
	return nil
}

// copyField applies one FieldCopy, handling integer resizing, pointer
// remapping and nested aggregates.
func (pt *procTransfer) copyField(o, n *mem.Object, c types.FieldCopy) error {
	dstAddr := n.Addr + mem.Addr(c.DstOffset)
	if c.SrcSize == c.DstSize {
		if err := pt.copyBytes(dstAddr, o, c.SrcOffset, c.SrcSize); err != nil {
			return err
		}
		switch {
		case c.Ptr:
			return pt.remapSlots(dstAddr, 8, onePtrSlot)
		case c.Elem != nil:
			return pt.remapSlots(dstAddr, uint64(n.End()-dstAddr), pt.layoutOf(c.Elem).Ptrs)
		}
		return nil
	}
	// Integer resize with optional sign extension.
	buf := make([]byte, c.SrcSize)
	if err := pt.oldProc.Space().ReadAt(o.Addr+mem.Addr(c.SrcOffset), buf); err != nil {
		return err
	}
	var v uint64
	for i := len(buf) - 1; i >= 0; i-- {
		v = v<<8 | uint64(buf[i])
	}
	if c.Signed && len(buf) > 0 && buf[len(buf)-1]&0x80 != 0 {
		for i := c.SrcSize; i < 8; i++ {
			v |= 0xff << (8 * i)
		}
	}
	out := make([]byte, c.DstSize)
	for i := range out {
		out[i] = byte(v >> (8 * uint(i)))
	}
	return pt.newProc.Space().WriteAt(dstAddr, out)
}

// onePtrSlot is the slot list of a lone pointer field.
var onePtrSlot = []types.PtrSlot{{}}

// layoutOf is types.LayoutOf under the transfer's policy, flattened once
// per type per transfer.
func (pt *procTransfer) layoutOf(t *types.Type) types.Layout {
	if t == nil {
		return types.Layout{}
	}
	return pt.layouts.of(t)
}

// remapSlots rewrites, where they lie in the new address space, the
// precise pointer slots ptrs (ascending offsets from base) that fit inside
// [base, base+size), translating old-version values; values that do not
// resolve to transferred objects stay as they are. It is the one remap
// routine of both copy legs. The slots are read and rewritten in place,
// one resident page fragment at a time, under the new address space's
// per-chunk write lock (mem.UpdateResident) — RemapPtr consults only the
// old side's index and the pairing, never the new address space. A slot
// that crosses a page boundary (only at bases that are not 8-byte aligned)
// lies in no single fragment and is rewritten individually afterwards.
func (pt *procTransfer) remapSlots(base mem.Addr, size uint64, ptrs []types.PtrSlot) error {
	if len(ptrs) == 0 {
		return nil
	}
	newAS := pt.newProc.Space()
	pi := 0
	err := newAS.UpdateResident(base, size, func(at mem.Addr, data []byte) (stored bool) {
		lo := uint64(at - base) // the fragment as offsets [lo, hi)
		hi := lo + uint64(len(data))
		for pi < len(ptrs) && ptrs[pi].Offset < lo {
			pi++ // on an absent page (nil), or crossing into this one
		}
		for ; pi < len(ptrs) && ptrs[pi].Offset+8 <= hi; pi++ {
			if ptrs[pi].Func {
				continue
			}
			cell := data[ptrs[pi].Offset-lo:]
			if nv, moved := pt.remapped(binary.LittleEndian.Uint64(cell)); moved {
				binary.LittleEndian.PutUint64(cell, nv)
				stored = true
			}
		}
		return stored
	})
	if err != nil {
		return err
	}
	for _, slot := range ptrs {
		at := base + mem.Addr(slot.Offset)
		if slot.Func || slot.Offset+8 > size || uint64(at)&(mem.PageSize-1) <= mem.PageSize-8 {
			continue
		}
		v, err := newAS.ReadWord(at)
		if err != nil {
			return err
		}
		if nv, moved := pt.remapped(v); moved {
			if err := newAS.WriteWord(at, nv); err != nil {
				return err
			}
		}
	}
	return nil
}

// remapped translates one pointer-slot value and reports whether the copy
// path has to rewrite it: nil, values that resolve to no transferred
// object, and values whose target kept its address all stay as they are.
func (pt *procTransfer) remapped(v uint64) (uint64, bool) {
	if v == 0 {
		return 0, false
	}
	nv, ok := pt.RemapPtr(v)
	return nv, ok && nv != v
}

// InstanceDiscovery is the old-side half of a whole-instance transfer:
// every process's dirty set and reachable graph, computed against the
// quiesced old version only. The pipelined update engine runs it
// concurrently with the new version's RESTART phase.
type InstanceDiscovery struct {
	procs []*program.Proc // old processes, in Procs() order
	discs []*ProcDiscovery
	opts  Options
}

// DiscoverInstance runs the old-side discovery of every process in
// parallel (§6: "fully parallelizing the state transfer operations in a
// multiprocess context"): one goroutine per process, each walking its own
// process alone. On any failure the first error in process order is
// returned, so a conflicting discovery is reproducible.
func DiscoverInstance(oldInst *program.Instance, opts Options) (*InstanceDiscovery, error) {
	oldProcs := oldInst.Procs()
	discs := make([]*ProcDiscovery, len(oldProcs))
	errs := make([]error, len(oldProcs))
	var wg sync.WaitGroup
	for i, op := range oldProcs {
		wg.Add(1)
		go func(i int, op *program.Proc) {
			defer wg.Done()
			if opts.Recorder.On() {
				// Key string built only when recording — the disabled
				// path must stay allocation-free.
				defer opts.Recorder.SpanProc(obs.TrackTransfer, obs.PhaseDiscover, op.Key().String()).End()
			}
			discs[i], errs[i] = DiscoverProc(op, opts)
		}(i, op)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return &InstanceDiscovery{procs: oldProcs, discs: discs, opts: opts}, nil
}

// Complete pairs and copies every discovered process into its new-version
// counterpart, matched by creation key, and returns aggregated statistics.
// Every pairing (and analysis) is resolved before any transfer starts: a
// missing counterpart must not leave already-started transfers mutating
// the new instance behind the caller's back while it rolls back.
func (id *InstanceDiscovery) Complete(newInst *program.Instance, analyses map[program.ProcKey]*Analysis) (Stats, error) {
	// Injected REMAP failure: pairing dies before any transfer starts —
	// the same all-or-nothing point a missing counterpart aborts at.
	if err := id.opts.Faults.Check(faultinject.PointRemapFail); err != nil {
		return Stats{}, err
	}
	newProcs := make([]*program.Proc, len(id.procs))
	procAnalyses := make([]*Analysis, len(id.procs))
	for i, op := range id.procs {
		np, ok := newInst.ProcByKey(op.Key())
		if !ok {
			return Stats{}, conflictf("no new-version process for %s", op.Key())
		}
		an := analyses[op.Key()]
		if an == nil {
			return Stats{}, fmt.Errorf("trace: missing analysis for %s", op.Key())
		}
		newProcs[i], procAnalyses[i] = np, an
	}
	type result struct {
		stats Stats
		err   error
	}
	results := make([]result, len(id.procs))
	var wg sync.WaitGroup
	for i := range id.procs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rec := id.discs[i].pt.opts.Recorder
			if rec.On() {
				defer rec.SpanProc(obs.TrackTransfer, obs.PhaseCopy, id.procs[i].Key().String()).End()
			}
			s, err := id.discs[i].Complete(newProcs[i], procAnalyses[i])
			results[i] = result{stats: s, err: err}
		}(i)
	}
	wg.Wait()
	var total Stats
	for _, r := range results {
		if r.err != nil {
			return total, r.err
		}
		total.Add(r.stats)
	}
	if len(id.discs) > 0 {
		if rec := id.discs[0].pt.opts.Recorder; rec != nil && total.Checksum != 0 {
			rec.Instant(obs.TrackTransfer, obs.PhaseChecksum, "fnv64a", int64(total.Checksum))
		}
	}
	return total, nil
}

// TransferInstance transfers every old process into its new counterpart:
// the unpipelined composition of DiscoverInstance and Complete, used by
// the sequential update engine and anywhere both instances already exist.
func TransferInstance(oldInst, newInst *program.Instance, analyses map[program.ProcKey]*Analysis, opts Options) (Stats, error) {
	id, err := DiscoverInstance(oldInst, opts)
	if err != nil {
		return Stats{}, err
	}
	return id.Complete(newInst, analyses)
}
