package mem

import (
	"cmp"
	"fmt"
	"slices"
	"sync"

	"repro/internal/types"
)

// ObjKind classifies a tracked memory object for Table 2 style accounting.
type ObjKind uint8

// Object kinds.
const (
	ObjHeap ObjKind = iota
	ObjStatic
	ObjLib
	ObjMmap
	ObjStack
)

var objKindNames = [...]string{"heap", "static", "lib", "mmap", "stack"}

func (k ObjKind) String() string {
	if int(k) < len(objKindNames) {
		return objKindNames[k]
	}
	return fmt.Sprintf("obj(%d)", uint8(k))
}

// Object is one tracked memory object: a global variable, a heap
// allocation, a library datum or a stack-resident variable. It carries the
// relocation and data-type tags MCR's instrumentation maintains in-band:
// the type tag (nil for uninstrumented/opaque allocations), the
// allocation-site call-stack ID and per-site ordinal used to match object
// pairs across versions, and the startup flag used by global separability.
type Object struct {
	Addr    Addr
	Size    uint64
	Type    *types.Type // nil: no type tag (uninstrumented)
	Site    uint64      // allocation-site call-stack ID (0 for statics)
	Seq     uint64      // per-site allocation ordinal
	Startup bool        // allocated before startup completed
	Kind    ObjKind
	Name    string // symbol name for statics/libs
	// Scratch marks instrumentation-owned overlay metadata: state the
	// framework regenerates in every version and the program never reads.
	// State transfer ignores scratch objects, and page adoption treats
	// their bytes like allocator gap bytes — free to travel with a frame.
	Scratch bool
}

// End returns the first address past the object.
func (o *Object) End() Addr { return o.Addr + Addr(o.Size) }

// Contains reports whether addr points into the object (interior pointers
// included, as conservative GC must accept).
func (o *Object) Contains(addr Addr) bool { return addr >= o.Addr && addr < o.End() }

// String implements fmt.Stringer for diagnostics and conflict reports.
func (o *Object) String() string {
	name := o.Name
	if name == "" {
		name = fmt.Sprintf("site=%#x/%d", o.Site, o.Seq)
	}
	return fmt.Sprintf("%s %s @%#x+%d", o.Kind, name, o.Addr, o.Size)
}

// ObjectIndex tracks live objects and answers the queries tracing needs:
// exact lookup by start address (precise tracing), containing-object lookup
// for arbitrary interior addresses (conservative likely-pointer validation;
// the page-bucket index keeps it O(objects-on-page)), the ordered view —
// All, OnPages, Clone — every whole-process pass walks, and the changes
// since an earlier generation (ChangesSince) a reader that keeps its own
// copy of the ordered view follows it by.
//
// A large object — one spanning more than largePages pages — is one
// interval, the way a conservative collector keeps one header for a large
// block: it sits in the buckets of its first and last page and in a short
// address-sorted list, never in the buckets of its interior pages. No other
// object can overlap an interior page, so an empty bucket is the only one a
// large object can hide behind, and a page query that finds its bucket
// empty asks the list by binary search. Insert, Remove and Clone make at
// most largePages bucket entries per object, whatever it spans.
//
// Every Insert and Remove advances the generation and writes the start
// address it touched to the journal: a ring of the addresses of the last
// mutations, one per generation. The journal reaches back as far as it
// holds entries, and holds at most one per live object plus minPending:
// past that its oldest entry leaves with every new one, and a reader whose
// generation it no longer reaches has lapsed — by then a delta would cost
// about what a full pass does. ChangesSince answers from it: the addresses
// touched since a generation, with what lives at each now.
//
// The ordered view is one immutable, address-sorted snapshot shared
// read-only by all readers (callers must not write to the slice All
// returns), as of a generation the journal reaches. All on an unchanged
// index returns the snapshot as is; after k mutations it merges the k
// journal entries since into a new slice, O(n + k log k), and earlier
// snapshots stay as they were. Advancing the snapshot truncates nothing:
// the journal is the readers' as much as the snapshot's. A snapshot the
// journal no longer reaches is dropped, and once neither it nor the
// latest ChangesSince reader is reached the journal is dropped too and
// records nothing until a reader comes: a long unobserved run costs
// nothing and holds nothing.
//
// A new snapshot is a new slice as long as the index — on a large heap an
// allocation the size of a hundred pages. A reader that comes back many
// times a second while the program allocates (the warm-standby daemon)
// would make that the dominant garbage of its pass, so the two queries it
// makes do not advance the snapshot: ChangesSince fills a buffer the
// caller owns, and OnPages of a few pages gathers from the page buckets.
type ObjectIndex struct {
	mu      sync.RWMutex
	byStart map[Addr]*Object
	// byPage maps a page base to the objects overlapping the page, except
	// large objects on their interior pages: those are in large alone.
	byPage map[Addr][]*Object
	// large holds the live large objects (isLarge), sorted by address.
	large []*Object
	// gen advances on every Insert/Remove: the allocation-delta half of
	// the speculative-analysis validation (AddressSpace.Mutations is the
	// data half).
	gen uint64
	// log is the journal: the start addresses touched by the mutations
	// that made generations gen-log.n+1 through gen. byStart says what
	// lives at each now.
	log journal
	// snap is the sorted snapshot as of generation snapGen (nil: none,
	// rebuild from byStart).
	snap    []*Object
	snapGen uint64
	// read is the generation the latest ChangesSince answered to, which
	// the journal is kept for while reading is set.
	read    uint64
	reading bool
}

// Change is one address the index changed at, with the object that lives
// there now: nil when nothing does.
type Change struct {
	Addr Addr
	Now  *Object
}

// journal is a ring of the addresses the last n mutations touched, oldest
// first from ring[head].
type journal struct {
	ring []Addr
	head int
	n    int
}

// push appends a, first dropping the oldest entries as needed to hold at
// most limit. A full ring, or one over twice the limit (the index shrank),
// is reallocated at twice what it holds but at most an eighth past the
// limit: about 9 B per live object, under 16 B just after the index shrank.
// Reallocated at the limit itself, it would be copied on every insert into
// a growing heap, whose limit grows one by one; an eighth's headroom makes
// that an eighth as often.
func (j *journal) push(a Addr, limit int) {
	if j.n >= limit {
		d := j.n - limit + 1
		j.head = (j.head + d) % len(j.ring)
		j.n -= d
	}
	if j.n == len(j.ring) || len(j.ring) > 2*limit {
		ring := make([]Addr, max(16, min(2*j.n, limit+limit/8)))
		older, newer := j.last(j.n)
		copy(ring[copy(ring, older):], newer)
		j.ring, j.head = ring, 0
	}
	j.ring[(j.head+j.n)%len(j.ring)] = a
	j.n++
}

// last returns the newest k entries, oldest first, as the two runs of the
// ring they occupy.
func (j *journal) last(k int) (older, newer []Addr) {
	if k == 0 {
		return nil, nil
	}
	i := (j.head + j.n - k) % len(j.ring)
	if i+k <= len(j.ring) {
		return j.ring[i : i+k], nil
	}
	return j.ring[i:], j.ring[:i+k-len(j.ring)]
}

// NewObjectIndex returns an empty index.
func NewObjectIndex() *ObjectIndex {
	return &ObjectIndex{
		byStart: make(map[Addr]*Object),
		byPage:  make(map[Addr][]*Object),
	}
}

// minPending keeps a small index's journal from lapsing every few
// mutations.
const minPending = 64

// touch advances the generation and journals a mutation at addr, if
// anyone is left that the journal reaches. Caller holds mu.
func (ix *ObjectIndex) touch(addr Addr) {
	ix.gen++
	limit := len(ix.byStart) + minPending
	reach := ix.gen - uint64(min(ix.log.n+1, limit)) // the oldest generation answerable after the push
	if ix.snap != nil && ix.snapGen < reach {
		ix.snap = nil
	}
	ix.reading = ix.reading && ix.read >= reach
	if ix.snap == nil && !ix.reading {
		ix.log = journal{}
		return
	}
	ix.log.push(addr, limit)
}

// largePages is the span, in pages, past which an object is large: it is
// bucketed at its first and last page only, and listed in large. Below it
// a bucket entry per page is the cheaper lookup: an address on an interior
// page of a large object costs a binary search of large, one in a bucket a
// map probe. httpd's region chunks span five to eight pages, some 550 in a
// worker; listed, they would turn most of its interior-pointer lookups
// into searches of a 550-entry list (README, "The object index").
const largePages = 16

// isLarge reports whether o spans more than largePages pages.
func isLarge(o *Object) bool {
	return o.Size > 0 && PageBase(o.End()-1)-PageBase(o.Addr) >= largePages*PageSize
}

// bucketed returns the pages whose buckets hold o, as the loop
// for pb := first; pb <= last; pb += step: every page of a small object,
// the first and last page of a large one.
func bucketed(o *Object) (first, last, step Addr) {
	first, last = PageBase(o.Addr), PageBase(o.End()-1)
	if step = PageSize; isLarge(o) {
		step = last - first
	}
	return first, last, step
}

// byAddr orders objects by start address, for binary searches by address.
func byAddr(o *Object, a Addr) int { return cmp.Compare(o.Addr, a) }

// largeOn returns the large object overlapping [start, end), if any; at
// most one can overlap a range of one page. Objects are disjoint, so large
// is sorted by end as well as by start. Caller holds mu.
func (ix *ObjectIndex) largeOn(start, end Addr) (*Object, bool) {
	lo, hi := 0, len(ix.large) // the first large object ending past start
	for lo < hi {
		if m := int(uint(lo+hi) >> 1); ix.large[m].End() <= start {
			lo = m + 1
		} else {
			hi = m
		}
	}
	if lo < len(ix.large) && ix.large[lo].Addr < end {
		return ix.large[lo], true
	}
	return nil, false
}

// overlapping returns an object overlapping [start, end) — the same one
// for the same index, whatever the maps' iteration order. The buckets are
// walked page by page or all of them, whichever is fewer: a range the size
// of a placement reservation spans thousands of pages on a heap of a few
// hundred buckets. Caller holds mu.
func (ix *ObjectIndex) overlapping(start, end Addr) (*Object, bool) {
	first := PageBase(start)
	if uint64(end-first)/PageSize < uint64(len(ix.byPage)) {
		for pb := first; pb < end; pb += PageSize {
			for _, o := range ix.byPage[pb] {
				if o.Addr < end && start < o.End() {
					return o, true
				}
			}
		}
	} else {
		var hit *Object // the lowest, so that map order cannot choose
		for pb, bucket := range ix.byPage {
			if pb < first || pb >= end {
				continue
			}
			for _, o := range bucket {
				if o.Addr < end && start < o.End() && (hit == nil || o.Addr < hit.Addr) {
					hit = o
				}
			}
		}
		if hit != nil {
			return hit, true
		}
	}
	return ix.largeOn(start, end)
}

// Insert adds an object. Inserting an object whose range overlaps a live
// object is an error: the allocator guarantees disjointness, so overlap
// means corrupted metadata.
func (ix *ObjectIndex) Insert(o *Object) error {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if _, dup := ix.byStart[o.Addr]; dup {
		return fmt.Errorf("mem: object already tracked at %#x", o.Addr)
	}
	if other, ok := ix.overlapping(o.Addr, o.End()); ok {
		return fmt.Errorf("mem: object %s overlaps %s", o, other)
	}
	ix.byStart[o.Addr] = o
	ix.place(o)
	ix.touch(o.Addr)
	return nil
}

// place enters o in its buckets (bucketed), and in large when it is
// large. Caller holds mu.
func (ix *ObjectIndex) place(o *Object) {
	first, last, step := bucketed(o)
	for pb := first; pb <= last; pb += step {
		ix.byPage[pb] = append(ix.byPage[pb], o)
	}
	if isLarge(o) {
		i, _ := slices.BinarySearchFunc(ix.large, o.Addr, byAddr)
		ix.large = slices.Insert(ix.large, i, o)
	}
}

// Remove drops the object starting at addr and returns it.
func (ix *ObjectIndex) Remove(addr Addr) (*Object, bool) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	o, ok := ix.byStart[addr]
	if !ok {
		return nil, false
	}
	delete(ix.byStart, addr)
	first, last, step := bucketed(o)
	for pb := first; pb <= last; pb += step {
		bucket := ix.byPage[pb]
		i := slices.Index(bucket, o)
		// Delete zeroes the vacated tail slot, in a bucket as in large: no
		// stale pointer stays behind.
		if bucket = slices.Delete(bucket, i, i+1); len(bucket) == 0 {
			delete(ix.byPage, pb)
		} else {
			ix.byPage[pb] = bucket
		}
	}
	if isLarge(o) {
		i, _ := slices.BinarySearchFunc(ix.large, o.Addr, byAddr)
		ix.large = slices.Delete(ix.large, i, i+1)
	}
	ix.touch(addr)
	return o, true
}

// Gen returns the index generation, advanced by every Insert and Remove.
// Equal readings bracket a span with no allocation or deallocation.
func (ix *ObjectIndex) Gen() uint64 {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return ix.gen
}

// At returns the object starting exactly at addr.
func (ix *ObjectIndex) At(addr Addr) (*Object, bool) {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	o, ok := ix.byStart[addr]
	return o, ok
}

// Containing returns the live object whose range contains addr, accepting
// interior pointers. This is the conservative-GC "is this word a likely
// pointer to a live object?" test.
func (ix *ObjectIndex) Containing(addr Addr) (*Object, bool) {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	bucket := ix.byPage[PageBase(addr)]
	for _, o := range bucket {
		if o.Contains(addr) {
			return o, true
		}
	}
	if len(bucket) == 0 {
		return ix.largeOn(addr, addr+1)
	}
	return nil, false
}

// OverlappingRange returns any live object overlapping [start, end).
func (ix *ObjectIndex) OverlappingRange(start, end Addr) (*Object, bool) {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return ix.overlapping(start, end)
}

// Len returns the number of live objects.
func (ix *ObjectIndex) Len() int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return len(ix.byStart)
}

// All returns all live objects sorted by address: the shared snapshot,
// which the caller must treat as read-only. It stays valid, and unchanged,
// whatever happens to the index afterwards.
func (ix *ObjectIndex) All() []*Object {
	snap, _ := ix.Snapshot()
	return snap
}

// Snapshot is All with the generation it describes: the one to pass to
// ChangesSince to follow the index from there.
func (ix *ObjectIndex) Snapshot() ([]*Object, uint64) {
	ix.mu.RLock()
	snap, gen, fresh := ix.snap, ix.gen, ix.snap != nil && ix.snapGen == ix.gen
	ix.mu.RUnlock()
	if fresh {
		return snap, gen
	}
	ix.mu.Lock()
	defer ix.mu.Unlock()
	ix.advance()
	return ix.snap, ix.gen
}

// advance brings the snapshot up to date: it merges the journal entries
// since into it, or sorts byStart afresh when there is no snapshot or it is
// more than half the index behind — then the sort costs no more than the
// merge. Caller holds mu.
func (ix *ObjectIndex) advance() {
	switch k := ix.gen - ix.snapGen; {
	case ix.snap == nil || k > uint64(len(ix.byStart)/2):
		ix.snap = make([]*Object, 0, len(ix.byStart))
		for _, o := range ix.byStart {
			ix.snap = append(ix.snap, o)
		}
		slices.SortFunc(ix.snap, func(a, b *Object) int { return cmp.Compare(a.Addr, b.Addr) })
	case k > 0:
		older, newer := ix.log.last(int(k))
		touched := append(slices.Clone(older), newer...)
		slices.Sort(touched)
		ix.snap = ix.mergeInto(make([]*Object, 0, len(ix.byStart)), touched)
	}
	ix.snapGen = ix.gen
}

// mergeInto appends the ordered view as of now to out: the snapshot with
// the touched addresses (ascending, with repeats) merged in. An untouched
// address keeps its object, a touched one holds whatever byStart says lives
// there now (nothing, the same object removed and re-inserted, or a new one
// reusing the address). Caller holds mu.
func (ix *ObjectIndex) mergeInto(out []*Object, touched []Addr) []*Object {
	old := ix.snap
	var prev Addr
	for i, addr := range touched {
		if i > 0 && addr == prev {
			continue
		}
		prev = addr
		n, _ := slices.BinarySearchFunc(old, addr, byAddr)
		out = append(out, old[:n]...)
		if old = old[n:]; len(old) > 0 && old[0].Addr == addr {
			old = old[1:]
		}
		if o, live := ix.byStart[addr]; live {
			out = append(out, o)
		}
	}
	return append(out, old...)
}

// ChangesSince appends to dst what changed in the index since generation
// g, an earlier reading of Snapshot or ChangesSince: each address a
// mutation touched since, once, ascending, with the object that lives
// there now. It returns the extended slice and the generation it brings
// the reader to. The entries, the objects and the generation are read
// under one hold of the lock, so the answer describes one instant. ok is
// false when the journal no longer reaches g (see ObjectIndex): the reader
// has lapsed and must start over from Snapshot. A call allocates nothing
// once dst has the capacity — except that a snapshot more than an eighth
// of the index behind is brought up to date first, which keeps the merge
// the next All does short.
func (ix *ObjectIndex) ChangesSince(g uint64, dst []Change) (_ []Change, gen uint64, ok bool) {
	ix.mu.Lock()
	if gen = ix.gen; g > gen || gen-g > uint64(ix.log.n) {
		ix.mu.Unlock()
		return dst, gen, false
	}
	n := len(dst)
	older, newer := ix.log.last(int(gen - g))
	for _, run := range [2][]Addr{older, newer} {
		for _, a := range run {
			dst = append(dst, Change{Addr: a, Now: ix.byStart[a]})
		}
	}
	if ix.snap == nil || gen-ix.snapGen > uint64(len(ix.byStart)/8+minPending) {
		ix.advance()
	}
	ix.read, ix.reading = gen, true
	ix.mu.Unlock()
	// Entries read at one instant agree on what lives at an address:
	// repeats are dropped whole.
	changes := dst[n:]
	slices.SortFunc(changes, func(a, b Change) int { return cmp.Compare(a.Addr, b.Addr) })
	changes = slices.CompactFunc(changes, func(a, b Change) bool { return a.Addr == b.Addr })
	return dst[:n+len(changes)], gen, true
}

// MergeChanges merges changes (ascending by address, as ChangesSince
// returns them) into objs, the ordered view as of the generation they were
// asked from, and appends the ordered view as of the generation they bring
// it to onto out. Onto delta it appends the objects that left or arrived,
// ascending: at one address the one that left first. An address whose
// object did not change — the same object removed and put back — adds
// nothing. objs is only read.
func MergeChanges(out, delta, objs []*Object, changes []Change) ([]*Object, []*Object) {
	for _, c := range changes {
		n, _ := slices.BinarySearchFunc(objs, c.Addr, byAddr)
		out = append(out, objs[:n]...)
		var was *Object
		if objs = objs[n:]; len(objs) > 0 && objs[0].Addr == c.Addr {
			was, objs = objs[0], objs[1:]
		}
		if c.Now != nil {
			out = append(out, c.Now)
		}
		if was != c.Now {
			if was != nil {
				delta = append(delta, was)
			}
			if c.Now != nil {
				delta = append(delta, c.Now)
			}
		}
	}
	return append(out, objs...), delta
}

// OnPages returns the distinct live objects overlapping any of the given
// pages, sorted by address (used to turn soft-dirty pages into the dirty
// object set). The pages may come in any order, with repeats. It walks the
// snapshot, unless that is behind and the pages hold under a quarter of the
// objects: then their buckets are gathered and sorted, and the snapshot is
// left for a reader that needs all of it.
func (ix *ObjectIndex) OnPages(pages []Addr) []*Object {
	if out, ok := ix.fromBuckets(pages); ok {
		return out
	}
	objs := ix.All()
	if !slices.IsSorted(pages) {
		pages = slices.Clone(pages)
		slices.Sort(pages)
	}
	var out []*Object
	next := 0 // objs[:next] are emitted or end before the current page
	for _, pb := range pages {
		// Disjoint and sorted by start, objs is sorted by end too.
		n, _ := slices.BinarySearchFunc(objs[next:], pb+1, func(o *Object, a Addr) int { return cmp.Compare(o.End(), a) })
		for next += n; next < len(objs) && objs[next].Addr < pb+PageSize; next++ {
			out = append(out, objs[next])
		}
	}
	return out
}

// fromBuckets answers OnPages from the page buckets, when that is the
// cheaper way (see OnPages).
func (ix *ObjectIndex) fromBuckets(pages []Addr) ([]*Object, bool) {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	if ix.snap != nil && ix.snapGen == ix.gen {
		return nil, false
	}
	n := 0
	for _, pb := range pages {
		if k := len(ix.byPage[pb]); k > 0 {
			n += k
		} else if _, ok := ix.largeOn(pb, pb+PageSize); ok {
			n++
		}
	}
	if n > len(ix.byStart)/4 {
		return nil, false
	}
	out := make([]*Object, 0, n)
	for _, pb := range pages {
		if bucket := ix.byPage[pb]; len(bucket) > 0 {
			out = append(out, bucket...)
		} else if o, ok := ix.largeOn(pb, pb+PageSize); ok {
			out = append(out, o)
		}
	}
	slices.SortFunc(out, func(a, b *Object) int { return cmp.Compare(a.Addr, b.Addr) })
	return slices.Compact(out), true
}
