package trace

import (
	"encoding/binary"
	"sort"

	"repro/internal/mem"
	"repro/internal/types"
)

// resolver answers "which live object contains this address?" against an
// address-sorted object list (ObjectIndex.All, or a step's own), with no lock
// and no map: a range pre-filter (most scanned words are small integers or
// text, far outside the object span), then the page table (pageTable: one
// slot per page, holding the object a word on that page last resolved to),
// then a binary search over the objects on the word's page, or a page
// found to hold none. Objects in an index are pairwise disjoint, so sorted
// by start is also sorted by end.
//
// A resolver is a private cursor over a list it only reads: give each
// goroutine its own. Its policy is fixed, so it flattens each type it
// meets once, not once per object.
type resolver struct {
	objs  []*mem.Object
	lo    uint64 // start of the first object
	span  uint64 // end of the last object - lo
	slots []pageSlot
	mask  uint64 // len(slots) - 1
	gen   uint32 // the generation slots are filled for
	// holes are the last gaps between objects that a whole page was found
	// to lie in, most recent first: words that pass the pre-filter yet
	// point nowhere (text, integers) land in a few large holes, on pages
	// too many and too scattered to give each a slot.
	holes [4]gap
	// layouts and the rest serve the scan (scanRange).
	layouts layoutMemo
	whole   [1]types.OpaqueRange
	cur     scanCursor
	// onFragment is r.fragment, bound once: one method value serves every
	// WalkResident call, where a closure would be allocated per call. (The
	// page scanner puts its own in front, to follow a walk from page to page.)
	onFragment func(base mem.Addr, data []byte)
}

// gap is the address range [lo, lo+n).
type gap struct{ lo, n uint64 }

// layoutMemo memoizes types.LayoutOf under one policy, per type identity
// (each version's registry interns one *Type per named type). Not safe for
// concurrent use.
type layoutMemo struct {
	pol types.Policy
	m   map[*types.Type]memoLayout
}

type memoLayout struct {
	types.Layout
	odd bool // a traced slot sits at an offset that is not a multiple of 8
}

func newLayoutMemo(pol types.Policy) layoutMemo {
	return layoutMemo{pol: pol, m: make(map[*types.Type]memoLayout)}
}

func (lm *layoutMemo) memo(t *types.Type) memoLayout {
	l, ok := lm.m[t]
	if !ok {
		l.Layout = types.LayoutOf(t, lm.pol)
		for _, slot := range l.Ptrs {
			l.odd = l.odd || (!slot.Func && slot.Offset&7 != 0)
		}
		lm.m[t] = l
	}
	return l
}

func (lm *layoutMemo) of(t *types.Type) types.Layout { return lm.memo(t).Layout }

// pageTable is the resolver's lookup keyed by a word's page, after the
// per-page block headers of Boehm's collector (PLDI '93). Slot
// (page number mod len(slots)) describes one page of one object list: the
// run of objects overlapping it, and the one of those a word on it last
// resolved to, with what the scan needs of that object, so that a word
// landing there touches no *mem.Object. A slot is filled on first use by
// binary search; a word on a page with several objects that misses the
// slot's object searches only those.
//
// Slots are tagged with the generation of the list they describe. Whoever
// keeps the list keeps its table (procAnalysis, beside the list's buffers)
// and advances the generation when it rebuilds the list, which retires
// every slot at once: a step over a few pages clears and fills nothing the
// size of the table or of the list.
type pageTable struct {
	slots []pageSlot // a power of two long
	gen   uint32     // 0 until the first advance; no slot matches it
}

// pageSlot is one page's entry in a pageTable, for a page at least one
// object overlaps. Its object — the bounds, the index in the list, the
// Table 2 region class and whether its type rejects offsets that are not
// multiples of 4 — is one of those.
type pageSlot struct {
	page     uint64 // the page described
	lo, size uint64 // the object's bounds
	gen      uint32
	first, n int32 // objs[first:first+n] overlap the page
	idx      int32 // the object's index in objs
	class    uint8
	align4   bool
}

// Table sizes, in slots. A table has about one slot per resident page of
// its process, within these bounds. At the top it has room for the pages
// a scan's words land on at any one time — the pages being scanned, their
// neighbours, a few hot targets — many times over; two pages that share a
// slot only cost refills, and a table that outgrows the first-level cache
// costs more than it saves (1024 slots scanned httpd's heap slower than
// 256). A resolver without a kept table (the transfer's, one per process
// and update) allocates the smallest.
const (
	minSlots = 16
	maxSlots = 256
)

// advance retires every slot: the list the table describes was rebuilt.
func (t *pageTable) advance() {
	if t.gen++; t.gen == 0 { // wrapped: the one time old tags could match
		clear(t.slots)
		t.gen = 1
	}
}

// reserve grows the table to its size for a process of the given number
// of resident pages. Only a step that scans every page calls it.
func (t *pageTable) reserve(pages int) {
	n := minSlots
	for n < pages && n < maxSlots {
		n *= 2
	}
	if len(t.slots) < n {
		t.slots = make([]pageSlot, n)
	}
}

func newResolver(objs []*mem.Object, pol types.Policy) *resolver {
	t := &pageTable{slots: make([]pageSlot, minSlots)}
	t.advance()
	return newTableResolver(objs, pol, t)
}

// newTableResolver is newResolver over a kept table, current for objs.
func newTableResolver(objs []*mem.Object, pol types.Policy, t *pageTable) *resolver {
	r := &resolver{objs: objs, layouts: newLayoutMemo(pol), slots: t.slots, mask: uint64(len(t.slots) - 1), gen: t.gen}
	r.onFragment = r.fragment
	r.cur.precise, r.cur.likely = r.cur.bufs[0][:0], r.cur.bufs[1][:0]
	if n := len(objs); n > 0 {
		r.lo = uint64(objs[0].Addr)
		r.span = uint64(objs[n-1].End()) - r.lo
	}
	return r
}

// outside is the range pre-filter: true for nil and for any word that
// cannot point into the snapshot.
func (r *resolver) outside(w uint64) bool { return w == 0 || w-r.lo >= r.span }

// cover widens the pre-filter to let words in [lo, hi) through as well: a
// caller that asks for misses wants them from wherever an object could
// appear, not only from between today's first and last.
func (r *resolver) cover(lo, hi mem.Addr) {
	l, h := uint64(lo), uint64(hi)
	if r.span > 0 {
		l, h = min(l, r.lo), max(h, r.lo+r.span)
	}
	r.lo, r.span = l, h-l
}

// lookup returns the slot whose object contains the word's address
// (interior pointers included), or nil. A slot of the current generation
// whose object contains the word answers whichever page it describes.
func (r *resolver) lookup(w uint64) *pageSlot {
	if s := &r.slots[(w/mem.PageSize)&r.mask]; s.gen == r.gen && w-s.lo < s.size {
		return s
	}
	return r.search(w)
}

// search is lookup past the slot's object: it (re)fills the slot for the
// word's page if it describes another page or list, and searches the
// objects overlapping the page. A page no object overlaps gets no slot:
// the hole it lies in is remembered instead.
func (r *resolver) search(w uint64) *pageSlot {
	s, pb := &r.slots[(w/mem.PageSize)&r.mask], w&^(mem.PageSize-1)
	if s.gen != r.gen || s.page != pb {
		for _, h := range r.holes {
			if w-h.lo < h.n {
				return nil
			}
		}
		first := r.firstEndingPast(pb)
		end := r.firstStartingAt(first, len(r.objs), pb+mem.PageSize)
		if end == first {
			lo, hi := uint64(0), ^uint64(0)
			if first > 0 {
				lo = uint64(r.objs[first-1].End())
			}
			if first < len(r.objs) {
				hi = uint64(r.objs[first].Addr)
			}
			copy(r.holes[1:], r.holes[:])
			r.holes[0] = gap{lo, hi - lo}
			return nil
		}
		*s = pageSlot{page: pb, gen: r.gen, first: int32(first), n: int32(end - first)}
		r.hold(s, first)
		if w-s.lo < s.size {
			return s
		}
	}
	if s.n < 2 {
		return nil // the page's one object, if any, was just ruled out
	}
	first := int(s.first)
	i := r.firstStartingAt(first, first+int(s.n), w+1) - 1 // the last object starting at or before w
	if i < first || w-uint64(r.objs[i].Addr) >= r.objs[i].Size {
		return nil
	}
	r.hold(s, i)
	return s
}

// hold makes objs[i] the slot's object.
func (r *resolver) hold(s *pageSlot, i int) {
	o := r.objs[i]
	s.lo, s.size, s.idx = uint64(o.Addr), o.Size, int32(i)
	s.class, s.align4 = regionClass[o.Kind], o.Type != nil && o.Type.Align > 1
}

// firstEndingPast returns the first index whose object ends past a, or
// len(objs).
func (r *resolver) firstEndingPast(a uint64) int {
	lo, hi := 0, len(r.objs)
	for lo < hi {
		if mid := int(uint(lo+hi) >> 1); uint64(r.objs[mid].End()) <= a {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// firstStartingAt returns the first index in [lo, hi) whose object starts
// at or past a, or hi.
func (r *resolver) firstStartingAt(lo, hi int, a uint64) int {
	for lo < hi {
		if mid := int(uint(lo+hi) >> 1); uint64(r.objs[mid].Addr) < a {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// containing returns the index in objs of the object containing the word's
// address (interior pointers included), or -1.
func (r *resolver) containing(w uint64) int {
	if r.outside(w) {
		return -1
	}
	if s := r.lookup(w); s != nil {
		return int(s.idx)
	}
	return -1
}

// likelyTarget validates one conservatively-scanned word: it must point into a
// live object, and if the target carries a data type tag the pointed offset
// must be plausibly aligned ("our pointer analysis uses the data type tag
// associated to the pointed object to reject illegal (unaligned) likely
// pointers"). Returns the target's slot, or nil. The word must have passed
// the pre-filter.
func (r *resolver) likelyTarget(w uint64) *pageSlot {
	if s := r.lookup(w); s != nil && !(s.align4 && (w-s.lo)%4 != 0) {
		return s
	}
	return nil
}

// opaqueRangesOf returns the byte ranges of o that must be scanned
// conservatively under r's policy, and its precise pointer slots, memoized
// per type.
func (r *resolver) opaqueRangesOf(o *mem.Object) ([]types.OpaqueRange, []types.PtrSlot) {
	if o.Type == nil {
		// Uninstrumented object: fully opaque. The one range lives in the
		// resolver, valid until the next call — scans run one at a time.
		r.whole[0] = types.OpaqueRange{Size: o.Size}
		return r.whole[:], nil
	}
	l := r.layouts.of(o.Type)
	return l.Opaques, l.Ptrs
}

// opaqueWords returns the object offsets [start, end) the conservative scan
// of one opaque range covers: 8-byte words at offsets that are multiples
// of 8, clipped to the object.
func opaqueWords(rg types.OpaqueRange, objSize uint64) (start, end uint64) {
	end = rg.Offset + rg.Size
	if end > objSize {
		end = objSize
	}
	return (rg.Offset + 7) &^ 7, end
}

// scanCursor is the scan in progress: what the fragment callback needs.
type scanCursor struct {
	o       *mem.Object
	opaques []types.OpaqueRange
	ptrs    []types.PtrSlot
	pi, ri  int // cursors: both lists ascend, and so do the fragments
	hits    func(precise, likely []int32)
	miss    func(w uint64)
	// precise and likely are the targets found since the last report to
	// hits, by index in objs, in the resolver's own buffers (a full one is
	// reported early). tally counts them by target class, precise [0] and
	// likely [1], until the page scanner folds it into its census
	// (noteHolder); a caller that keeps no census ignores it.
	precise, likely []int32
	tally           [2][3]uint16
	bufs            [2][64]int32
}

// add appends a target to one of the cursor's lists, reporting first if
// the list is full.
func (c *scanCursor) add(hits *[]int32, ti int32) {
	if len(*hits) == cap(*hits) {
		c.report()
	}
	*hits = append(*hits, ti)
}

// scan is scanRange over the whole of o, with no interest in the words that
// resolve to nothing.
func (r *resolver) scan(as *mem.AddressSpace, o *mem.Object, hits func(precise, likely []int32)) error {
	return r.scanRange(as, o, o.Addr, o.End(), hits, nil)
}

// scanRange is the one pointer scan of mutable tracing: it reads every
// traced word of o that starts in [from, to) — the precise slots of its
// type, and each word of its opaque ranges that passes the pre-filter — and
// reports the indices in r.objs of the objects they point into to hits, a
// resident page fragment's worth (at most a buffer's) at a time. A non-nil,
// non-function-pointer word that passes the pre-filter and resolves to no
// target (no live object there, or an offset the target's type rules out)
// goes to miss, when miss is not nil. Function-pointer slots are not
// traced. The conservative analysis (the part of each object inside a run
// of pages) and the transfer's reachability walk (object by object) both
// run on it, quiesced or serving. from and to must each be a bound of o or
// a page boundary inside it.
//
// The range is read in place, one resident page fragment at a time, under
// the address space's per-chunk read lock (mem.WalkResident): nothing is
// staged and nothing is locked per word. Pages never touched are skipped —
// a zero word is never a pointer. The few words that cross a page boundary
// (only in objects or slots that are not 8-byte aligned) lie in no single
// fragment and are read individually afterwards; one that starts in the
// range belongs to it even where it ends past to. Callbacks run with the
// read lock held: they must not touch the address space.
func (r *resolver) scanRange(as *mem.AddressSpace, o *mem.Object, from, to mem.Addr, hits func(precise, likely []int32), miss func(w uint64)) error {
	opaques, ptrs := r.opaqueRangesOf(o)
	if len(opaques) == 0 && len(ptrs) == 0 {
		// Pointer-free layout (scalars only): nothing to trace.
		return nil
	}
	c := &r.cur
	c.o, c.opaques, c.ptrs, c.pi, c.ri, c.hits, c.miss = o, opaques, ptrs, 0, 0, hits, miss
	if lo := uint64(from - o.Addr); lo > 0 {
		c.pi = sort.Search(len(ptrs), func(i int) bool { return ptrs[i].Offset >= lo })
		c.ri = sort.Search(len(opaques), func(i int) bool { return opaques[i].Offset+opaques[i].Size > lo })
	}
	if err := as.WalkResident(from, uint64(to-from), r.onFragment); err != nil {
		return err
	}
	if !r.mayCross(o) {
		return nil
	}
	for pb := mem.PageBase(from) + mem.PageSize; pb <= to && pb < o.End(); pb += mem.PageSize {
		b := uint64(pb - o.Addr) // the boundary, as an object offset
		k := sort.Search(len(ptrs), func(i int) bool { return ptrs[i].Offset+8 > b })
		for ; k < len(ptrs) && ptrs[k].Offset < b; k++ {
			if ptrs[k].Func || ptrs[k].Offset+8 > o.Size {
				continue
			}
			w, err := as.ReadWord(o.Addr + mem.Addr(ptrs[k].Offset))
			if err != nil {
				return err
			}
			c.preciseWord(r, w)
		}
		off := b &^ 7 // the grid word the boundary cuts, if it cuts one
		j := sort.Search(len(opaques), func(i int) bool { return opaques[i].Offset+opaques[i].Size > off })
		if off == b || j == len(opaques) {
			continue
		}
		if start, end := opaqueWords(opaques[j], o.Size); off < start || off+8 > end {
			continue
		}
		w, err := as.ReadWord(o.Addr + mem.Addr(off))
		if err != nil {
			return err
		}
		if !r.outside(w) {
			c.likelyWord(r, w)
		}
	}
	c.report()
	return nil
}

// mayCross reports whether any traced word of o can be cut by a page
// boundary: scanned words sit at multiples of 8 from the object's start and
// precise slots at their declared offsets, so only an object that is not
// 8-byte aligned, or a type with a slot at an odd offset, has one.
func (r *resolver) mayCross(o *mem.Object) bool {
	return uint64(o.Addr)&7 != 0 || (o.Type != nil && r.layouts.memo(o.Type).odd)
}

func (c *scanCursor) preciseWord(r *resolver, w uint64) {
	if r.outside(w) {
		if w != 0 && c.miss != nil {
			c.miss(w)
		}
	} else if s := r.lookup(w); s != nil {
		c.add(&c.precise, s.idx)
		c.tally[0][s.class]++
	} else if c.miss != nil {
		c.miss(w)
	}
}

// likelyWord takes a word that passed the pre-filter.
func (c *scanCursor) likelyWord(r *resolver, w uint64) {
	if s := r.likelyTarget(w); s != nil {
		c.add(&c.likely, s.idx)
		c.tally[1][s.class]++
	} else if c.miss != nil {
		c.miss(w)
	}
}

// report hands the targets found since the last report to hits.
func (c *scanCursor) report() {
	if len(c.precise)+len(c.likely) > 0 {
		c.hits(c.precise, c.likely)
		c.precise, c.likely = c.precise[:0], c.likely[:0]
	}
}

// fragment scans the traced words of the cursor's object that lie wholly
// inside one resident fragment, and reports their targets.
func (r *resolver) fragment(base mem.Addr, data []byte) {
	c := &r.cur
	lo := uint64(base - c.o.Addr) // the fragment as object offsets [lo, hi)
	hi := lo + uint64(len(data))
	ptrs, opaques := c.ptrs, c.opaques
	for c.pi < len(ptrs) && ptrs[c.pi].Offset < lo {
		c.pi++ // on an absent page (nil), or crossing into this one
	}
	for ; c.pi < len(ptrs) && ptrs[c.pi].Offset+8 <= hi; c.pi++ {
		if !ptrs[c.pi].Func {
			c.preciseWord(r, binary.LittleEndian.Uint64(data[ptrs[c.pi].Offset-lo:]))
		}
	}
	for c.ri < len(opaques) && opaques[c.ri].Offset+opaques[c.ri].Size <= lo {
		c.ri++
	}
	for k := c.ri; k < len(opaques) && opaques[k].Offset < hi; k++ {
		start, end := opaqueWords(opaques[k], c.o.Size)
		if start < lo {
			start = (lo + 7) &^ 7
		}
		if end > hi {
			end = hi
		}
		if start >= end {
			continue
		}
		r.likelyWords(data[start-lo : end-lo])
	}
	c.report()
}

// likelyWords is the hot loop: each word of d (opaque, on the scan's grid)
// through outside, lookup and likelyTarget, spelled out. Most words fail
// the pre-filter, and that path must stay a load and two comparisons. So
// the loop is a function of its own, which keeps few values live in it,
// and it reads the word again after a call rather than keep it across
// one: either way the compiler would store every word to the stack.
func (r *resolver) likelyWords(d []byte) {
	c := &r.cur
	for rlo, span := r.lo, r.span; len(d) >= 8; d = d[8:] {
		w := binary.LittleEndian.Uint64(d)
		if w == 0 || w-rlo >= span {
			continue
		}
		s := &r.slots[(w/mem.PageSize)&r.mask]
		if s.gen != r.gen || w-s.lo >= s.size {
			s = r.search(w)
			w = binary.LittleEndian.Uint64(d)
		}
		if s == nil || s.align4 && (w-s.lo)%4 != 0 {
			if c.miss != nil {
				c.miss(w)
			}
			continue
		}
		c.tally[1][s.class]++
		c.add(&c.likely, s.idx)
	}
}
