package trace

import (
	"encoding/binary"
	"sort"

	"repro/internal/mem"
	"repro/internal/types"
)

// resolver answers "which live object contains this address?" against an
// address-sorted object list (ObjectIndex.All, or AppendAll), with no lock
// and no map: a range pre-filter (most scanned words are small integers or
// text, far outside the object span), a last-hit cache (neighbouring words
// tend to point into the same object) and a binary search. Objects in an
// index are pairwise disjoint, so sorted by start is also sorted by end.
//
// A resolver is a private cursor over a list it only reads: give each
// goroutine its own. Its policy is fixed, so it flattens each type it
// meets once, not once per object.
type resolver struct {
	objs    []*mem.Object
	lo      uint64 // start of the first object
	span    uint64 // end of the last object - lo
	last    int    // index of the most recent hit
	layouts layoutMemo
	whole   [1]types.OpaqueRange
	cur     scanCursor
	// onFragment is r.fragment, bound once: one method value serves every
	// WalkResident call, where a closure would be allocated per call. (The
	// page scanner puts its own in front, to follow a walk from page to page.)
	onFragment func(base mem.Addr, data []byte)
}

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

func newResolver(objs []*mem.Object, pol types.Policy) *resolver {
	r := &resolver{objs: objs, layouts: newLayoutMemo(pol)}
	r.onFragment = r.fragment
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

// containing returns the index in objs of the object containing the word's
// address (interior pointers included), or -1.
func (r *resolver) containing(w uint64) int {
	if r.outside(w) || len(r.objs) == 0 {
		return -1
	}
	if o := r.objs[r.last]; w-uint64(o.Addr) < o.Size {
		return r.last
	}
	lo, hi := 0, len(r.objs) // first index whose start is past w
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if uint64(r.objs[mid].Addr) <= w {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == 0 || w-uint64(r.objs[lo-1].Addr) >= r.objs[lo-1].Size {
		return -1
	}
	r.last = lo - 1
	return r.last
}

// likelyTarget validates one conservatively-scanned word: it must point into a
// live object, and if the target carries a data type tag the pointed offset
// must be plausibly aligned ("our pointer analysis uses the data type tag
// associated to the pointed object to reject illegal (unaligned) likely
// pointers"). Returns the target's index, or -1.
func (r *resolver) likelyTarget(w uint64) int {
	ti := r.containing(w)
	if ti < 0 {
		return -1
	}
	if t := r.objs[ti]; t.Type != nil && t.Type.Align > 1 && (w-uint64(t.Addr))%4 != 0 {
		return -1
	}
	return ti
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
	precise func(ti int)
	likely  func(ti int)
	miss    func(w uint64)
}

// scan is scanRange over the whole of o, with no interest in the words that
// resolve to nothing.
func (r *resolver) scan(as *mem.AddressSpace, o *mem.Object, precise, likely func(ti int)) error {
	return r.scanRange(as, o, o.Addr, o.End(), precise, likely, nil)
}

// scanRange is the one pointer scan of mutable tracing: it reads every
// traced word of o that starts in [from, to) — the precise slots of its
// type, and each word of its opaque ranges that passes the pre-filter — and
// reports the index in r.objs of the object it points into to precise or
// likely. A non-nil, non-function-pointer word that passes the pre-filter
// and resolves to no target (no live object there, or an offset the
// target's type rules out) goes to miss, when miss is not nil.
// Function-pointer slots are not traced. The conservative analysis (the part
// of each object inside a run of pages) and the transfer's reachability walk
// (object by object) both run on it, quiesced or serving. from and to must each be a bound of o or a page
// boundary inside it.
//
// The range is read in place, one resident page fragment at a time, under
// the address space's per-chunk read lock (mem.WalkResident): nothing is
// staged and nothing is locked per word. Pages never touched are skipped —
// a zero word is never a pointer. The few words that cross a page boundary
// (only in objects or slots that are not 8-byte aligned) lie in no single
// fragment and are read individually afterwards; one that starts in the
// range belongs to it even where it ends past to. Callbacks run with the
// read lock held: they must not touch the address space.
func (r *resolver) scanRange(as *mem.AddressSpace, o *mem.Object, from, to mem.Addr, precise, likely func(ti int), miss func(w uint64)) error {
	opaques, ptrs := r.opaqueRangesOf(o)
	if len(opaques) == 0 && len(ptrs) == 0 {
		// Pointer-free layout (scalars only): nothing to trace.
		return nil
	}
	c := &r.cur
	*c = scanCursor{o: o, opaques: opaques, ptrs: ptrs, precise: precise, likely: likely, miss: miss}
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
	for pb := pageOf(from) + mem.PageSize; pb <= to && pb < o.End(); pb += mem.PageSize {
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
	if ti := r.containing(w); ti >= 0 {
		c.precise(ti)
	} else if w != 0 && c.miss != nil {
		c.miss(w)
	}
}

// likelyWord takes a word that passed the pre-filter.
func (c *scanCursor) likelyWord(r *resolver, w uint64) {
	if ti := r.likelyTarget(w); ti >= 0 {
		c.likely(ti)
	} else if c.miss != nil {
		c.miss(w)
	}
}

// fragment scans the traced words of the cursor's object that lie wholly
// inside one resident fragment.
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
		likely, miss := c.likely, c.miss // the hot loop: nothing re-read, nothing called that need not be
		for d := data[start-lo : end-lo]; len(d) >= 8; d = d[8:] {
			w := binary.LittleEndian.Uint64(d)
			if r.outside(w) {
				continue
			}
			if ti := r.likelyTarget(w); ti >= 0 {
				likely(ti)
			} else if miss != nil {
				miss(w)
			}
		}
	}
}
