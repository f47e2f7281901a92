package trace

import (
	"encoding/binary"

	"repro/internal/mem"
	"repro/internal/types"
)

// resolver answers "which live object contains this address?" against the
// address-sorted snapshot ObjectIndex.All returns, with no lock and no map:
// a range pre-filter (most scanned words are small integers or text, far
// outside the object span), a last-hit cache (neighbouring words tend to
// point into the same object) and a binary search. Objects in an index are
// pairwise disjoint, so sorted by start is also sorted by end.
//
// A resolver is a private cursor over a shared, read-only snapshot: give
// each goroutine its own. Its policy is fixed, so it flattens each type it
// meets once, not once per object.
type resolver struct {
	objs    []*mem.Object
	lo      uint64 // start of the first object
	span    uint64 // end of the last object - lo
	last    int    // index of the most recent hit
	layouts layoutMemo
}

// layoutMemo memoizes types.LayoutOf under one policy, per type identity
// (each version's registry interns one *Type per named type). Not safe for
// concurrent use.
type layoutMemo struct {
	pol types.Policy
	m   map[*types.Type]types.Layout
}

func newLayoutMemo(pol types.Policy) layoutMemo {
	return layoutMemo{pol: pol, m: make(map[*types.Type]types.Layout)}
}

func (lm *layoutMemo) of(t *types.Type) types.Layout {
	l, ok := lm.m[t]
	if !ok {
		l = types.LayoutOf(t, lm.pol)
		lm.m[t] = l
	}
	return l
}

func newResolver(objs []*mem.Object, pol types.Policy) *resolver {
	r := &resolver{objs: objs, layouts: newLayoutMemo(pol)}
	if n := len(objs); n > 0 {
		r.lo = uint64(objs[0].Addr)
		r.span = uint64(objs[n-1].End()) - r.lo
	}
	return r
}

// outside is the range pre-filter: true for nil and for any word that
// cannot point into the snapshot.
func (r *resolver) outside(w uint64) bool { return w == 0 || w-r.lo >= r.span }

// containing returns the index in objs of the object containing the word's
// address (interior pointers included), or -1.
func (r *resolver) containing(w uint64) int {
	if r.outside(w) {
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

// opaqueRangesOf is opaqueRangesOf under r's policy, memoized per type.
func (r *resolver) opaqueRangesOf(o *mem.Object) ([]types.OpaqueRange, []types.PtrSlot) {
	if o.Type == nil {
		return opaqueRangesOf(o, r.layouts.pol)
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

// scan is the one pointer scan of mutable tracing: it reads every traced
// pointer of o — the precise slots of its type, and each word of its
// opaque ranges that passes the likely-pointer test — and reports the
// target's index in r.objs to precise or likely. Function-pointer slots are
// not traced. The conservative analysis and the transfer's reachability
// walk both run on it, quiesced or serving.
//
// The object is read in place, one resident page fragment at a time, under
// the address space's per-chunk read lock (mem.WalkResident): nothing is
// staged and nothing is locked per word. Pages never touched are skipped —
// a zero word is never a pointer. The few words that cross a page boundary
// (only in objects or slots that are not 8-byte aligned) lie in no single
// fragment and are read individually afterwards. Callbacks run with the
// read lock held: they must not touch the address space.
func (r *resolver) scan(as *mem.AddressSpace, o *mem.Object, precise, likely func(ti int)) error {
	opaques, ptrs := r.opaqueRangesOf(o)
	if len(opaques) == 0 && len(ptrs) == 0 {
		// Pointer-free layout (scalars only): nothing to trace.
		return nil
	}
	pi, ri := 0, 0 // cursors: both lists ascend, and so do the fragments
	err := as.WalkResident(o.Addr, o.Size, func(base mem.Addr, data []byte) {
		lo := uint64(base - o.Addr) // the fragment as object offsets [lo, hi)
		hi := lo + uint64(len(data))
		for pi < len(ptrs) && ptrs[pi].Offset < lo {
			pi++ // on an absent page (nil), or crossing into this one
		}
		for ; pi < len(ptrs) && ptrs[pi].Offset+8 <= hi; pi++ {
			if ptrs[pi].Func {
				continue
			}
			w := binary.LittleEndian.Uint64(data[ptrs[pi].Offset-lo:])
			if ti := r.containing(w); ti >= 0 {
				precise(ti)
			}
		}
		for ri < len(opaques) && opaques[ri].Offset+opaques[ri].Size <= lo {
			ri++
		}
		for k := ri; k < len(opaques) && opaques[k].Offset < hi; k++ {
			start, end := opaqueWords(opaques[k], o.Size)
			if start < lo {
				start = (lo + 7) &^ 7
			}
			if end > hi {
				end = hi
			}
			if start >= end {
				continue
			}
			for d := data[start-lo : end-lo]; len(d) >= 8; d = d[8:] {
				w := binary.LittleEndian.Uint64(d)
				if r.outside(w) {
					continue
				}
				if ti := r.likelyTarget(w); ti >= 0 {
					likely(ti)
				}
			}
		}
	})
	if err != nil {
		return err
	}

	crossesPage := func(off uint64) bool {
		return (uint64(o.Addr)+off)&(mem.PageSize-1) > mem.PageSize-8
	}
	for _, slot := range ptrs {
		if slot.Func || slot.Offset+8 > o.Size || !crossesPage(slot.Offset) {
			continue
		}
		w, err := as.ReadWord(o.Addr + mem.Addr(slot.Offset))
		if err != nil {
			return err
		}
		if ti := r.containing(w); ti >= 0 {
			precise(ti)
		}
	}
	if uint64(o.Addr)&7 == 0 {
		return nil // scanned words sit at multiples of 8: none crosses a page
	}
	for _, rg := range opaques {
		start, end := opaqueWords(rg, o.Size)
		first := (uint64(o.Addr)+start)&^(mem.PageSize-1) + mem.PageSize
		for pb := first; pb < uint64(o.Addr)+end; pb += mem.PageSize {
			off := (pb - uint64(o.Addr)) &^ 7 // the word the boundary cuts
			if off+8 > end {
				break
			}
			w, err := as.ReadWord(o.Addr + mem.Addr(off))
			if err != nil {
				return err
			}
			if ti := r.likelyTarget(w); ti >= 0 {
				likely(ti)
			}
		}
	}
	return nil
}
