package trace

import (
	"slices"

	"repro/internal/mem"
	"repro/internal/types"
)

// shadowInvalidator is the optional interface a ShadowReader implements to
// learn that an object's page frames left the old address space
// (checkpoint.ProcShadow implements it): its captured shadow must never be
// served again.
type shadowInvalidator interface {
	Invalidate(o *mem.Object)
}

// adoptPages is the zero-copy fast path (the simulated analogue of the
// paper's VMA remap): classify whole old-instance pages as adoptable and
// move their frames into the new address space instead of copying object
// by object. A page is adoptable only when the move is provably
// bit-identical to the copy path:
//
//   - every old object overlapping the page pairs to a same-address,
//     same-size counterpart with no transformation and no user handler,
//     and actually needs copying (a skipped-clean startup object's
//     reinitialized bytes must win, so its pages never move);
//   - each such object is pointer-free and policy-opaque-free
//     (types.AdoptCompatible) — or its pointer remap is provably the
//     identity: every word the copy path would rewrite (the precise
//     pointer slots; opaque ranges and untyped contents travel verbatim
//     on both paths) already holds its post-remap value;
//   - every new-version object overlapping the page is exactly the pair
//     target of one of those old objects (nothing new-only to clobber);
//   - an object moves only if all of its candidate pages move, and a page
//     moves only if all of its objects move (settleAdoptable).
//
// Only pages resident on at least one side are candidates. A page absent
// on both is left where it is whatever its objects: copying it and moving
// its frame both leave it absent, so it decides nothing, and
// Stats.PagesAdopted counts the frames that actually moved.
//
// Bytes on a donated page outside any object (in-band chunk headers,
// alignment gaps, free-chunk words) travel with the frame; the simulation
// never reads them back — allocator metadata is authoritative in Go
// structures — so clobbering the new version's gap bytes with the old
// frame's is unobservable. Runs sequentially between pair and
// copyContents; under VerifyShadows each adopted object's source bytes are
// digested before its frames leave, keeping Stats.Checksum identical to an
// adoption-off run.
func (pt *procTransfer) adoptPages(reachable []*mem.Object) error {
	if !pt.opts.Adopt {
		return nil
	}
	oldAS, newAS := pt.oldProc.Space(), pt.newProc.Space()

	// identityRemap reports whether moving o's frames is bit-identical to
	// copying it: the copy path (transferObject on a no-transform pair)
	// copies the object verbatim and then rewrites only its precise
	// pointer slots through RemapPtr. Untyped objects have no slots, so
	// their copy is always verbatim; a typed object qualifies when every
	// non-nil slot value already remaps to itself (its pointees kept
	// their addresses — likely-pointer targets always do, the analysis
	// pinned them immutable). Opaque ranges are never rewritten by the
	// copy path, so they never disqualify a frame move.
	identityRemap := func(o *mem.Object) bool {
		if o.Type == nil {
			return true
		}
		for _, slot := range pt.layoutOf(o.Type).Ptrs {
			if slot.Func {
				continue
			}
			word, err := oldAS.ReadWord(o.Addr + mem.Addr(slot.Offset))
			if err != nil {
				return false
			}
			if _, moved := pt.remapped(word); moved {
				return false
			}
		}
		return true
	}

	elig := make(map[mem.Addr]*pairEntry)
	for _, o := range reachable {
		e := pt.pairs[o.Addr]
		if e == nil || e.newObj == nil || e.transform != nil {
			continue
		}
		if e.newObj.Addr != o.Addr || e.newObj.Size != o.Size {
			continue
		}
		if _, hasHandler := pt.ann.ObjHandler(o.Name); hasHandler {
			continue
		}
		needsCopy := pt.isDirty(o) || !o.Startup || pt.opts.DisableDirtyFilter
		if o.Kind == mem.ObjHeap && o.Startup && pt.bySiteSeq[mem.PlanKey{Site: o.Site, Seq: o.Seq}] == nil {
			needsCopy = true
		}
		if !needsCopy {
			continue
		}
		// An object off the mapping on either side cannot move; left out,
		// it strikes the pages it shares like any other ineligible object.
		first, end := mem.PageBase(o.Addr), mem.PageBase(o.End()+mem.PageSize-1)
		if !oldAS.Mapped(first, uint64(end-first)) || !newAS.Mapped(first, uint64(end-first)) {
			continue
		}
		if !types.AdoptCompatible(o.Type, e.newObj.Type, pt.opts.Policy) && !identityRemap(o) {
			continue
		}
		elig[o.Addr] = e
	}
	if len(elig) == 0 {
		return nil
	}

	// Candidate pages: the pages of eligible objects resident on either
	// side, ascending (reachable is address-sorted), found by walking
	// both spaces. A page absent on both sides is neutral — neither a
	// candidate nor a blocker: the copy and the frame move both leave it
	// absent, with no dirty bit and no stamp, so an object's cost here is
	// its resident pages, not the pages it spans. A candidate stays one
	// only when every old object on it is eligible and the new objects on
	// it are exactly their pair targets. The two index checks take one
	// OnPages call each, over the whole candidate list, and strike the
	// candidate pages of every object that does not belong.
	var candPages, res []mem.Addr
	collect := func(base mem.Addr, _ []byte) { res = append(res, mem.PageBase(base)) }
	for _, o := range reachable {
		if elig[o.Addr] == nil {
			continue
		}
		res = res[:0]
		if err := oldAS.WalkResident(o.Addr, o.Size, collect); err != nil {
			return err
		}
		if err := newAS.WalkResident(o.Addr, o.Size, collect); err != nil {
			return err
		}
		slices.Sort(res)
		for _, pb := range res {
			// Both sides, and neighbours sharing a page, may name a page
			// twice: the list stays distinct.
			if n := len(candPages); n == 0 || candPages[n-1] != pb {
				candPages = append(candPages, pb)
			}
		}
	}
	ok := make([]bool, len(candPages))
	for i := range ok {
		ok[i] = true
	}
	strike := func(o *mem.Object) {
		lo, hi := candSpan(candPages, o)
		for i := lo; i < hi; i++ {
			ok[i] = false
		}
	}
	oldIx, newIx := pt.oldProc.Index(), pt.newProc.Index()
	for _, po := range oldIx.OnPages(candPages) {
		// Scratch overlay metadata is never transferred and never read
		// back: its bytes ride along like allocator gap bytes on either
		// side.
		if !po.Scratch && elig[po.Addr] == nil {
			strike(po)
		}
	}
	for _, pn := range newIx.OnPages(candPages) {
		if en := elig[pn.Addr]; !pn.Scratch && (en == nil || en.newObj != pn) {
			strike(pn)
		}
	}
	var one [1]mem.Addr
	settleAdoptable(candPages, ok, func(pb mem.Addr) []*mem.Object {
		one[0] = pb
		return oldIx.OnPages(one[:])
	})

	// pages is a slice of its own: the per-object walk below still reads
	// candPages.
	var pages []mem.Addr
	for i, pb := range candPages {
		if ok[i] {
			pages = append(pages, pb)
		}
	}
	pt.adopted = make(map[mem.Addr]bool)
	inv, _ := pt.shadow.(shadowInvalidator)
	for _, o := range reachable {
		if elig[o.Addr] == nil {
			continue
		}
		lo, hi := candSpan(candPages, o)
		if slices.Contains(ok[lo:hi], false) {
			continue
		}
		if pt.opts.VerifyShadows {
			// Digest the source bytes while the frames are still here, so
			// the checksum matches an adoption-off run bit for bit.
			if err := pt.verifySource(o, o.Size, nil, &pt.stats); err != nil {
				return err
			}
		}
		if inv != nil {
			inv.Invalidate(o)
		}
		pt.adopted[o.Addr] = true
		pt.stats.ObjectsTransferred++
		pt.stats.BytesTransferred += o.Size
		pt.stats.BytesAdopted += o.Size
	}
	// The frames themselves: whole runs of pages re-linked from the old
	// address space into the new one, recorded in the engine's ledger.
	if err := mem.MoveFrames(oldAS, newAS, pages, pt.opts.Ledger); err != nil {
		return err
	}
	pt.stats.PagesAdopted += len(pages)
	return nil
}

// candSpan returns the index range of the ascending candidate pages that
// overlap o.
func candSpan(pages []mem.Addr, o *mem.Object) (lo, hi int) {
	lo, _ = slices.BinarySearch(pages, mem.PageBase(o.Addr))
	hi, _ = slices.BinarySearch(pages[lo:], o.End())
	return lo, lo + hi
}

// settleAdoptable shrinks the candidate set to the pages that can move
// together: an object moves only if all of its candidate pages survive,
// and a candidate page survives only if all of its objects move. pages are
// the candidates, ascending, and ok their verdicts from the per-page
// checks; onPage lists the old objects overlapping a page (scratch
// overlays ride along and are ignored). Demoting a page demotes its
// objects, which demotes their other candidate pages: a worklist in which
// each page is expanded and each object demoted at most once, so the work
// is linear in the candidates however far one demotion propagates, and an
// object's pages outside the list cost nothing.
func settleAdoptable(pages []mem.Addr, ok []bool, onPage func(pb mem.Addr) []*mem.Object) {
	var work []int
	for i, k := range ok {
		if !k {
			work = append(work, i)
		}
	}
	demoted := make(map[*mem.Object]bool)
	for len(work) > 0 {
		i := work[len(work)-1]
		work = work[:len(work)-1]
		for _, o := range onPage(pages[i]) {
			if o.Scratch || demoted[o] {
				continue
			}
			demoted[o] = true
			lo, hi := candSpan(pages, o)
			for q := lo; q < hi; q++ {
				if ok[q] {
					ok[q] = false
					work = append(work, q)
				}
			}
		}
	}
}
