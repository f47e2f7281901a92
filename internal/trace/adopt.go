package trace

import (
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
//   - an object moves only if all of its pages move, and a page moves
//     only if all of its objects move (settleAdoptable).
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
		if !types.AdoptCompatible(o.Type, e.newObj.Type, pt.opts.Policy) && !identityRemap(o) {
			continue
		}
		elig[o.Addr] = e
	}
	if len(elig) == 0 {
		return nil
	}

	// Candidate pages: every page of every eligible object, ascending
	// (reachable is address-sorted). A page stays a candidate only when it
	// is mapped on both sides — asked once per object, over its whole page
	// range: an object off the mapping cannot move, so all of its pages
	// fall with it — when every old object on it is eligible, and when the
	// new objects on it are exactly their pair targets. The two index
	// checks take one OnPages call each, over the whole candidate list,
	// and strike the pages of every object that does not belong.
	cand := make(map[mem.Addr]bool)
	var candPages []mem.Addr
	for _, o := range reachable {
		if elig[o.Addr] == nil {
			continue
		}
		first, end := mem.PageBase(o.Addr), mem.PageBase(o.End()+mem.PageSize-1)
		mapped := oldAS.Mapped(first, uint64(end-first)) && newAS.Mapped(first, uint64(end-first))
		for pb := first; pb < end; pb += mem.PageSize {
			if _, seen := cand[pb]; !seen {
				candPages = append(candPages, pb)
				cand[pb] = mapped
			} else if !mapped {
				cand[pb] = false
			}
		}
	}
	strike := func(o *mem.Object) {
		for pb := mem.PageBase(o.Addr); pb < o.End(); pb += mem.PageSize {
			if cand[pb] {
				cand[pb] = false
			}
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
	settleAdoptable(cand, func(pb mem.Addr) []*mem.Object {
		one[0] = pb
		return oldIx.OnPages(one[:])
	})

	pages := candPages[:0]
	for _, pb := range candPages {
		if cand[pb] {
			pages = append(pages, pb)
		}
	}
	if len(pages) == 0 {
		return nil
	}

	pt.adopted = make(map[mem.Addr]bool)
	inv, _ := pt.shadow.(shadowInvalidator)
	for _, o := range reachable {
		if elig[o.Addr] == nil {
			continue
		}
		whole := true
		for pb := mem.PageBase(o.Addr); pb < o.End() && whole; pb += mem.PageSize {
			whole = cand[pb]
		}
		if !whole {
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

// settleAdoptable shrinks the candidate set to the pages that can move
// together: an object moves only if all of its pages are candidates, and a
// page stays a candidate only if all of its objects move. cand holds every
// page of every eligible object with the verdict of the per-page checks;
// onPage lists the old objects overlapping a page (scratch overlays ride
// along and are ignored). Demoting a page demotes its objects, which
// demotes their other pages: a worklist in which each page is expanded and
// each object demoted at most once, so the work is linear in the pages
// however far one demotion propagates.
func settleAdoptable(cand map[mem.Addr]bool, onPage func(pb mem.Addr) []*mem.Object) {
	var work []mem.Addr
	for pb, ok := range cand {
		if !ok {
			work = append(work, pb)
		}
	}
	demoted := make(map[*mem.Object]bool)
	for len(work) > 0 {
		pb := work[len(work)-1]
		work = work[:len(work)-1]
		for _, o := range onPage(pb) {
			if o.Scratch || demoted[o] {
				continue
			}
			demoted[o] = true
			for q := mem.PageBase(o.Addr); q < o.End(); q += mem.PageSize {
				if cand[q] {
					cand[q] = false
					work = append(work, q)
				}
			}
		}
	}
}
