// Page-frame adoption: the simulated analogue of the paper's VMA remap.
// The real MCR implementation commits the common in-place-update case by
// remapping whole VMAs from the old process image into the new one rather
// than copying object by object. Here the same handoff is a page-frame
// move between two AddressSpaces, and a frame is a thing that moves, not a
// value that is copied: the 4 KiB array changes hands by pointer, so a
// present page costs no copy and no allocation on its way out, in, or back.
//
// Frame ownership is exclusive. A frame is resident in at most one address
// space at any time: DonatePage unlinks it before handing it out, AdoptPage
// and RestorePage refuse a frame that is still (or again) resident, and the
// AdoptLedger keeps only where a frame went and the soft-dirty bit it
// carried — never the frame.
//
// MoveFrames is the bulk path the transfer uses; DonatePage, AdoptPage and
// RestorePage are the same relinking one page at a time. An AdoptLedger
// records every bulk move so a rollback can return the frames exactly.

package mem

import (
	"fmt"
	"sync"
)

// PageFrame is a detached page: the frame itself, by reference, plus the
// soft-dirty bit it carried when it was donated. A frame that is not
// Present stands for a page that had never been touched (demand-zero),
// and a bulk move never materializes a page that is absent on both sides:
// adopting it leaves an absent page absent, and restoring it
// re-establishes the page's absence rather than installing a zero frame.
// Installing a frame hands it to the address space; the
// PageFrame value must not be installed again afterwards (AdoptPage and
// RestorePage refuse it).
type PageFrame struct {
	frame     *page
	SoftDirty bool
}

// Present reports whether the donated page was resident.
func (f PageFrame) Present() bool { return f.frame != nil }

// checkPageLocked validates a single-page operation at pb.
func (as *AddressSpace) checkPageLocked(op string, pb Addr) error {
	if pb&Addr(pageMask) != 0 {
		return fmt.Errorf("mem: %s %#x: not page-aligned", op, pb)
	}
	if err := as.checkRangeLocked(pb, PageSize); err != nil {
		return fmt.Errorf("mem: %s: %w", op, err)
	}
	return nil
}

// detachLocked unlinks the frame at pb and returns it with the bit it
// carried. Caller holds the write lock, has checked the range and has
// counted the mutation: a frame that leaves takes its stamp with it, so the
// space is marked reshaped.
func (as *AddressSpace) detachLocked(pb Addr) PageFrame {
	p := as.pages[pb]
	if p == nil {
		return PageFrame{} // demand-zero page: nothing resident to move
	}
	delete(as.pages, pb)
	as.reshaped = as.mutations
	p.detached = true
	return PageFrame{frame: p, SoftDirty: p.softDirty}
}

// installLocked links p at pb with the given bit, replacing whatever was
// resident there, and stamps it as stored now. Caller holds the write lock,
// has checked the range and has counted the mutation.
func (as *AddressSpace) installLocked(pb Addr, p *page, softDirty bool) {
	p.softDirty, p.detached = softDirty, false
	p.stamp = as.mutations
	as.pages[pb] = p
}

// adoptLocked installs p the way WriteAt would have left it: soft-dirty. A donated page that was absent (p nil) leaves an absent
// page absent, as CopyRange does — zeroes onto zeroes — and clears a
// resident one to a fresh dirty zero page.
func (as *AddressSpace) adoptLocked(pb Addr, p *page) {
	if p == nil {
		if as.pages[pb] == nil {
			return
		}
		p = &page{}
	}
	as.installLocked(pb, p, true)
}

// errResident is the refusal to install a frame some address space holds.
func errResident(op string, pb Addr) error {
	return fmt.Errorf("mem: %s %#x: frame is resident in an address space", op, pb)
}

// DonatePage detaches the frame at page base pb from the address space and
// returns it. The page range must be fully mapped; pb must be page-aligned.
// After donation the page reads as demand-zero again (the frame is gone,
// exactly like an munmap+mmap of that page). Counts as a mutation.
func (as *AddressSpace) DonatePage(pb Addr) (PageFrame, error) {
	as.mu.Lock()
	defer as.mu.Unlock()
	if err := as.checkPageLocked("DonatePage", pb); err != nil {
		return PageFrame{}, err
	}
	as.mutations++
	return as.detachLocked(pb), nil
}

// AdoptPage installs a donated frame at page base pb, replacing whatever
// was resident there (the new version's startup may have touched the same
// addresses). The installed page is marked soft-dirty — exactly the bit
// state CopyRange of the same bytes leaves — so the next update's dirty
// tracking is identical across the adoption and copy paths.
// A frame that is not Present clears a resident page to a fresh dirty zero
// page and leaves an absent one absent: no bits, no stamp. Counts as a
// mutation.
func (as *AddressSpace) AdoptPage(pb Addr, f PageFrame) error {
	as.mu.Lock()
	defer as.mu.Unlock()
	if err := as.checkPageLocked("AdoptPage", pb); err != nil {
		return err
	}
	if f.frame != nil && !f.frame.detached {
		return errResident("AdoptPage", pb)
	}
	as.mutations++
	as.adoptLocked(pb, f.frame)
	return nil
}

// RestorePage reinstalls a frame with its recorded bookkeeping bits — the
// rollback inverse of DonatePage. A frame that was not present at donation
// time restores the page's absence. Counts as a mutation.
func (as *AddressSpace) RestorePage(pb Addr, f PageFrame) error {
	as.mu.Lock()
	defer as.mu.Unlock()
	if err := as.checkPageLocked("RestorePage", pb); err != nil {
		return err
	}
	if f.frame != nil && !f.frame.detached {
		return errResident("RestorePage", pb)
	}
	as.mutations++
	if f.frame == nil {
		if as.pages[pb] != nil {
			delete(as.pages, pb)
			as.reshaped = as.mutations
		}
		return nil
	}
	as.installLocked(pb, f.frame, f.SoftDirty)
	return nil
}

// MoveFrames moves the frames of the given pages — page-aligned, strictly
// ascending — out of from and into to at the same addresses: DonatePage +
// AdoptPage for every page, 0 bytes copied and nothing allocated for a
// present frame. Consecutive pages move as one run (at most walkChunkPages
// long, so neither lock is held across a whole heap): both spaces are
// write-locked once per run, always from before to, and each side's range
// is checked once per run. A run that fails its check moves nothing;
// earlier runs stay moved, and recorded. l, when non-nil, records every
// moved page so the move can be undone (ReturnAll).
func MoveFrames(from, to *AddressSpace, pages []Addr, l *AdoptLedger) error {
	if from == to {
		return fmt.Errorf("mem: MoveFrames within one address space")
	}
	for i, pb := range pages {
		if pb&Addr(pageMask) != 0 || (i > 0 && pb <= pages[i-1]) {
			return fmt.Errorf("mem: MoveFrames: page list not aligned and ascending at %#x", pb)
		}
	}
	var recs [walkChunkPages]adoptRecord
	for len(pages) > 0 {
		n := 1
		for n < len(pages) && n < walkChunkPages && pages[n] == pages[n-1]+PageSize {
			n++
		}
		if err := moveRun(from, to, pages[0], recs[:n]); err != nil {
			return err
		}
		if l != nil {
			l.record(recs[:n])
		}
		pages = pages[n:]
	}
	return nil
}

// moveRun moves the len(recs) consecutive pages starting at pb and fills
// recs with what each one carried.
func moveRun(from, to *AddressSpace, pb Addr, recs []adoptRecord) error {
	from.mu.Lock()
	defer from.mu.Unlock()
	to.mu.Lock()
	defer to.mu.Unlock()
	span := uint64(len(recs)) * PageSize
	if err := from.checkRangeLocked(pb, span); err != nil {
		return fmt.Errorf("mem: MoveFrames: donor: %w", err)
	}
	if err := to.checkRangeLocked(pb, span); err != nil {
		return fmt.Errorf("mem: MoveFrames: adopter: %w", err)
	}
	from.mutations++
	to.mutations++
	for i := range recs {
		f := from.detachLocked(pb)
		recs[i] = adoptRecord{from: from, to: to, pb: pb, present: f.Present(), softDirty: f.SoftDirty}
		to.adoptLocked(pb, f.frame)
		pb += PageSize
	}
	return nil
}

// adoptRecord is one moved page: where its frame came from, where it went,
// and the bookkeeping it carried when it left. It holds no reference to
// the frame, which belongs to the adopting space alone.
type adoptRecord struct {
	from, to           *AddressSpace
	pb                 Addr
	present, softDirty bool
}

// restore puts p back at the record's page on the donor side with the
// recorded bits. A page that was absent when donated becomes absent again,
// whatever p is; a page that was present but whose frame did not come back
// (p nil: the adopter's page has gone absent, so it reads as zeroes)
// restores as a zero frame — the one case that allocates.
func (r adoptRecord) restore(p *page) error {
	switch {
	case !r.present:
		p = nil
	case p == nil:
		p = &page{detached: true}
	}
	return r.from.RestorePage(r.pb, PageFrame{frame: p, SoftDirty: r.softDirty})
}

// AdoptLedger records every page frame an update moved from the old
// instance to the new one. It is safe for concurrent use (per-process
// transfers record in parallel). Exactly one of two things consumes the
// ledger: ReturnAll (rollback — frames move back with their original
// bits) or Forget (commit — the frames now simply belong to the new
// instance).
type AdoptLedger struct {
	mu   sync.Mutex
	recs []adoptRecord
}

func (l *AdoptLedger) record(recs []adoptRecord) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.recs = append(l.recs, recs...)
}

// Count returns the number of donated frames still held by the ledger.
func (l *AdoptLedger) Count() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.recs)
}

// ReturnAll moves every donated frame back into its original address space
// with its original soft-dirty bit, emptying the ledger. It is
// the same frame that goes back, so contents the new space did not modify
// (the transfer never writes into adopted pages before commit) come back
// bit-identical without a copy. The first error is returned but the sweep
// continues: rollback must return as many frames as it can.
func (l *AdoptLedger) ReturnAll() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	var first error
	for _, r := range l.recs {
		f, err := r.to.DonatePage(r.pb)
		if err == nil {
			err = r.restore(f.frame)
		}
		if err != nil && first == nil {
			first = err
		}
	}
	l.recs = nil
	return first
}

// Forget drops the ledger without moving anything: after a commit the
// donated frames simply belong to the new instance.
func (l *AdoptLedger) Forget() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.recs = nil
}
