package mem

import (
	"reflect"
	"sync"
	"testing"
)

// storedSince is a reader of page stamps with its own epoch, the way the
// incremental analysis keeps one per process.
type storedSince struct {
	t     *testing.T
	as    *AddressSpace
	epoch uint64
}

// expect asks what changed since the last call and checks it: the listed
// pages (by page number in newDirtySpace's region) and the reshaped flag.
func (r *storedSince) expect(what string, reshaped bool, pages ...int) {
	r.t.Helper()
	now, got, resh := r.as.StoredSince(r.epoch)
	var want []Addr
	for _, pg := range pages {
		want = append(want, 0x1000+Addr(pg)*PageSize)
	}
	if !reflect.DeepEqual(got, want) || resh != reshaped {
		r.t.Errorf("%s: StoredSince(%d) = %#x reshaped=%v, want %#x reshaped=%v", what, r.epoch, got, resh, want, reshaped)
	}
	if now != r.as.Mutations() {
		r.t.Errorf("%s: now = %d, Mutations = %d", what, now, r.as.Mutations())
	}
	r.epoch = now
}

// TestStoredSinceCoversEveryWritePath: every way bytes can change under a
// reader — a store, an in-place update, a page-to-page copy, a frame
// installed by adoption, restore or a bulk move — stamps its page, a copy or
// move of demand-zero onto demand-zero stamps nothing (the page stays
// absent and reads the zeroes it read before), and every
// way a page or a mapping can disappear or appear — donation, restore to
// absence, map, unmap — is reported as a reshape. Growing a region is not
// one: it makes room, and the first store into the grown part stamps its
// page like any other. Nothing else moves either (reads, the soft-dirty
// operations), and the query itself leaves the soft-dirty bits alone.
func TestStoredSinceCoversEveryWritePath(t *testing.T) {
	as, other := newDirtySpace(t, 16), newDirtySpace(t, 16)
	at := func(pg int) Addr { return 0x1000 + Addr(pg)*PageSize }
	check := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	r := &storedSince{t: t, as: as}
	r.expect("after Map", true)
	r.expect("nothing since", false)

	writePage(t, as, 2, 1)
	r.expect("WriteAt", false, 2)
	check(as.WriteAt(at(4)-2, []byte{1, 2, 3, 4}))
	r.expect("WriteAt across a boundary", false, 3, 4)

	check(as.UpdateResident(at(2), 3*PageSize, func(base Addr, data []byte) bool {
		if base != at(3) {
			return false
		}
		data[9] = 9
		return true
	}))
	r.expect("UpdateResident storing into one of three pages", false, 3)
	check(as.UpdateResident(at(2), 3*PageSize, func(Addr, []byte) bool { return false }))
	r.expect("UpdateResident storing nothing", false)

	writePage(t, other, 5, 5)
	check(CopyRange(as, at(5)+100, other, at(5)+100, PageSize)) // pages 5 and 6, the second from an absent source page
	r.expect("CopyRange (page 6 absent on both sides stays absent)", false, 5)
	check(CopyRange(as, at(4)+100, other, at(6)+100, 8))
	r.expect("CopyRange of an absent source page over a resident one", false, 4)

	f, err := other.DonatePage(at(5))
	check(err)
	check(as.AdoptPage(at(7), f))
	r.expect("AdoptPage", false, 7)
	check(as.AdoptPage(at(8), PageFrame{}))
	r.expect("AdoptPage of an absent frame onto an absent page", false)
	check(as.AdoptPage(at(7), PageFrame{}))
	r.expect("AdoptPage of an absent frame onto a resident page (a fresh zero page)", false, 7)

	f, err = as.DonatePage(at(2))
	check(err)
	r.expect("DonatePage", true)
	check(as.RestorePage(at(2), f))
	r.expect("RestorePage", false, 2)
	check(as.RestorePage(at(2), PageFrame{}))
	r.expect("RestorePage to absence", true)
	check(as.RestorePage(at(2), PageFrame{}))
	r.expect("RestorePage to absence of an absent page", false)

	// A bulk move in, then back out (rollback), then in again: as is the
	// adopter, the donor's view is ro.
	writePage(t, other, 9, 9)
	ro := &storedSince{t: t, as: other}
	ro.expect("donor so far", true, 9)
	var ledger AdoptLedger
	check(MoveFrames(other, as, []Addr{at(9), at(10)}, &ledger)) // page 10 absent on both sides
	r.expect("MoveFrames, adopter", false, 9)
	ro.expect("MoveFrames, donor", true)
	check(ledger.ReturnAll())
	r.expect("ReturnAll, adopter", true)
	ro.expect("ReturnAll, donor", false, 9)
	check(MoveFrames(other, as, []Addr{at(9)}, &ledger))
	r.expect("MoveFrames again", false, 9)
	ro.expect("MoveFrames again, donor", true)

	// Reads and the checkpoint's bit operations are not stores.
	var buf [64]byte
	check(as.ReadAt(at(3), buf[:]))
	check(as.WalkResident(at(0), 16*PageSize, func(Addr, []byte) {}))
	dirty := as.SoftDirtyPages()
	as.ReadAndClearSoftDirty()
	as.RestoreSoftDirty()
	r.expect("reads and soft-dirty operations", false)
	if got := as.SoftDirtyPages(); !reflect.DeepEqual(got, dirty) {
		t.Errorf("StoredSince disturbed the soft-dirty bits: %#x, were %#x", got, dirty)
	}

	// A fork inherits the stamps with the pages, and its own counter.
	writePage(t, as, 11, 1)
	child := &storedSince{t: t, as: as.Clone(), epoch: r.epoch}
	child.expect("in the clone", false, 11)
	r.expect("in the parent", false, 11)
	writePage(t, child.as, 12, 1)
	child.expect("clone written", false, 12)
	r.expect("parent not written", false)

	check(as.GrowRegion("heap", PageSize))
	r.expect("GrowRegion", false)
	writePage(t, as, 16, 1)
	r.expect("a store into the grown part", false, 16)
	check(as.Map(0x100000, PageSize, RegionMmap, "extra"))
	r.expect("Map", true)
	check(as.Unmap(0x100000))
	r.expect("Unmap", true)

	// Epoch 0 is "everything resident".
	r.epoch = 0
	r.expect("from epoch 0", true, 3, 4, 5, 7, 9, 11, 16)
}

// TestStoredSinceRacingStores: a store that races the query lands on one
// side of it — listed now, or stamped past now and listed next time. A
// reader that keeps the epoch it is handed misses nothing.
func TestStoredSinceRacingStores(t *testing.T) {
	const pages, rounds = 32, 400
	as := newDirtySpace(t, pages)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < rounds*4; i++ {
			writePage(t, as, i%pages, byte(i))
		}
	}()
	seen := make(map[Addr]int)
	var epoch uint64
	sweep := func() {
		now, list, _ := as.StoredSince(epoch)
		for _, pb := range list {
			seen[pb]++
		}
		epoch = now
	}
	for i := 0; i < rounds; i++ {
		sweep()
	}
	wg.Wait()
	sweep()
	if len(seen) != pages {
		t.Fatalf("%d of %d written pages were ever listed", len(seen), pages)
	}
	if _, list, _ := as.StoredSince(epoch); len(list) != 0 {
		t.Errorf("pages listed after the last store was swept: %#x", list)
	}
}
