package mem

import (
	"bytes"
	"slices"
	"sync"
	"testing"
)

// adoptPair maps the same one-region layout into two fresh address spaces
// and returns them, modeling the old and new instance sides of a
// frame move.
func adoptPair(t *testing.T) (old, new *AddressSpace) {
	t.Helper()
	old, new = NewAddressSpace(), NewAddressSpace()
	for _, as := range []*AddressSpace{old, new} {
		if err := as.Map(testBase, 4*PageSize, RegionHeap, "heap"); err != nil {
			t.Fatalf("Map: %v", err)
		}
	}
	return old, new
}

func TestDonateAdoptMovesFrame(t *testing.T) {
	old, new := adoptPair(t)
	payload := bytes.Repeat([]byte{0x5a}, PageSize)
	if err := old.WriteAt(testBase, payload); err != nil {
		t.Fatal(err)
	}
	if err := new.WriteAt(testBase, bytes.Repeat([]byte{0x11}, PageSize)); err != nil {
		t.Fatal(err)
	}
	f, err := old.DonatePage(testBase)
	if err != nil {
		t.Fatalf("DonatePage: %v", err)
	}
	if !f.Present() || !f.SoftDirty {
		t.Fatalf("donated frame = %+v, want present and soft-dirty", f)
	}
	// The old side reads demand-zero after donation.
	got := make([]byte, PageSize)
	if err := old.ReadAt(testBase, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, make([]byte, PageSize)) {
		t.Error("donated page still readable on the old side")
	}
	if err := new.AdoptPage(testBase, f); err != nil {
		t.Fatalf("AdoptPage: %v", err)
	}
	if err := new.ReadAt(testBase, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Error("adopted page does not carry the donated bytes")
	}
	// Adoption leaves the same dirty-tracking state a WriteAt of the same
	// bytes would have: soft-dirty set.
	if !new.PageSoftDirty(testBase) {
		t.Error("adopted page not soft-dirty")
	}
}

func TestDonateDemandZeroPage(t *testing.T) {
	old, new := adoptPair(t)
	f, err := old.DonatePage(testBase + PageSize)
	if err != nil {
		t.Fatalf("DonatePage: %v", err)
	}
	if f.Present() {
		t.Fatalf("untouched page donated a resident frame: %+v", f)
	}
	// Restoring the absent frame re-establishes absence, not a zero frame.
	if err := new.AdoptPage(testBase+PageSize, f); err != nil {
		t.Fatalf("AdoptPage: %v", err)
	}
	if err := old.RestorePage(testBase+PageSize, f); err != nil {
		t.Fatalf("RestorePage: %v", err)
	}
	if old.SoftDirtyCount() != 0 {
		t.Error("restored absent frame left dirty bookkeeping")
	}
}

func TestDonateRejectsUnalignedAndUnmapped(t *testing.T) {
	old, _ := adoptPair(t)
	if _, err := old.DonatePage(testBase + 8); err == nil {
		t.Error("DonatePage accepted an unaligned base")
	}
	if _, err := old.DonatePage(0x10000); err == nil {
		t.Error("DonatePage accepted an unmapped page")
	}
	if err := old.AdoptPage(0x10000, PageFrame{frame: &page{detached: true}}); err == nil {
		t.Error("AdoptPage accepted an unmapped page")
	}
	if err := old.RestorePage(testBase+8, PageFrame{}); err == nil {
		t.Error("RestorePage accepted an unaligned base")
	}
}

func TestLedgerReturnAllRestoresBitsAndBytes(t *testing.T) {
	old, new := adoptPair(t)
	payload := bytes.Repeat([]byte{0xc3}, PageSize)
	if err := old.WriteAt(testBase, payload); err != nil {
		t.Fatal(err)
	}
	// Give the page the exact pre-donation bookkeeping we must get back:
	// soft-dirty cleared.
	old.ClearSoftDirty()
	var l AdoptLedger
	if err := MoveFrames(old, new, []Addr{testBase}, &l); err != nil {
		t.Fatal(err)
	}
	if l.Count() != 1 {
		t.Fatalf("ledger count = %d", l.Count())
	}
	if err := l.ReturnAll(); err != nil {
		t.Fatalf("ReturnAll: %v", err)
	}
	if l.Count() != 0 {
		t.Errorf("ledger not emptied: %d", l.Count())
	}
	got := make([]byte, PageSize)
	if err := old.ReadAt(testBase, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Error("returned frame lost its bytes")
	}
	if old.PageSoftDirty(testBase) {
		t.Error("returned frame re-dirtied the page")
	}
	// The frame left the new side entirely.
	if err := new.ReadAt(testBase, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, make([]byte, PageSize)) {
		t.Error("returned frame still resident on the new side")
	}
}

func TestLedgerForgetDropsRecords(t *testing.T) {
	old, new := adoptPair(t)
	if err := old.WriteAt(testBase, []byte{1}); err != nil {
		t.Fatal(err)
	}
	var l AdoptLedger
	if err := MoveFrames(old, new, []Addr{testBase}, &l); err != nil {
		t.Fatal(err)
	}
	l.Forget()
	if l.Count() != 0 {
		t.Errorf("Forget left %d records", l.Count())
	}
	// ReturnAll after Forget is a no-op: the frames belong to the new side.
	if err := l.ReturnAll(); err != nil {
		t.Fatalf("ReturnAll after Forget: %v", err)
	}
	got := make([]byte, 1)
	if err := new.ReadAt(testBase, got); err != nil {
		t.Fatal(err)
	}
	if got[0] != 1 {
		t.Error("committed frame left the new side")
	}
}

// frameFixture builds an old side with a mix of page states over pages
// pages — resident and soft-dirty, resident and clean, and never
// touched — and a new side whose startup touched some of
// the same addresses, never-touched ones among them. It returns the page
// list and the old side's bytes.
func frameFixture(t testing.TB, pages int) (old, new *AddressSpace, list []Addr, want []byte) {
	t.Helper()
	old, new = NewAddressSpace(), NewAddressSpace()
	for _, as := range []*AddressSpace{old, new} {
		if err := as.Map(testBase, uint64(pages)*PageSize, RegionHeap, "heap"); err != nil {
			t.Fatalf("Map: %v", err)
		}
	}
	for pg := 0; pg < pages; pg++ {
		pb := testBase + Addr(pg)*PageSize
		list = append(list, pb)
		if pg%3 == 0 {
			if err := new.WriteAt(pb+8, []byte{0xEE}); err != nil {
				t.Fatal(err)
			}
		}
		if pg%5 == 4 {
			continue // demand-zero on the old side
		}
		if err := old.WriteAt(pb, bytes.Repeat([]byte{byte(1 + pg%250)}, PageSize)); err != nil {
			t.Fatal(err)
		}
	}
	old.ClearSoftDirty() // every resident page clean
	for pg := 0; pg < pages; pg += 2 {
		if pg%5 != 4 { // re-dirty half of them
			if err := old.WriteAt(testBase+Addr(pg)*PageSize+1, []byte{byte(1 + pg%250)}); err != nil {
				t.Fatal(err)
			}
		}
	}
	want = make([]byte, pages*PageSize)
	if err := old.ReadAt(testBase, want); err != nil {
		t.Fatal(err)
	}
	return old, new, list, want
}

func readAll(t testing.TB, as *AddressSpace, pages int) []byte {
	t.Helper()
	got := make([]byte, pages*PageSize)
	if err := as.ReadAt(testBase, got); err != nil {
		t.Fatal(err)
	}
	return got
}

// framesOf snapshots which frame is resident at each page of as.
func framesOf(as *AddressSpace) map[Addr]*page {
	as.mu.RLock()
	defer as.mu.RUnlock()
	out := make(map[Addr]*page, len(as.pages))
	for pb, p := range as.pages {
		out[pb] = p
	}
	return out
}

// TestFrameNeverResidentInTwoSpaces: a frame that moved by pointer belongs
// to exactly one address space at every step of its life — after the move
// and across a Clone of the adopter, and after ReturnAll, a store to one
// side is invisible on every other — and the soft-dirty
// bookkeeping the donor had comes back exactly. A reader runs against the
// old side the whole time (the race detector's view of the relinking).
func TestFrameNeverResidentInTwoSpaces(t *testing.T) {
	const pages = 2*walkChunkPages + 7 // several runs, the last one short

	// isolated stores one byte into every page of each space in turn and
	// checks that no other space sees it. It dirties and materializes
	// pages, so it runs last in each scenario.
	isolated := func(t *testing.T, spaces map[string]*AddressSpace) {
		t.Helper()
		before := make(map[string][]byte)
		for name, as := range spaces {
			before[name] = readAll(t, as, pages)
		}
		for name, as := range spaces {
			for pg := 0; pg < pages; pg++ {
				at := Addr(pg)*PageSize + 100
				if err := as.WriteAt(testBase+at, []byte{before[name][at] ^ 0xFF}); err != nil {
					t.Fatal(err)
				}
			}
			for other, oas := range spaces {
				if other != name && !bytes.Equal(readAll(t, oas, pages), before[other]) {
					t.Fatalf("a store to the %s side is visible on the %s side", name, other)
				}
			}
			if err := as.WriteAt(testBase, before[name]); err != nil {
				t.Fatal(err)
			}
		}
	}

	// moved builds the fixture, starts the reader and moves every page.
	type fixture struct {
		old, new *AddressSpace
		list     []Addr
		want     []byte
		dirty    []Addr
		frames   map[Addr]*page
		ledger   AdoptLedger
	}
	moved := func(t *testing.T) *fixture {
		t.Helper()
		fx := &fixture{}
		fx.old, fx.new, fx.list, fx.want = frameFixture(t, pages)
		fx.dirty = fx.old.SoftDirtyPages()
		fx.frames = framesOf(fx.old)
		// What CopyRange of the same bytes would have left: every page
		// resident on either side before the move resident and soft-dirty
		// after it (a frame the donor lacked as a zero page over the
		// adopter's); a page absent on both sides absent.
		var written []Addr
		adopter := framesOf(fx.new)
		for _, pb := range fx.list {
			if fx.frames[pb] != nil || adopter[pb] != nil {
				written = append(written, pb)
			}
		}

		stop := make(chan struct{})
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := make([]byte, 3*PageSize)
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				_ = fx.old.ReadAt(testBase+Addr(i%(pages-3))*PageSize, buf)
				_ = fx.old.WalkResident(testBase, pages*PageSize, func(Addr, []byte) {})
			}
		}()
		t.Cleanup(func() { close(stop); wg.Wait() })

		if err := MoveFrames(fx.old, fx.new, fx.list, &fx.ledger); err != nil {
			t.Fatalf("MoveFrames: %v", err)
		}
		if fx.ledger.Count() != pages {
			t.Fatalf("ledger holds %d records, want %d", fx.ledger.Count(), pages)
		}
		if n := fx.old.RSSBytes(); n != 0 {
			t.Fatalf("%d bytes still resident on the donor", n)
		}
		if got := readAll(t, fx.new, pages); !bytes.Equal(got, fx.want) {
			t.Fatal("adopter does not read the donated bytes")
		}
		if got := fx.new.SoftDirtyPages(); !slices.Equal(got, written) {
			t.Fatalf("adopter bits: %d dirty, want %d", len(got), len(written))
		}
		if n := fx.new.RSSBytes(); n != uint64(len(written))*PageSize {
			t.Fatalf("adopter holds %d resident pages, want %d", n/PageSize, len(written))
		}
		now := framesOf(fx.new)
		for pb, p := range fx.frames {
			if now[pb] != p {
				t.Fatalf("page %#x: the adopter holds a different frame (copied, not moved)", pb)
			}
		}
		return fx
	}
	sameBits := func(t *testing.T, fx *fixture) {
		t.Helper()
		if got := fx.old.SoftDirtyPages(); !slices.Equal(got, fx.dirty) {
			t.Fatalf("soft-dirty pages %x, want %x", got, fx.dirty)
		}
	}

	t.Run("move and clone", func(t *testing.T) {
		fx := moved(t)
		isolated(t, map[string]*AddressSpace{"old": fx.old, "new": fx.new})
		// The adopter forks: the child has frames of its own.
		isolated(t, map[string]*AddressSpace{"old": fx.old, "new": fx.new, "clone": fx.new.Clone()})
	})

	t.Run("ReturnAll", func(t *testing.T) {
		fx := moved(t)
		lost := fx.list[1] // the adopter's page goes absent before the return
		if _, err := fx.new.DonatePage(lost); err != nil {
			t.Fatal(err)
		}
		if err := fx.ledger.ReturnAll(); err != nil {
			t.Fatalf("ReturnAll: %v", err)
		}
		// The same frames went back — all but the lost one, which came back
		// as a zero frame — with the bits they left with.
		now := framesOf(fx.old)
		for pb, p := range fx.frames {
			if pb != lost && now[pb] != p {
				t.Fatalf("page %#x: a different frame came back", pb)
			}
		}
		if len(now) != len(fx.frames) {
			t.Fatalf("%d resident pages came back, want %d", len(now), len(fx.frames))
		}
		if n := fx.new.RSSBytes(); n != 0 {
			t.Fatalf("%d bytes still resident on the adopter after ReturnAll", n)
		}
		sameBits(t, fx)
		clear(fx.want[lost-testBase : lost-testBase+PageSize])
		if got := readAll(t, fx.old, pages); !bytes.Equal(got, fx.want) {
			t.Fatal("returned frames lost their bytes")
		}
		isolated(t, map[string]*AddressSpace{"old": fx.old, "new": fx.new})
	})
}

// TestFrameInstalledOnce: the PageFrame a donor handed out stays in the
// caller's hands after it is adopted; installing it a second time — into
// another space or back into the donor — is refused, so the aliasing the
// pointer would allow cannot happen.
func TestFrameInstalledOnce(t *testing.T) {
	old, new := adoptPair(t)
	if err := old.WriteAt(testBase, []byte{9}); err != nil {
		t.Fatal(err)
	}
	f, err := old.DonatePage(testBase)
	if err != nil {
		t.Fatal(err)
	}
	if err := new.AdoptPage(testBase, f); err != nil {
		t.Fatal(err)
	}
	if err := old.AdoptPage(testBase, f); err == nil {
		t.Error("a resident frame was adopted a second time")
	}
	if err := old.RestorePage(testBase, f); err == nil {
		t.Error("a resident frame was restored into the donor")
	}
	if err := new.AdoptPage(testBase+PageSize, f); err == nil {
		t.Error("a resident frame was adopted at a second address")
	}
	if len(old.pages) != 0 || len(new.pages) != 1 {
		t.Errorf("resident pages old/new = %d/%d, want 0/1", len(old.pages), len(new.pages))
	}
}

func TestMoveFramesRejectsBadLists(t *testing.T) {
	old, new := adoptPair(t)
	if err := old.WriteAt(testBase, bytes.Repeat([]byte{7}, 2*PageSize)); err != nil {
		t.Fatal(err)
	}
	var l AdoptLedger
	for name, list := range map[string][]Addr{
		"unaligned":  {testBase + 8},
		"descending": {testBase + PageSize, testBase},
		"repeated":   {testBase, testBase},
		"unmapped":   {testBase, testBase + 4*PageSize},
	} {
		if err := MoveFrames(old, new, list, &l); err == nil {
			t.Errorf("MoveFrames accepted an %s page list", name)
		}
	}
	if err := MoveFrames(old, old, []Addr{testBase}, &l); err == nil {
		t.Error("MoveFrames accepted one space as both sides")
	}
	// Only the run before the unmapped page moved, and it is on record.
	if l.Count() != 1 || len(old.pages) != 1 || len(new.pages) != 1 {
		t.Errorf("after the refusals: %d records, %d/%d resident, want 1, 1/1", l.Count(), len(old.pages), len(new.pages))
	}
}

// BenchmarkDonateAdopt is the frame handoff per page, there and back: the
// bulk path (MoveFrames with a ledger, then ReturnAll) and the one-page
// primitives (DonatePage + AdoptPage). A present frame moves with no copy
// and no allocation — B/op is the ledger's records only (32 B a page,
// amortized), 0 for the primitives.
func BenchmarkDonateAdopt(b *testing.B) {
	const pages = 1024
	setup := func(b *testing.B) (old, new *AddressSpace, list []Addr) {
		old, new = NewAddressSpace(), NewAddressSpace()
		for _, as := range []*AddressSpace{old, new} {
			if err := as.Map(testBase, pages*PageSize, RegionHeap, "heap"); err != nil {
				b.Fatal(err)
			}
		}
		if err := old.WriteAt(testBase, bytes.Repeat([]byte{0x5a}, pages*PageSize)); err != nil {
			b.Fatal(err)
		}
		for pg := 0; pg < pages; pg++ {
			list = append(list, testBase+Addr(pg)*PageSize)
		}
		// There and back once, untimed: both page maps reach their size.
		var l AdoptLedger
		if err := MoveFrames(old, new, list, &l); err != nil {
			b.Fatal(err)
		}
		if err := l.ReturnAll(); err != nil {
			b.Fatal(err)
		}
		return old, new, list
	}
	perPage := func(b *testing.B) {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/(2*pages), "ns/page")
	}
	b.Run("MoveFrames+ReturnAll", func(b *testing.B) {
		old, new, list := setup(b)
		var l AdoptLedger
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := MoveFrames(old, new, list, &l); err != nil {
				b.Fatal(err)
			}
			if err := l.ReturnAll(); err != nil {
				b.Fatal(err)
			}
		}
		perPage(b)
	})
	b.Run("DonatePage+AdoptPage", func(b *testing.B) {
		old, new, list := setup(b)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			from, to := old, new
			if i%2 == 1 {
				from, to = new, old
			}
			for _, pb := range list {
				f, err := from.DonatePage(pb)
				if err == nil {
					err = to.AdoptPage(pb, f)
				}
				if err != nil {
					b.Fatal(err)
				}
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/pages, "ns/page")
	})
}
