package mem

import (
	"math/rand"
	"slices"
	"testing"
)

// walkStoredSince is the reference listing: every resident page stamped
// past epoch, found by walking the page map, as StoredSince did before it
// kept a journal.
func walkStoredSince(as *AddressSpace, epoch uint64) []Addr {
	as.mu.RLock()
	defer as.mu.RUnlock()
	var out []Addr
	for pb, p := range as.pages {
		if p.stamp > epoch {
			out = append(out, pb)
		}
	}
	slices.Sort(out)
	return out
}

// TestStoredSinceJournalListsOnlyStores: on a 10 000-page space, a listing
// from the last listing's generation after k stores returns exactly the k
// pages stored into, and reads them from the journal — which holds one
// entry per page however often it is stored into — not from the page map.
func TestStoredSinceJournalListsOnlyStores(t *testing.T) {
	const pages = 10_000
	as := newDirtySpace(t, pages)
	for pg := 0; pg < pages; pg++ {
		writePage(t, as, pg, 1)
	}
	epoch, all, _ := as.StoredSince(0)
	if len(all) != pages {
		t.Fatalf("first listing: %d pages, want %d", len(all), pages)
	}
	rng := rand.New(rand.NewSource(1))
	for round, k := range []int{0, 1, 7, 64} {
		want := map[Addr]bool{}
		for len(want) < k {
			pg := rng.Intn(pages - 1)
			want[0x1000+Addr(pg)*PageSize] = true
			writePage(t, as, pg, byte(round))
			writePage(t, as, pg, byte(round+1)) // a second store journals nothing more
		}
		if k > 0 { // a store across a boundary stamps both pages
			pb := 0x1000 + Addr(rng.Intn(pages-1))*PageSize
			if err := as.WriteAt(pb+PageSize-2, []byte{1, 2, 3, 4}); err != nil {
				t.Fatal(err)
			}
			want[pb], want[pb+PageSize] = true, true
		}
		if !as.journaling || as.listed != epoch || len(as.stored) != len(want) {
			t.Fatalf("round %d: journaling=%v listed=%d (epoch %d) holding %d entries, want %d",
				round, as.journaling, as.listed, epoch, len(as.stored), len(want))
		}
		var got []Addr
		epoch, got, _ = as.StoredSince(epoch)
		wantList := make([]Addr, 0, len(want))
		for pb := range want {
			wantList = append(wantList, pb)
		}
		slices.Sort(wantList)
		if !slices.Equal(got, wantList) {
			t.Errorf("round %d: listed %#x, want %#x", round, got, wantList)
		}
	}
}

// TestStoredSinceJournalMatchesWalk drives two spaces through every write
// path — stores, in-place updates, range copies, single-frame donation,
// adoption and restore, bulk moves and their rollback, forks, mapping
// changes — with several readers per space, each keeping its own epoch
// (one of them now and then starting over from 0 or from a Mutations
// reading). Every listing must equal the reference walk, whichever reader
// last listed, and a fork's first listing too.
func TestStoredSinceJournalMatchesWalk(t *testing.T) {
	const pages, steps, readers = 24, 3000, 3
	const end = 0x1000 + pages*PageSize
	rng := rand.New(rand.NewSource(7))
	spaces := []*AddressSpace{newDirtySpace(t, pages), newDirtySpace(t, pages)}
	epochs := make([][readers]uint64, len(spaces))
	at := func() Addr { return 0x1000 + Addr(rng.Intn(pages))*PageSize }
	var ledger AdoptLedger
	for step := 0; step < steps; step++ {
		i := rng.Intn(len(spaces))
		as, other := spaces[i], spaces[1-i]
		var err error
		switch op := rng.Intn(12); op {
		case 0, 1, 2:
			if a, n := at()+Addr(rng.Intn(PageSize)), 1+rng.Intn(2*PageSize); a+Addr(n) <= end {
				err = as.WriteAt(a, make([]byte, n))
			}
		case 3:
			if a, n := at(), uint64(1+rng.Intn(3))*PageSize; a+Addr(n) <= end {
				err = as.UpdateResident(a, n, func(Addr, []byte) bool { return rng.Intn(2) == 0 })
			}
		case 4:
			n := uint64(1 + rng.Intn(2*PageSize))
			if src, dst := at(), at(); src+Addr(n) <= end && dst+Addr(n) <= end {
				err = CopyRange(as, dst, other, src, n)
			}
		case 5:
			var f PageFrame
			if f, err = other.DonatePage(at()); err == nil {
				err = as.AdoptPage(at(), f)
			}
		case 6:
			var f PageFrame
			pb := at()
			if f, err = as.DonatePage(pb); err == nil && rng.Intn(2) == 0 {
				err = as.RestorePage(pb, f)
			}
		case 7:
			first := at()
			var list []Addr
			for pb := first; pb < first+3*PageSize && pb < end; pb += PageSize {
				list = append(list, pb)
			}
			err = MoveFrames(other, as, list, &ledger)
		case 8:
			err = ledger.ReturnAll()
		case 9:
			// A fork replaces the space: its first listing, whoever asks,
			// has no journal to read.
			spaces[i] = as.Clone()
		case 10:
			if as.Unmap(0x100000) != nil {
				err = as.Map(0x100000, PageSize, RegionMmap, "extra")
			}
		case 11:
			if rng.Intn(4) == 0 {
				epochs[i][0] = 0
			} else if rng.Intn(4) == 0 {
				epochs[i][0] = as.Mutations()
			}
		}
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		if rng.Intn(3) > 0 {
			continue
		}
		j, r := rng.Intn(len(spaces)), rng.Intn(readers)
		s, epoch := spaces[j], epochs[j][r]
		want, wantResh := walkStoredSince(s, epoch), s.reshaped > epoch
		now, got, resh := s.StoredSince(epoch)
		if !slices.Equal(got, want) || resh != wantResh {
			t.Fatalf("step %d: space %d reader %d: StoredSince(%d) = %#x reshaped=%v, walk says %#x reshaped=%v",
				step, j, r, epoch, got, resh, want, wantResh)
		}
		epochs[j][r] = now
	}
}

// TestStoredSinceJournalLapses: installs are journaled every time, so
// frames installed over and over at one page grow the journal past the
// resident page count; it lapses there, the next listing walks and is
// still exact, and the listing after that reads a fresh journal again.
func TestStoredSinceJournalLapses(t *testing.T) {
	const pages = 4
	as, donor := newDirtySpace(t, pages), newDirtySpace(t, 64)
	for pg := 0; pg < pages; pg++ {
		writePage(t, as, pg, 1)
	}
	epoch, _, _ := as.StoredSince(0)
	for i := 0; i < 64; i++ {
		writePage(t, donor, i, byte(i))
		f, err := donor.DonatePage(0x1000 + Addr(i)*PageSize)
		if err != nil {
			t.Fatal(err)
		}
		if err := as.AdoptPage(0x1000, f); err != nil {
			t.Fatal(err)
		}
		if as.journaling != (i < pages) {
			t.Fatalf("after %d installs: journaling=%v with %d resident pages", i+1, as.journaling, pages)
		}
		if len(as.stored) > pages {
			t.Fatalf("after %d installs: %d journal entries for %d resident pages", i+1, len(as.stored), pages)
		}
	}
	now, got, _ := as.StoredSince(epoch)
	if !slices.Equal(got, []Addr{0x1000}) {
		t.Errorf("listing after the lapse = %#x, want [0x1000]", got)
	}
	if !as.journaling || as.listed != now {
		t.Fatalf("a listing did not restart the journal: journaling=%v listed=%d now=%d", as.journaling, as.listed, now)
	}
	writePage(t, as, 2, 9)
	if _, got, _ := as.StoredSince(now); !slices.Equal(got, []Addr{0x1000 + 2*PageSize}) || len(as.stored) != 0 {
		t.Errorf("listing from the restarted journal = %#x, want [%#x]", got, 0x1000+2*PageSize)
	}
}

// TestSoftDirtyPagesOfMatchesFiltered: the dirty pages of a set of objects
// are SoftDirtyPages filtered to the pages the objects overlap — on both
// paths, a probe per spanned page and the walk taken when the objects span
// more pages than are resident — for objects in any order, sharing pages,
// spanning many pages, ending exactly on a boundary, or of size zero.
func TestSoftDirtyPagesOfMatchesFiltered(t *testing.T) {
	const pages = 256
	rng := rand.New(rand.NewSource(3))
	walked := map[bool]int{}
	for round := 0; round < 50; round++ {
		as := newDirtySpace(t, pages)
		for pg := 0; pg < pages; pg++ {
			if rng.Intn(3) == 0 {
				writePage(t, as, pg, 1)
			}
		}
		as.ClearSoftDirty()
		for pg := 0; pg < pages; pg++ {
			if rng.Intn(4) == 0 {
				writePage(t, as, pg, 2)
			}
		}
		var objs []*Object
		for a := Addr(0x1000); ; {
			a += Addr(rng.Intn(3 * PageSize))
			size := uint64(rng.Intn(200))
			switch rng.Intn(8) {
			case 0:
				size = 0
			case 1:
				a, size = PageBase(a+PageSize), uint64(1+rng.Intn(40))*PageSize // long, ending on a boundary
			case 2:
				a = PageBase(a + PageSize) // starting on a boundary
			}
			if a+Addr(size) > 0x1000+pages*PageSize {
				break
			}
			objs = append(objs, &Object{Addr: a, Size: size})
			a += Addr(size)
		}
		dirty := as.SoftDirtyPages()
		for _, sel := range [][]*Object{objs, objs[:len(objs)/8], nil} {
			sel = slices.Clone(sel)
			rng.Shuffle(len(sel), func(i, j int) { sel[i], sel[j] = sel[j], sel[i] })
			var want []Addr
			for _, pb := range dirty {
				if slices.ContainsFunc(sel, func(o *Object) bool { return pb < o.End() && pb+PageSize > o.Addr }) {
					want = append(want, pb)
				}
			}
			var span uint64
			for _, o := range sel {
				for pb := PageBase(o.Addr); pb < o.End(); pb += PageSize {
					span++
				}
			}
			walked[span > uint64(len(as.pages))]++
			if got := as.SoftDirtyPagesOf(sel); !slices.Equal(got, want) {
				t.Fatalf("round %d, %d objects: SoftDirtyPagesOf = %#x, want %#x", round, len(sel), got, want)
			}
		}
	}
	if walked[true] == 0 || walked[false] == 0 {
		t.Errorf("paths taken: %d walks, %d probe runs; want both", walked[true], walked[false])
	}
}
