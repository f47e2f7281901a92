package mem

import (
	"bytes"
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"
)

// stagedCopy is the copy path CopyRange replaced, kept as the oracle and
// the benchmark baseline: the whole range staged in a buffer between a
// locked ReadAt and a locked WriteAt.
func stagedCopy(dst *AddressSpace, dstAddr Addr, src *AddressSpace, srcAddr Addr, size uint64) error {
	buf := make([]byte, size)
	if err := src.ReadAt(srcAddr, buf); err != nil {
		return err
	}
	return dst.WriteAt(dstAddr, buf)
}

// Two adjacent regions, then a hole: ranges can span a region boundary and
// can run off the mapping. The destination sits at another base.
const (
	copyPagesA = 2*walkChunkPages + 5
	copyPagesB = 40
	copyPages  = copyPagesA + copyPagesB
	copySrc    = Addr(0x0010_0000)
	copyDst    = Addr(0x0900_0000)
)

func copySpace(t testing.TB, base Addr) *AddressSpace {
	t.Helper()
	as := NewAddressSpace()
	if err := as.Map(base, copyPagesA*PageSize, RegionHeap, "a"); err != nil {
		t.Fatal(err)
	}
	if err := as.Map(base+copyPagesA*PageSize, copyPagesB*PageSize, RegionMmap, "b"); err != nil {
		t.Fatal(err)
	}
	return as
}

// sprinkle leaves about two pages in three resident, each holding a random
// fragment, and — when midClear is set — clears the soft-dirty bits in the
// middle so the space ends with clean, re-dirtied and dirty pages.
func sprinkle(t testing.TB, rnd *rand.Rand, as *AddressSpace, base Addr, midClear bool) {
	t.Helper()
	for round := 0; round < 2; round++ {
		for pg := 0; pg < copyPages; pg++ {
			if rnd.Intn(3) == 0 {
				continue
			}
			buf := make([]byte, 1+rnd.Intn(PageSize))
			rnd.Read(buf)
			off := rnd.Intn(PageSize - len(buf) + 1)
			if err := as.WriteAt(base+Addr(pg)*PageSize+Addr(off), buf); err != nil {
				t.Fatal(err)
			}
		}
		if !midClear {
			return
		}
		if round == 0 {
			as.ClearSoftDirty()
		}
	}
}

// spaceState is everything a copy may change on the destination.
type spaceState struct {
	bytes    []byte
	resident []Addr
	dirty    []Addr
}

func stateOf(t testing.TB, as *AddressSpace, base Addr) spaceState {
	t.Helper()
	st := spaceState{bytes: make([]byte, copyPages*PageSize), dirty: as.SoftDirtyPages()}
	if err := as.ReadAt(base, st.bytes); err != nil {
		t.Fatal(err)
	}
	for pb := range framesOf(as) {
		st.resident = append(st.resident, pb)
	}
	slices.Sort(st.resident)
	return st
}

func (a spaceState) diff(b spaceState) string {
	switch {
	case !bytes.Equal(a.bytes, b.bytes):
		return "bytes"
	case !slices.Equal(a.resident, b.resident):
		return fmt.Sprintf("resident pages (%d vs %d)", len(a.resident), len(b.resident))
	case !slices.Equal(a.dirty, b.dirty):
		return fmt.Sprintf("soft-dirty pages (%d vs %d)", len(a.dirty), len(b.dirty))
	}
	return ""
}

// stagedDemandZero is the staged copy with the one rule CopyRange adds:
// a destination page that was absent, and whose fragment's source bytes all
// lie on absent source pages, stays absent (the staged copy materializes it
// as a dirty zero page; here that page is taken away again). It returns how
// many pages stayed absent.
func stagedDemandZero(t testing.TB, dst *AddressSpace, dstAddr Addr, src *AddressSpace, srcAddr Addr, size uint64) int {
	t.Helper()
	srcFrames, dstFrames := framesOf(src), framesOf(dst)
	if err := stagedCopy(dst, dstAddr, src, srcAddr, size); err != nil {
		t.Fatal(err)
	}
	kept := 0
	end := dstAddr + Addr(size)
	for pb := PageBase(dstAddr); pb < end; pb += PageSize {
		if dstFrames[pb] != nil {
			continue
		}
		lo, hi := max(pb, dstAddr), min(pb+PageSize, end)
		absent := true
		for spb := PageBase(lo - dstAddr + srcAddr); spb < hi-dstAddr+srcAddr; spb += PageSize {
			absent = absent && srcFrames[spb] == nil
		}
		if absent {
			if _, err := dst.DonatePage(pb); err != nil {
				t.Fatal(err)
			}
			kept++
		}
	}
	return kept
}

// TestCopyRangeMatchesStagedCopy: on seeded random sparse spaces the page-
// to-page copy leaves the destination exactly as ReadAt + WriteAt through a
// buffer does — bytes, resident page set, soft-dirty bits —
// except that a page absent on both sides stays absent and clean
// (stagedDemandZero), and advances its Mutations. The ranges start and end
// mid-page, pair addresses that differ mod PageSize as often as not, span
// the region boundary and more than one lock chunk, and lay absent source
// pages over resident destination pages (which they clear and dirty) and
// over absent ones (which stay absent). A range that runs off either
// mapping fails with ErrUnmapped and changes nothing.
func TestCopyRangeMatchesStagedCopy(t *testing.T) {
	const total = copyPages * PageSize
	kept := 0
	for seed := int64(1); seed <= 4; seed++ {
		rnd := rand.New(rand.NewSource(seed))
		src := copySpace(t, copySrc)
		sprinkle(t, rnd, src, copySrc, false)
		got := copySpace(t, copyDst)
		sprinkle(t, rnd, got, copyDst, true)
		want := got.Clone()

		for i := 0; i < 90; i++ {
			size := 1 + rnd.Intn(total)
			switch i % 3 {
			case 0:
				size = 1 + rnd.Intn(3*PageSize)
			case 1:
				size = 1 + rnd.Intn((walkChunkPages+3)*PageSize)
			}
			so, do := rnd.Intn(total-size+1), rnd.Intn(total-size+1)
			if i%2 == 0 {
				do = do&^pageMask | so&pageMask // same offset in the page
				if do+size > total {
					do -= PageSize
				}
				if do < 0 {
					continue
				}
			}
			sa, da := copySrc+Addr(so), copyDst+Addr(do)
			kept += stagedDemandZero(t, want, da, src, sa, uint64(size))
			before := got.Mutations()
			if err := CopyRange(got, da, src, sa, uint64(size)); err != nil {
				t.Fatalf("seed %d: CopyRange(%#x <- %#x, %d): %v", seed, da, sa, size, err)
			}
			if got.Mutations() == before {
				t.Fatalf("seed %d: CopyRange(%#x <- %#x, %d) did not advance Mutations", seed, da, sa, size)
			}
			if d := stateOf(t, got, copyDst).diff(stateOf(t, want, copyDst)); d != "" {
				t.Fatalf("seed %d: after CopyRange(%#x <- %#x, %d): %s differ from the staged copy", seed, da, sa, size, d)
			}
		}

		// Unmapped tails, on either side, short and longer than a chunk: the
		// staged copy fails before its WriteAt; so must this one.
		gotMut, srcState := got.Mutations(), stateOf(t, src, copySrc)
		for _, size := range []uint64{100, (walkChunkPages + 2) * PageSize} {
			for _, c := range [][2]Addr{
				{copySrc + total - Addr(size) + 8, copyDst},                          // source runs off
				{copySrc, copyDst + total - Addr(size) + 8},                          // destination runs off
				{copySrc + total - Addr(size) + 8, copyDst + total - Addr(size) + 8}, // both
			} {
				if err := CopyRange(got, c[1], src, c[0], size); !errors.Is(err, ErrUnmapped) {
					t.Fatalf("seed %d: CopyRange(%#x <- %#x, %d): err = %v, want ErrUnmapped", seed, c[1], c[0], size, err)
				}
			}
		}
		if d := stateOf(t, got, copyDst).diff(stateOf(t, want, copyDst)); d != "" || got.Mutations() != gotMut {
			t.Fatalf("seed %d: a refused copy changed the destination (%s)", seed, d)
		}
		if d := stateOf(t, src, copySrc).diff(srcState); d != "" {
			t.Fatalf("seed %d: copying changed the source (%s)", seed, d)
		}
	}
	if kept == 0 {
		t.Error("no copy laid an absent source page over an absent destination page")
	}
}

// TestDemandZeroStaysAbsent: a bulk move never materializes a page that
// is absent on both sides. Through CopyRange (misaligned, across three
// pages) and MoveFrames such a page stays absent: the resident set, the
// soft-dirty set and StoredSince do not move, and the range reads zeroes.
// Every other page is written as before: a fragment drawing on one
// resident and one absent source page materializes, in either order; an
// absent source over a resident destination page clears and dirties it;
// and ReturnAll after a move of absent frames restores the donor exactly.
func TestDemandZeroStaysAbsent(t *testing.T) {
	pg := func(n int) Addr { return copySrc + Addr(n)*PageSize }
	fill := func(t *testing.T, as *AddressSpace, n int, v byte) {
		t.Helper()
		if err := as.WriteAt(pg(n), bytes.Repeat([]byte{v}, PageSize)); err != nil {
			t.Fatal(err)
		}
	}
	// pair returns a source with page 0 and 2 resident and a destination
	// with page 4 resident, both clean, and the destination's epoch.
	pair := func(t *testing.T) (src, dst *AddressSpace, epoch uint64) {
		src, dst = copySpace(t, copySrc), copySpace(t, copySrc)
		fill(t, src, 0, 0x11)
		fill(t, src, 2, 0x22)
		fill(t, dst, 4, 0x44)
		src.ClearSoftDirty()
		dst.ClearSoftDirty()
		return src, dst, dst.Mutations()
	}
	stored := func(t *testing.T, as *AddressSpace, epoch uint64, want ...Addr) {
		t.Helper()
		_, got, reshaped := as.StoredSince(epoch)
		if !slices.Equal(got, want) || reshaped {
			t.Errorf("StoredSince = %#x reshaped=%v, want %#x reshaped=false", got, reshaped, want)
		}
	}
	readsAs := func(t *testing.T, as *AddressSpace, at Addr, want []byte) {
		t.Helper()
		got := make([]byte, len(want))
		if err := as.ReadAt(at, got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%#x reads other bytes than expected", at)
		}
	}

	for _, path := range []struct {
		name string
		move func(src, dst *AddressSpace) error
	}{
		{"CopyRange", func(src, dst *AddressSpace) error {
			return CopyRange(dst, pg(5)+100, src, pg(5)+50, 2*PageSize) // pages 5-7 from 5-7
		}},
		{"MoveFrames", func(src, dst *AddressSpace) error {
			return MoveFrames(src, dst, []Addr{pg(5), pg(6), pg(7)}, nil)
		}},
	} {
		t.Run("absent onto absent/"+path.name, func(t *testing.T) {
			src, dst, epoch := pair(t)
			srcBefore, dstBefore := stateOf(t, src, copySrc), stateOf(t, dst, copySrc)
			if err := path.move(src, dst); err != nil {
				t.Fatal(err)
			}
			if d := stateOf(t, dst, copySrc).diff(dstBefore); d != "" {
				t.Errorf("destination: %s changed", d)
			}
			if d := stateOf(t, src, copySrc).diff(srcBefore); d != "" {
				t.Errorf("source: %s changed", d)
			}
			stored(t, dst, epoch)
			readsAs(t, dst, pg(5), make([]byte, 3*PageSize))
		})
	}

	t.Run("straddling fragment materializes", func(t *testing.T) {
		src, dst, epoch := pair(t)
		// Page 5 draws on source pages 1 (absent) and 2, page 6 on 2 and 3
		// (absent).
		if err := CopyRange(dst, pg(5), src, pg(1)+PageSize/2, 2*PageSize); err != nil {
			t.Fatal(err)
		}
		want := append(make([]byte, PageSize/2), bytes.Repeat([]byte{0x22}, PageSize)...)
		readsAs(t, dst, pg(5), append(want, make([]byte, PageSize/2)...))
		if got := dst.SoftDirtyPages(); !slices.Equal(got, []Addr{pg(5), pg(6)}) {
			t.Errorf("soft-dirty pages %#x, want pages 5 and 6", got)
		}
		stored(t, dst, epoch, pg(5), pg(6))
	})

	for _, path := range []struct {
		name string
		move func(src, dst *AddressSpace) error
	}{
		{"CopyRange", func(src, dst *AddressSpace) error { return CopyRange(dst, pg(4), src, pg(3), PageSize) }},
		{"MoveFrames", func(src, dst *AddressSpace) error { return MoveFrames(src, dst, []Addr{pg(4)}, nil) }},
	} {
		t.Run("absent over resident/"+path.name, func(t *testing.T) {
			src, dst, epoch := pair(t)
			if err := path.move(src, dst); err != nil {
				t.Fatal(err)
			}
			readsAs(t, dst, pg(4), make([]byte, PageSize))
			if got := dst.SoftDirtyPages(); !slices.Equal(got, []Addr{pg(4)}) {
				t.Errorf("soft-dirty pages %#x, want page 4", got)
			}
			stored(t, dst, epoch, pg(4))
		})
	}

	t.Run("ReturnAll after absent frames", func(t *testing.T) {
		src, dst, _ := pair(t)
		src.ClearSoftDirty()
		fill(t, src, 2, 0x23) // page 0 clean, page 2 dirty again
		before, frames := stateOf(t, src, copySrc), framesOf(src)
		var l AdoptLedger
		// Absent frames onto an absent page (3) and a resident one (4).
		if err := MoveFrames(src, dst, []Addr{pg(0), pg(1), pg(2), pg(3), pg(4)}, &l); err != nil {
			t.Fatal(err)
		}
		if err := l.ReturnAll(); err != nil {
			t.Fatal(err)
		}
		if d := stateOf(t, src, copySrc).diff(before); d != "" {
			t.Errorf("donor: %s differ after ReturnAll", d)
		}
		if now := framesOf(src); !maps.Equal(now, frames) {
			t.Error("donor does not hold the frames it donated")
		}
	})
}

func TestCopyRangeEdges(t *testing.T) {
	src, dst := copySpace(t, copySrc), copySpace(t, copyDst)
	if err := CopyRange(dst, 0xdead_0000, src, 0xbeef_0000, 0); err != nil {
		t.Errorf("empty copy: %v", err)
	}
	if dst.Mutations() != copySpace(t, copyDst).Mutations() {
		t.Error("empty copy advanced Mutations")
	}
	if err := CopyRange(src, copySrc+PageSize, src, copySrc, 8); err == nil {
		t.Error("CopyRange accepted one space as both sides")
	}
}

// TestCopyRangeConcurrent runs copies against a writer on the source and
// readers on both sides under the race detector. Each store fills a whole
// source page with one value and the copies are page-aligned, so every
// destination page must show one value throughout: a page is copied under
// one hold of both locks.
func TestCopyRangeConcurrent(t *testing.T) {
	const span = (walkChunkPages + 9) * PageSize
	src, dst := copySpace(t, copySrc), copySpace(t, copyDst)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		buf := make([]byte, PageSize)
		for v := byte(1); ; v++ {
			select {
			case <-stop:
				return
			default:
			}
			for i := range buf {
				buf[i] = v
			}
			for pg := 0; pg < span/PageSize; pg += 2 {
				_ = src.WriteAt(copySrc+Addr(pg)*PageSize, buf)
			}
		}
	}()
	for _, side := range []struct {
		as   *AddressSpace
		base Addr
	}{{src, copySrc}, {dst, copyDst}} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				err := side.as.WalkResident(side.base, span, func(base Addr, data []byte) {
					for _, b := range data {
						if b != data[0] {
							t.Errorf("page %#x torn: %d vs %d", base, b, data[0])
							return
						}
					}
				})
				if err != nil {
					t.Error(err)
				}
			}
		}()
	}
	for i := 0; i < 60; i++ {
		if err := CopyRange(dst, copyDst, src, copySrc, span); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
}

// TestUpdateResident: the write-side walk visits what WalkResident visits;
// a fragment fn stored into leaves its page soft-dirty, the others keep
// their bits, absent pages stay absent, and Mutations advances only when
// something was stored.
func TestUpdateResident(t *testing.T) {
	rnd := rand.New(rand.NewSource(11))
	as := copySpace(t, copySrc)
	sprinkle(t, rnd, as, copySrc, true)
	as.ClearSoftDirty()
	before := stateOf(t, as, copySrc)
	addr, size := copySrc+PageSize/2, uint64((walkChunkPages+20)*PageSize+100)

	var read []Addr
	if err := as.WalkResident(addr, size, func(base Addr, _ []byte) { read = append(read, base) }); err != nil {
		t.Fatal(err)
	}
	mut := as.Mutations()
	var seen []Addr
	err := as.UpdateResident(addr, size, func(base Addr, _ []byte) bool { seen = append(seen, base); return false })
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(seen, read) {
		t.Fatalf("UpdateResident visited %d fragments, WalkResident %d", len(seen), len(read))
	}
	if d := stateOf(t, as, copySrc).diff(before); d != "" || as.Mutations() != mut {
		t.Fatalf("a walk that stored nothing changed the space (%s)", d)
	}

	// Flip the bytes of every other fragment.
	want := before
	want.bytes = slices.Clone(before.bytes)
	n := 0
	err = as.UpdateResident(addr, size, func(base Addr, data []byte) bool {
		if n++; n%2 == 0 {
			return false
		}
		for i := range data {
			data[i] ^= 0xFF
			want.bytes[int(base-copySrc)+i] ^= 0xFF
		}
		want.dirty = append(want.dirty, PageBase(base))
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	slices.Sort(want.dirty)
	if d := stateOf(t, as, copySrc).diff(want); d != "" {
		t.Fatalf("after storing through every other fragment: %s differ", d)
	}
	if as.Mutations() == mut {
		t.Error("stores through UpdateResident did not advance Mutations")
	}
	if err := as.UpdateResident(copySrc+copyPages*PageSize-8, 16, func(Addr, []byte) bool { return false }); !errors.Is(err, ErrUnmapped) {
		t.Errorf("walk off the mapping: err = %v, want ErrUnmapped", err)
	}
}

// BenchmarkCopyRange is the bulk copy of one fully resident range into a
// space where it is already resident (the steady state: no page
// allocation on either path), page to page against staged through a
// buffer, by size. The sparse case is a reservation's shape: an absent
// source range into a fresh destination, which CopyRange leaves absent and
// the staged copy materializes; it reports ns/page and allocs/page.
func BenchmarkCopyRange(b *testing.B) {
	paths := []struct {
		name string
		copy func(dst *AddressSpace, da Addr, src *AddressSpace, sa Addr, size uint64) error
	}{{"range", CopyRange}, {"staged", stagedCopy}}
	for _, size := range []int{4 << 10, 1 << 20, 16 << 20} {
		src, dst := NewAddressSpace(), NewAddressSpace()
		for _, as := range []*AddressSpace{src, dst} {
			if err := as.Map(copySrc, uint64(size), RegionHeap, "heap"); err != nil {
				b.Fatal(err)
			}
			if err := as.WriteAt(copySrc, bytes.Repeat([]byte{0xA5}, size)); err != nil {
				b.Fatal(err)
			}
		}
		for _, path := range paths {
			b.Run(fmt.Sprintf("bytes=%dK/%s", size>>10, path.name), func(b *testing.B) {
				b.SetBytes(int64(size))
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if err := path.copy(dst, copySrc, src, copySrc, uint64(size)); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
	const sparse = 16 << 20
	pages := float64(sparse / PageSize)
	empty := func(b *testing.B) *AddressSpace {
		as := NewAddressSpace()
		if err := as.Map(copySrc, sparse, RegionHeap, "heap"); err != nil {
			b.Fatal(err)
		}
		return as
	}
	src := empty(b)
	for _, path := range paths {
		b.Run(fmt.Sprintf("bytes=%dK/sparse/%s", sparse>>10, path.name), func(b *testing.B) {
			dsts := make([]*AddressSpace, b.N)
			for i := range dsts {
				dsts[i] = empty(b)
			}
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			b.ResetTimer()
			for i := range dsts {
				if err := path.copy(dsts[i], copySrc, src, copySrc, sparse); err != nil {
					b.Fatal(err)
				}
				dsts[i] = nil
			}
			b.StopTimer()
			runtime.ReadMemStats(&m1)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/pages, "ns/page")
			b.ReportMetric(float64(m1.Mallocs-m0.Mallocs)/float64(b.N)/pages, "allocs/page")
		})
	}
}
