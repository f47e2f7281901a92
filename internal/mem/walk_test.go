package mem

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

// walkBytes rebuilds [addr, addr+size) from WalkResident's fragments,
// leaving the gaps between them zero, and checks the fragment contract on
// the way: ascending, disjoint, inside the range, never crossing a page.
func walkBytes(t *testing.T, as *AddressSpace, addr Addr, size uint64) ([]byte, int) {
	t.Helper()
	out := make([]byte, size)
	next, frags := addr, 0
	err := as.WalkResident(addr, size, func(base Addr, data []byte) {
		frags++
		if base < next || base+Addr(len(data)) > addr+Addr(size) || len(data) == 0 {
			t.Errorf("fragment [%#x,+%d) out of order or out of range [%#x,+%d)", base, len(data), addr, size)
		}
		if PageBase(base) != PageBase(base+Addr(len(data))-1) {
			t.Errorf("fragment [%#x,+%d) crosses a page", base, len(data))
		}
		copy(out[base-addr:], data)
		next = base + Addr(len(data))
	})
	if err != nil {
		t.Fatalf("WalkResident(%#x,%d): %v", addr, size, err)
	}
	return out, frags
}

// TestWalkResidentMatchesReadAt: over random sparse spaces and random
// (unaligned) ranges — longer than one lock chunk included — the fragments
// plus zero gaps are exactly what ReadAt returns, and untouched pages
// produce no fragment at all.
func TestWalkResidentMatchesReadAt(t *testing.T) {
	const pages = 3 * walkChunkPages
	for seed := int64(1); seed <= 5; seed++ {
		rnd := rand.New(rand.NewSource(seed))
		as := newDirtySpace(t, pages)
		resident := 0
		for pg := 0; pg < pages; pg++ {
			if rnd.Intn(3) == 0 {
				continue // demand-zero
			}
			resident++
			buf := make([]byte, 1+rnd.Intn(PageSize))
			rnd.Read(buf)
			off := rnd.Intn(PageSize - len(buf) + 1)
			if err := as.WriteAt(0x1000+Addr(pg)*PageSize+Addr(off), buf); err != nil {
				t.Fatal(err)
			}
		}
		if _, frags := walkBytes(t, as, 0x1000, pages*PageSize); frags != resident {
			t.Fatalf("seed %d: %d fragments over %d resident pages", seed, frags, resident)
		}
		for i := 0; i < 200; i++ {
			addr := 0x1000 + Addr(rnd.Intn(pages*PageSize-1))
			max := 0x1000 + pages*PageSize - int(addr)
			size := uint64(1 + rnd.Intn(max))
			if i%2 == 0 && size > 3*PageSize {
				size = uint64(1 + rnd.Intn(3*PageSize))
			}
			want := make([]byte, size)
			if err := as.ReadAt(addr, want); err != nil {
				t.Fatal(err)
			}
			if got, _ := walkBytes(t, as, addr, size); !bytes.Equal(got, want) {
				t.Fatalf("seed %d: walk of [%#x,+%d) differs from ReadAt", seed, addr, size)
			}
		}
	}
}

// TestWalkResidentUnmapped: a range that leaves the mapping fails like
// ReadAt does, and an empty range is a no-op.
func TestWalkResidentUnmapped(t *testing.T) {
	as := newDirtySpace(t, 4)
	writePage(t, as, 3, 1)
	nop := func(Addr, []byte) {}
	for _, r := range [][2]uint64{{0x0800, 0x1000}, {0x1000 + 3*PageSize, 2 * PageSize}, {0x9000_0000, 8}} {
		if err := as.WalkResident(Addr(r[0]), r[1], nop); !errors.Is(err, ErrUnmapped) {
			t.Errorf("walk [%#x,+%d): err = %v, want ErrUnmapped", r[0], r[1], err)
		}
	}
	if err := as.WalkResident(0x9000_0000, 0, nop); err != nil {
		t.Errorf("empty walk: %v", err)
	}
}

// TestWalkResidentConcurrentWriter runs walkers against a writer under the
// race detector: the in-place view is read under the lock the store takes,
// and every fragment shows a page either before or after a whole store
// (each store fills a page with one byte value).
func TestWalkResidentConcurrentWriter(t *testing.T) {
	const pages = 2 * walkChunkPages
	as := newDirtySpace(t, pages)
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
			for pg := 0; pg < pages; pg += 3 {
				_ = as.WriteAt(0x1000+Addr(pg)*PageSize, buf)
			}
		}
	}()
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				err := as.WalkResident(0x1000, pages*PageSize, func(base Addr, data []byte) {
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
	for i := 0; i < 50; i++ {
		if err := as.WalkResident(0x1000, pages*PageSize, func(Addr, []byte) {}); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
}

var walkSink uint64

// BenchmarkWalkResident is the read primitive by itself — the consumer
// touches one byte per fragment — in ns per page of the range: dense (every
// page resident) and sparse (one page in 16 resident, the rest cost a map
// probe each).
func BenchmarkWalkResident(b *testing.B) {
	const pages = 4096
	for _, every := range []int{1, 16} {
		as := NewAddressSpace()
		if err := as.Map(0x1000, pages*PageSize, RegionHeap, "heap"); err != nil {
			b.Fatal(err)
		}
		page := bytes.Repeat([]byte{0xA5}, PageSize)
		for pg := 0; pg < pages; pg += every {
			if err := as.WriteAt(0x1000+Addr(pg)*PageSize, page); err != nil {
				b.Fatal(err)
			}
		}
		b.Run(fmt.Sprintf("resident=1/%d", every), func(b *testing.B) {
			b.ReportAllocs()
			var sum uint64
			for i := 0; i < b.N; i++ {
				err := as.WalkResident(0x1000, pages*PageSize, func(_ Addr, data []byte) {
					sum += uint64(data[0]) + uint64(len(data))
				})
				if err != nil {
					b.Fatal(err)
				}
			}
			walkSink = sum
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/pages, "ns/page")
		})
	}
}
