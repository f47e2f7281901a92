package mem

import (
	"reflect"
	"sync"
	"testing"
)

func newDirtySpace(t *testing.T, pages int) *AddressSpace {
	t.Helper()
	as := NewAddressSpace()
	if err := as.Map(0x1000, uint64(pages)*PageSize, RegionHeap, "heap"); err != nil {
		t.Fatal(err)
	}
	return as
}

func writePage(t *testing.T, as *AddressSpace, page int, v byte) {
	t.Helper()
	if err := as.WriteAt(0x1000+Addr(page)*PageSize, []byte{v}); err != nil {
		t.Fatal(err)
	}
}

// TestReadAndClearSoftDirtySemantics pins the clearing scan: the call
// returns exactly the dirty pages in ascending order and clears the bits;
// a page written again is dirty again.
func TestReadAndClearSoftDirtySemantics(t *testing.T) {
	as := newDirtySpace(t, 8)
	for _, pg := range []int{5, 1, 3} {
		writePage(t, as, pg, 0xAB)
	}
	want := []Addr{0x1000 + 1*PageSize, 0x1000 + 3*PageSize, 0x1000 + 5*PageSize}
	if got := as.ReadAndClearSoftDirty(); !reflect.DeepEqual(got, want) {
		t.Fatalf("first read-and-clear = %v, want %v", got, want)
	}
	if got := as.SoftDirtyPages(); len(got) != 0 {
		t.Fatalf("bits survived the clear: %v", got)
	}
	if got := as.ReadAndClearSoftDirty(); len(got) != 0 {
		t.Fatalf("second read-and-clear not empty: %v", got)
	}
	writePage(t, as, 3, 0xCD)
	if got := as.SoftDirtyPages(); !reflect.DeepEqual(got, []Addr{0x1000 + 3*PageSize}) {
		t.Fatalf("re-dirty = %v", got)
	}
}

// TestSoftDirtyCounts pins the count-only query against the materializing
// one through writes, reads, a clearing scan and the startup clear.
func TestSoftDirtyCounts(t *testing.T) {
	as := newDirtySpace(t, 8)
	if n := as.SoftDirtyCount(); n != 0 {
		t.Fatalf("fresh space: dirty=%d, want 0", n)
	}
	for _, pg := range []int{0, 2, 5} {
		writePage(t, as, pg, 0xAB)
	}
	as.SoftDirtyPages() // reading clears nothing
	if got := as.SoftDirtyCount(); got != 3 || got != len(as.SoftDirtyPages()) {
		t.Fatalf("dirty count = %d, want 3", got)
	}
	as.ReadAndClearSoftDirty()
	writePage(t, as, 2, 0xCD)
	if got := as.SoftDirtyCount(); got != 1 || got != len(as.SoftDirtyPages()) {
		t.Fatalf("after clear and re-dirty: dirty=%d, want 1", got)
	}
	as.ClearSoftDirty()
	if n := as.SoftDirtyCount(); n != 0 {
		t.Fatalf("after startup clear: dirty=%d, want 0", n)
	}
}

// TestSoftDirtyAcrossFork pins the fork contract dirty tracking depends
// on: Clone carries the soft-dirty bits (Linux preserves them across
// fork), and the images diverge independently after.
func TestSoftDirtyAcrossFork(t *testing.T) {
	as := newDirtySpace(t, 8)
	writePage(t, as, 0, 1)
	writePage(t, as, 2, 1)

	child := as.Clone()
	if got, want := child.SoftDirtyPages(), as.SoftDirtyPages(); !reflect.DeepEqual(got, want) || len(got) != 2 {
		t.Fatalf("child dirty = %v, parent %v", got, want)
	}

	// Post-fork writes and clears do not leak across the images.
	writePage(t, as, 6, 1)
	child.ReadAndClearSoftDirty()
	writePage(t, child, 4, 1)
	if got := child.SoftDirtyPages(); !reflect.DeepEqual(got, []Addr{0x1000 + 4*PageSize}) {
		t.Fatalf("child dirty after its own clear and write: %v", got)
	}
	if got := as.SoftDirtyPages(); len(got) != 3 { // pages 0, 2 and 6
		t.Fatalf("parent dirty = %v, want pages 0, 2 and 6", got)
	}
}

// TestReadAndClearSoftDirtyAtomicity races concurrent writers against a
// read-and-clear loop and checks no write is ever lost: every page a
// writer touched is in some scan's result. Run under -race this also proves the
// primitive synchronizes with stores.
func TestReadAndClearSoftDirtyAtomicity(t *testing.T) {
	const (
		pages   = 64
		writers = 4
		rounds  = 2000
	)
	as := newDirtySpace(t, pages)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				pg := (w*rounds + i*7) % pages
				if err := as.WriteAt(0x1000+Addr(pg)*PageSize, []byte{byte(i)}); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	collected := make(map[Addr]bool)
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	snapping := true
	for snapping {
		select {
		case <-done:
			snapping = false
		default:
		}
		for _, pb := range as.ReadAndClearSoftDirty() {
			collected[pb] = true
		}
	}
	// One final sweep after all writers stopped.
	for _, pb := range as.ReadAndClearSoftDirty() {
		collected[pb] = true
	}
	for pg := 0; pg < pages; pg++ {
		pb := Addr(0x1000 + pg*PageSize)
		if !collected[pb] {
			t.Errorf("page %d written but never observed dirty", pg)
		}
	}
}
