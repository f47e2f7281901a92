package mem

import "testing"

// TestMutationsSemantics pins the write-generation contract the pipelined
// update engine validates speculative analyses against: stores and mapping
// changes advance it, reads and soft-dirty bit operations do not.
func TestMutationsSemantics(t *testing.T) {
	as := NewAddressSpace()
	base := as.Mutations()
	if err := as.Map(0x1000, 2*PageSize, RegionHeap, "h"); err != nil {
		t.Fatal(err)
	}
	if as.Mutations() == base {
		t.Error("Map did not advance Mutations")
	}

	m := as.Mutations()
	if err := as.WriteWord(0x1008, 0xdead); err != nil {
		t.Fatal(err)
	}
	if as.Mutations() == m {
		t.Error("WriteWord did not advance Mutations")
	}

	// Reads and soft-dirty bit operations must not advance the counter:
	// they change nothing a concurrent speculative analysis read.
	m = as.Mutations()
	if _, err := as.ReadWord(0x1008); err != nil {
		t.Fatal(err)
	}
	var buf [16]byte
	if err := as.ReadAt(0x1000, buf[:]); err != nil {
		t.Fatal(err)
	}
	as.SoftDirtyPages()
	as.SoftDirtyCount()
	as.ReadAndClearSoftDirty()
	as.ClearSoftDirty()
	if got := as.Mutations(); got != m {
		t.Errorf("reads/bit ops moved Mutations %d -> %d", m, got)
	}

	// A failed store (unmapped) must not advance it either.
	if err := as.WriteWord(0x9000_0000, 1); err == nil {
		t.Fatal("store to unmapped address succeeded")
	}
	if got := as.Mutations(); got != m {
		t.Errorf("failed store moved Mutations %d -> %d", m, got)
	}

	// Fork carries the counter so parent and child readings stay
	// comparable to pre-fork captures.
	child := as.Clone()
	if child.Mutations() != as.Mutations() {
		t.Errorf("clone mutations %d != parent %d", child.Mutations(), as.Mutations())
	}
}

// TestIndexGen pins the allocation-delta half of the validation.
func TestIndexGen(t *testing.T) {
	ix := NewObjectIndex()
	g0 := ix.Gen()
	o := &Object{Addr: 0x2000, Size: 64, Kind: ObjHeap}
	if err := ix.Insert(o); err != nil {
		t.Fatal(err)
	}
	g1 := ix.Gen()
	if g1 == g0 {
		t.Error("Insert did not advance Gen")
	}
	ix.All()
	ix.Containing(0x2010)
	ix.OnPages([]Addr{0x2000})
	if ix.Gen() != g1 {
		t.Error("queries advanced Gen")
	}
	if _, ok := ix.Remove(0x2000); !ok {
		t.Fatal("Remove failed")
	}
	if ix.Gen() == g1 {
		t.Error("Remove did not advance Gen")
	}
	// Failed inserts (duplicate/overlap) leave the generation alone.
	if err := ix.Insert(o); err != nil {
		t.Fatal(err)
	}
	g2 := ix.Gen()
	if err := ix.Insert(o); err == nil {
		t.Fatal("duplicate insert succeeded")
	}
	if ix.Gen() != g2 {
		t.Error("failed insert advanced Gen")
	}
	if ix.Clone().Gen() != g2 {
		t.Error("clone did not carry Gen")
	}
}
