package mem

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"testing"
)

// refIndex is the index as it was before the ordered snapshot: a map,
// iterated and sorted for All, iterated and map-deduplicated for OnPages.
// It is the oracle of the differential test and the baseline of the
// benchmarks; production code has no copy of it.
type refIndex struct {
	byStart map[Addr]*Object
	gen     uint64
}

func newRefIndex() *refIndex { return &refIndex{byStart: make(map[Addr]*Object)} }

func (r *refIndex) insert(o *Object) bool {
	for _, other := range r.byStart {
		if other.Addr < o.End() && o.Addr < other.End() {
			return false
		}
	}
	r.byStart[o.Addr] = o
	r.gen++
	return true
}

func (r *refIndex) remove(addr Addr) (*Object, bool) {
	o, ok := r.byStart[addr]
	if ok {
		delete(r.byStart, addr)
		r.gen++
	}
	return o, ok
}

func (r *refIndex) all() []*Object {
	out := make([]*Object, 0, len(r.byStart))
	for _, o := range r.byStart {
		out = append(out, o)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Addr < out[j].Addr })
	return out
}

func (r *refIndex) onPages(pages []Addr) []*Object {
	seen := make(map[*Object]bool)
	var out []*Object
	for _, pb := range pages {
		for _, o := range r.byStart {
			if o.Addr < pb+PageSize && pb < o.End() && !seen[o] {
				seen[o] = true
				out = append(out, o)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Addr < out[j].Addr })
	return out
}

func (r *refIndex) containing(addr Addr) (*Object, bool) {
	for _, o := range r.byStart {
		if o.Contains(addr) {
			return o, true
		}
	}
	return nil, false
}

// clone mirrors ObjectIndex.Clone; like it, the copies are new structs, so
// a cloned pair is compared by value.
func (r *refIndex) clone() *refIndex {
	out := newRefIndex()
	out.gen = r.gen
	for a, o := range r.byStart {
		oc := *o
		out.byStart[a] = &oc
	}
	return out
}

// sameObjects compares two object lists by value and, when byIdentity is
// set, by pointer as well.
func sameObjects(got, want []*Object, byIdentity bool) error {
	if len(got) != len(want) {
		return fmt.Errorf("len %d, want %d", len(got), len(want))
	}
	for i := range got {
		if *got[i] != *want[i] || (byIdentity && got[i] != want[i]) {
			return fmt.Errorf("[%d] = %p %s, want %p %s", i, got[i], got[i], want[i], want[i])
		}
	}
	return nil
}

// TestObjectIndexDifferential drives the index and the reference through
// the same seeded random sequence — inserts (small, page-straddling and
// multi-page objects, overlaps that must be refused), removals, address
// reuse, remove-then-reinsert of the very same struct, clones that take
// over as the index under test, and reads at random points (so snapshots
// are rebuilt from deltas of every size, including dropped ones) — and
// compares every query after every step.
func TestObjectIndexDifferential(t *testing.T) {
	const span = 64 * PageSize
	for seed := int64(1); seed <= 8; seed++ {
		rnd := rand.New(rand.NewSource(seed))
		ix, ref := NewObjectIndex(), newRefIndex()
		cloned := false // after a clone the two sides hold distinct structs
		var removed, scratch []*Object
		var live []Addr
		pick := func() Addr { return testBase + Addr(rnd.Intn(span))&^7 }
		mirror := func(o *Object) *Object { // what the reference stores for o
			if !cloned {
				return o
			}
			c := *o
			return &c
		}
		for step := 0; step < 1500; step++ {
			switch op := rnd.Intn(100); {
			case op < 45: // insert; now and then at an address just freed
				o := &Object{Addr: pick(), Size: uint64(8 + rnd.Intn(200)), Site: uint64(step)}
				switch rnd.Intn(10) {
				case 0:
					o.Size = uint64(PageSize + rnd.Intn(3*PageSize)) // spans pages
				case 1:
					o.Addr = PageBase(o.Addr) + PageSize - 8 // straddles a boundary
				case 2:
					if len(removed) > 0 { // address reuse by a new struct
						o.Addr = removed[rnd.Intn(len(removed))].Addr
					}
				}
				ok := ref.insert(mirror(o))
				if err := ix.Insert(o); (err == nil) != ok {
					t.Fatalf("seed %d step %d: Insert(%s) = %v, reference accepted = %v", seed, step, o, err, ok)
				}
				if ok {
					live = append(live, o.Addr)
				}
			case op < 75: // remove
				if len(live) == 0 {
					continue
				}
				i := rnd.Intn(len(live))
				addr := live[i]
				live = slices.Delete(live, i, i+1)
				o, ok := ix.Remove(addr)
				ro, rok := ref.remove(addr)
				if ok != rok || !ok || *o != *ro {
					t.Fatalf("seed %d step %d: Remove(%#x) = %v %v, want %v %v", seed, step, addr, o, ok, ro, rok)
				}
				removed = append(removed, o)
			case op < 85: // reinsert a struct removed earlier, if its range is still free
				if len(removed) == 0 {
					continue
				}
				i := rnd.Intn(len(removed))
				o := removed[i]
				removed = slices.Delete(removed, i, i+1)
				ok := ref.insert(mirror(o))
				if err := ix.Insert(o); (err == nil) != ok {
					t.Fatalf("seed %d step %d: reinsert %s = %v, reference accepted = %v", seed, step, o, err, ok)
				}
				if ok {
					live = append(live, o.Addr)
				}
			case op < 88: // fork: carry on with the child
				ix, ref = ix.Clone(), ref.clone()
				cloned, removed = true, nil
			case op < 94: // no reader for a while: lets the delta outgrow its bound
				continue
			}
			if rnd.Intn(3) == 0 {
				continue // mutations pile up between reads
			}
			// Half the time the two queries that leave the snapshot alone go
			// first, and meet it as far behind as the mutations left it.
			pages := make([]Addr, rnd.Intn(12))
			for i := range pages {
				pages[i] = PageBase(pick()) // any order, repeats likely
			}
			if rnd.Intn(2) == 0 {
				if err := sameObjects(ix.OnPages(pages), ref.onPages(pages), !cloned); err != nil {
					t.Fatalf("seed %d step %d: OnPages(%#x) behind the snapshot: %v", seed, step, pages, err)
				}
				own, gen := ix.AppendAll(scratch[:0])
				if err := sameObjects(own, ref.all(), !cloned); err != nil || gen != ref.gen {
					t.Fatalf("seed %d step %d: AppendAll: %v (gen %d, want %d)", seed, step, err, gen, ref.gen)
				}
				scratch = own
			}
			if err := sameObjects(ix.All(), ref.all(), !cloned); err != nil {
				t.Fatalf("seed %d step %d: All: %v", seed, step, err)
			}
			if ix.Len() != len(ref.byStart) || ix.Gen() != ref.gen {
				t.Fatalf("seed %d step %d: Len/Gen = %d/%d, want %d/%d", seed, step, ix.Len(), ix.Gen(), len(ref.byStart), ref.gen)
			}
			if err := sameObjects(ix.OnPages(pages), ref.onPages(pages), !cloned); err != nil {
				t.Fatalf("seed %d step %d: OnPages(%#x): %v", seed, step, pages, err)
			}
			for k := 0; k < 8; k++ {
				addr := pick() + Addr(rnd.Intn(8))
				o, ok := ix.Containing(addr)
				ro, rok := ref.containing(addr)
				if ok != rok || (ok && *o != *ro) {
					t.Fatalf("seed %d step %d: Containing(%#x) = %v %v, want %v %v", seed, step, addr, o, ok, ro, rok)
				}
			}
		}
	}
}

// fillIndex inserts n 64-byte objects 128 bytes apart and returns them.
func fillIndex(ix *ObjectIndex, n int) []*Object {
	objs := make([]*Object, n)
	for i := range objs {
		objs[i] = &Object{Addr: testBase + Addr(i)*128, Size: 64}
		if err := ix.Insert(objs[i]); err != nil {
			panic(err)
		}
	}
	return objs
}

// TestSnapshotUnchangedByLaterMutations: the slice All returned keeps
// describing the moment it was taken.
func TestSnapshotUnchangedByLaterMutations(t *testing.T) {
	ix := NewObjectIndex()
	objs := fillIndex(ix, 500)
	before := ix.All()
	kept := slices.Clone(before)
	for i := 0; i < len(objs); i += 3 {
		ix.Remove(objs[i].Addr)
	}
	ix.Insert(&Object{Addr: testBase + 64, Size: 32}) // into a gap
	mid := ix.All()
	for i := 1; i < len(objs); i += 3 {
		ix.Remove(objs[i].Addr)
	}
	ix.Insert(objs[0]) // the same struct back at its address
	after := ix.All()
	if err := sameObjects(before, kept, true); err != nil {
		t.Errorf("first snapshot changed: %v", err)
	}
	if len(mid) != 500-167+1 || len(after) != len(mid)-167+1 {
		t.Errorf("snapshot sizes %d, %d, %d", len(before), len(mid), len(after))
	}
	if after[0] != objs[0] || mid[0].Addr != testBase+64 {
		t.Errorf("heads: mid %s, after %s", mid[0], after[0])
	}
	if &before[0] == &mid[0] || &mid[0] == &after[0] {
		t.Error("a changed index handed out the old backing array")
	}
}

// TestAllIsFreeOnUnchangedIndex: a second reader pays neither a sort nor
// an allocation, and sees the very same slice.
func TestAllIsFreeOnUnchangedIndex(t *testing.T) {
	ix := NewObjectIndex()
	fillIndex(ix, 2000)
	first := ix.All()
	if n := testing.AllocsPerRun(100, func() { ix.All() }); n != 0 {
		t.Errorf("All on an unchanged index allocates %v times", n)
	}
	if again := ix.All(); &again[0] != &first[0] || len(again) != len(first) {
		t.Error("All on an unchanged index built a new snapshot")
	}
	child := ix.Clone()
	if n := testing.AllocsPerRun(100, func() { child.All() }); n != 0 {
		t.Errorf("first All on a fresh clone allocates %v times", n)
	}
}

// TestRepeatedReaderLeavesSnapshotAlone: the two queries the warm-standby
// daemon makes every pass — all objects into its own buffer, the objects on
// a few dirty pages — neither build a snapshot nor, in steady state,
// allocate one's worth: on a large index each new snapshot is a large
// allocation, and a pass every few milliseconds would make them the heap's
// main churn. Past an eighth of the index the pending list is folded, so
// neither query's merge, nor the next All's, grows with the run.
func TestRepeatedReaderLeavesSnapshotAlone(t *testing.T) {
	const n = 8000
	ix := NewObjectIndex()
	objs := fillIndex(ix, n)
	snap := ix.All()
	churn := func(k int) {
		for i := 0; i < k; i++ {
			o := objs[(i*7919)%n]
			ix.Remove(o.Addr)
			ix.Insert(o)
		}
	}
	churn(20)
	buf, _ := ix.AppendAll(nil)
	pages := []Addr{PageBase(objs[n/2].Addr), PageBase(objs[10].Addr)}
	var onPages []*Object
	perCall := testing.AllocsPerRun(50, func() {
		churn(2)
		buf, _ = ix.AppendAll(buf[:0])
		onPages = ix.OnPages(pages)
	})
	if perCall > 2 { // OnPages' result, and its growth
		t.Errorf("AppendAll + OnPages behind the snapshot allocate %.0f times a call", perCall)
	}
	if cur := ix.snap; &cur[0] != &snap[0] || len(ix.touched) == 0 {
		t.Errorf("the snapshot was advanced (%d pending)", len(ix.touched))
	}
	if err := sameObjects(buf, objs, true); err != nil {
		t.Errorf("AppendAll: %v", err)
	}
	if want := 2 * PageSize / 128; len(onPages) != want || onPages[0] != objs[0] {
		t.Errorf("OnPages found %d objects from %v, want %d from %v", len(onPages), onPages[0], want, objs[0])
	}
	churn(n / 8)
	buf, gen := ix.AppendAll(buf[:0])
	if len(ix.touched) != 0 || &ix.snap[0] == &snap[0] || gen != ix.Gen() {
		t.Errorf("after %d more mutations the pending list still holds %d", n/4, len(ix.touched))
	}
	if err := sameObjects(buf, ix.All(), true); err != nil {
		t.Errorf("AppendAll after the fold: %v", err)
	}
	// Most of the index asked for: the snapshot is the cheaper way.
	churn(2)
	var all []Addr
	for pb := PageBase(testBase); pb < objs[n-1].End(); pb += PageSize {
		all = append(all, pb)
	}
	if got := ix.OnPages(all); len(got) != n || len(ix.touched) != 0 {
		t.Errorf("OnPages of every page: %d objects, %d still pending", len(got), len(ix.touched))
	}
}

// TestPendingDeltaStaysBounded: a long run of mutations nobody reads
// between — serving with no update in sight — must not accumulate.
func TestPendingDeltaStaysBounded(t *testing.T) {
	ix := NewObjectIndex()
	fillIndex(ix, 1000)
	ix.All()
	o := &Object{Addr: testBase + 64, Size: 32} // in the gap after the first object
	for i := 0; i < 1_000_000; i++ {
		if err := ix.Insert(o); err != nil {
			t.Fatal(err)
		}
		ix.Remove(o.Addr)
		if c := cap(ix.touched); c > 2*ix.Len()+2*minPending {
			t.Fatalf("after %d pairs the pending list holds %d slots for %d live objects", i, c, ix.Len())
		}
	}
	if ix.snap != nil || ix.touched != nil {
		t.Errorf("unread delta not dropped: snapshot %d, pending %d", len(ix.snap), len(ix.touched))
	}
	if got := ix.All(); len(got) != 1000 || ix.Gen() != 1000+2_000_000 {
		t.Errorf("after the run: %d objects, gen %d", len(got), ix.Gen())
	}
	// With a reader keeping up the pending list is merged and its buffer
	// reused: once it has grown to the working size, writes allocate nothing.
	pair := func() {
		ix.Insert(o)
		ix.Remove(o.Addr)
	}
	for i := 0; i < 150; i++ {
		pair()
	}
	ix.All()
	if n := testing.AllocsPerRun(100, pair); n != 0 {
		t.Errorf("Insert+Remove allocate %v times in steady state", n)
	}
	if len(ix.touched) == 0 || ix.snap == nil {
		t.Error("steady-state writes were not logged against the snapshot")
	}
}

// TestIndexConcurrentReadersAndWriters is for the race detector: readers
// walk snapshots and page queries while writers churn; every snapshot must
// be sorted and hold only objects that were live at some point.
func TestIndexConcurrentReadersAndWriters(t *testing.T) {
	ix := NewObjectIndex()
	fillIndex(ix, 300)
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			base := testBase + Addr(1+w)<<24
			for round := 0; round < 60; round++ {
				for k := 0; k < 50; k++ {
					if err := ix.Insert(&Object{Addr: base + Addr(k)*PageSize/2, Size: 100}); err != nil {
						t.Error(err)
						return
					}
				}
				for k := 0; k < 50; k++ {
					ix.Remove(base + Addr(k)*PageSize/2)
				}
			}
		}(w)
	}
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 400; i++ {
				all := ix.All()
				if !slices.IsSortedFunc(all, func(a, b *Object) int { return int(a.Addr) - int(b.Addr) }) {
					t.Error("unsorted snapshot")
					return
				}
				ix.OnPages([]Addr{testBase + 1<<24, testBase, testBase + 2<<24})
				if i%100 == 0 {
					ix.Clone()
				}
			}
		}()
	}
	wg.Wait()
}

// BenchmarkObjectIndexAll times All on a 25 000-object index k mutations
// after the previous snapshot, beside the reference (map walk + sort on
// every call, whatever k).
func BenchmarkObjectIndexAll(b *testing.B) {
	const n = 25_000
	for _, k := range []int{0, 100, n} {
		ix, ref := NewObjectIndex(), newRefIndex()
		objs := fillIndex(ix, n)
		for _, o := range objs {
			ref.byStart[o.Addr] = o
		}
		ix.All()
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				for j := 0; j < k/2; j++ { // k mutations: remove and re-insert k/2
					o := objs[(j*7919)%n]
					ix.Remove(o.Addr)
					ix.Insert(o)
				}
				b.StartTimer()
				if len(ix.All()) != n {
					b.Fatal("lost objects")
				}
			}
		})
		if k == 0 {
			b.Run("reference", func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					ref.all()
				}
			})
		}
	}
}

// BenchmarkObjectIndexInsertRemove is the write path: one Insert+Remove
// pair on a 25 000-object index, with nobody reading (the pending list is
// dropped and stays dropped) and with a reader taking a snapshot every
// 1000 pairs.
func BenchmarkObjectIndexInsertRemove(b *testing.B) {
	for _, readEvery := range []int{0, 1000} {
		b.Run(fmt.Sprintf("readEvery=%d", readEvery), func(b *testing.B) {
			ix := NewObjectIndex()
			fillIndex(ix, 25_000)
			ix.All()
			o := &Object{Addr: testBase + 64, Size: 32}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ix.Insert(o)
				ix.Remove(o.Addr)
				if readEvery > 0 && i%readEvery == 0 {
					ix.All()
				}
			}
		})
	}
}

// TestRemoveLeavesNoStalePointer: the page bucket's vacated tail slot must
// not keep the removed object reachable.
func TestRemoveLeavesNoStalePointer(t *testing.T) {
	ix := NewObjectIndex()
	objs := fillIndex(ix, 3) // one page
	bucket := ix.byPage[PageBase(testBase)]
	ix.Remove(objs[0].Addr)
	if got := ix.byPage[PageBase(testBase)]; len(got) != 2 || bucket[2] != nil {
		t.Errorf("bucket after Remove: len %d, old tail slot %v", len(got), bucket[2])
	}
}
