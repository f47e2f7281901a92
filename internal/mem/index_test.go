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

func (r *refIndex) overlapping(start, end Addr) (*Object, bool) {
	for _, o := range r.byStart {
		if o.Addr < end && start < o.End() {
			return o, true
		}
	}
	return nil, false
}

// Index scripts place small objects in a window of indexWindow bytes and
// large ones — 1 to 4 096 pages — in the indexFar bytes after it.
const (
	indexWindow  = 64 * PageSize
	indexFar     = 8192 * PageSize
	reservePages = 3800
)

// runIndexScript drives the index and the reference through one script —
// inserts (small, page-straddling and multi-page objects, objects of up to
// 4 096 pages, a reservation-sized one with small objects abutting both of
// its ends, overlaps that must be refused), removals, address reuse,
// remove-then-reinsert of the very same struct, clones that take over as
// the index under test, and reads at random points (so snapshots are
// rebuilt from deltas of every size, including dropped ones) — and
// compares every query after every step. Every query is also aimed at the
// first, last and interior pages of live objects and just past their ends.
// intn draws the script — a seeded generator, or a fuzz input — and more
// says whether to take another step.
func runIndexScript(t *testing.T, intn func(n int) int, more func(step int) bool) {
	t.Helper()
	ix, ref := NewObjectIndex(), newRefIndex()
	cloned := false // after a clone the two sides hold distinct structs
	var removed, scratch []*Object
	var live []Addr
	pick := func() Addr { return testBase + Addr(intn(indexWindow))&^7 }
	mirror := func(o *Object) *Object { // what the reference stores for o
		if !cloned {
			return o
		}
		c := *o
		return &c
	}
	insert := func(step int, o *Object) {
		ok := ref.insert(mirror(o))
		if err := ix.Insert(o); (err == nil) != ok {
			t.Fatalf("step %d: Insert(%s) = %v, reference accepted = %v", step, o, err, ok)
		}
		if ok {
			live = append(live, o.Addr)
		}
	}
	// probe returns an address at or near a live object's edges or inside
	// it, or anywhere in the small-object window.
	probe := func() Addr {
		if len(live) == 0 || intn(3) == 0 {
			return pick() + Addr(intn(8))
		}
		o := ref.byStart[live[intn(len(live))]]
		switch intn(5) {
		case 0:
			return o.Addr
		case 1:
			return o.End() - 1
		case 2:
			return o.End()
		case 3:
			return o.Addr - 1
		}
		return o.Addr + Addr(intn(int(o.Size)))
	}
	for step := 0; more(step); step++ {
		switch op := intn(100); {
		case op < 45: // insert; now and then at an address just freed
			o := &Object{Addr: pick(), Size: uint64(8 + intn(200)), Site: uint64(step)}
			switch intn(12) {
			case 0:
				o.Size = uint64(PageSize + intn(3*PageSize)) // spans pages
			case 1:
				o.Addr = PageBase(o.Addr) + PageSize - 8 // straddles a boundary
			case 2:
				if len(removed) > 0 { // address reuse by a new struct
					o.Addr = removed[intn(len(removed))].Addr
				}
			case 3, 4: // 1 to 4 096 pages, mostly large
				o.Addr = testBase + indexWindow + Addr(intn(indexFar))&^7
				o.Size = uint64(8 + intn(4096*PageSize))
			case 5: // a reservation with neighbours abutting both ends
				o.Addr = testBase + indexWindow + Addr(intn(indexFar))&^7
				o.Size = reservePages*PageSize - uint64(intn(PageSize))&^7
				insert(step, o)
				insert(step, &Object{Addr: o.Addr - 48, Size: 48, Site: uint64(step)})
				o = &Object{Addr: o.End(), Size: uint64(8 + intn(200)), Site: uint64(step)}
			}
			insert(step, o)
		case op < 75: // remove
			if len(live) == 0 {
				continue
			}
			i := intn(len(live))
			addr := live[i]
			live = slices.Delete(live, i, i+1)
			o, ok := ix.Remove(addr)
			ro, rok := ref.remove(addr)
			if ok != rok || !ok || *o != *ro {
				t.Fatalf("step %d: Remove(%#x) = %v %v, want %v %v", step, addr, o, ok, ro, rok)
			}
			removed = append(removed, o)
		case op < 85: // reinsert a struct removed earlier, if its range is still free
			if len(removed) == 0 {
				continue
			}
			i := intn(len(removed))
			o := removed[i]
			removed = slices.Delete(removed, i, i+1)
			insert(step, o)
		case op < 88: // fork: carry on with the child
			ix, ref = ix.Clone(), ref.clone()
			cloned, removed = true, nil
		case op < 94: // no reader for a while: lets the delta outgrow its bound
			continue
		}
		if intn(3) == 0 {
			continue // mutations pile up between reads
		}
		// Half the time the two queries that leave the snapshot alone go
		// first, and meet it as far behind as the mutations left it.
		pages := make([]Addr, intn(12))
		for i := range pages {
			pages[i] = PageBase(probe()) // any order, repeats likely
		}
		if intn(2) == 0 {
			if err := sameObjects(ix.OnPages(pages), ref.onPages(pages), !cloned); err != nil {
				t.Fatalf("step %d: OnPages(%#x) behind the snapshot: %v", step, pages, err)
			}
			own, gen := ix.AppendAll(scratch[:0])
			if err := sameObjects(own, ref.all(), !cloned); err != nil || gen != ref.gen {
				t.Fatalf("step %d: AppendAll: %v (gen %d, want %d)", step, err, gen, ref.gen)
			}
			scratch = own
		}
		if err := sameObjects(ix.All(), ref.all(), !cloned); err != nil {
			t.Fatalf("step %d: All: %v", step, err)
		}
		if ix.Len() != len(ref.byStart) || ix.Gen() != ref.gen {
			t.Fatalf("step %d: Len/Gen = %d/%d, want %d/%d", step, ix.Len(), ix.Gen(), len(ref.byStart), ref.gen)
		}
		if err := sameObjects(ix.OnPages(pages), ref.onPages(pages), !cloned); err != nil {
			t.Fatalf("step %d: OnPages(%#x): %v", step, pages, err)
		}
		for k := 0; k < 8; k++ {
			addr := probe()
			o, ok := ix.Containing(addr)
			ro, rok := ref.containing(addr)
			if ok != rok || (ok && *o != *ro) {
				t.Fatalf("step %d: Containing(%#x) = %v %v, want %v %v", step, addr, o, ok, ro, rok)
			}
			end := addr + Addr(1+intn(64))
			switch intn(3) {
			case 0:
				end = addr + Addr(1+intn(4*PageSize))
			case 1:
				end = addr + Addr(1+intn(5000*PageSize))
			}
			o, ok = ix.OverlappingRange(addr, end)
			_, rok = ref.overlapping(addr, end)
			if ok != rok || (ok && (o.Addr >= end || addr >= o.End() || *ref.byStart[o.Addr] != *o)) {
				t.Fatalf("step %d: OverlappingRange(%#x, %#x) = %v %v, reference overlaps = %v", step, addr, end, o, ok, rok)
			}
		}
	}
}

// TestObjectIndexDifferential runs seeded random index scripts against the
// reference (see runIndexScript).
func TestObjectIndexDifferential(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			runIndexScript(t, rand.New(rand.NewSource(seed)).Intn, func(step int) bool { return step < 1500 })
		})
	}
}

// FuzzObjectIndex runs index scripts drawn from the fuzz input against the
// reference (see runIndexScript). The checked-in corpus under
// testdata/fuzz/FuzzObjectIndex holds seeded scripts. An input reads as a
// stream of draws, each the fewest little-endian bytes that can hold its
// bound, reduced modulo it; the script ends when the input runs out, or
// after 400 steps.
func FuzzObjectIndex(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		src := &byteDraws{data: data}
		runIndexScript(t, src.intn, func(step int) bool { return step < 400 && len(src.data) > 0 })
	})
}

// byteDraws reads bounded draws from a fuzz input (see FuzzObjectIndex);
// past its end every draw is 0.
type byteDraws struct {
	data []byte
}

func (s *byteDraws) intn(n int) int {
	v := 0
	for k := 0; (n-1)>>(8*k) > 0; k++ {
		if len(s.data) == 0 {
			return 0
		}
		v |= int(s.data[0]) << (8 * k)
		s.data = s.data[1:]
	}
	return v % n
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
// 1000 pairs — of a 32-byte object and of a 16 MB one. The 16 MB one is
// one interval, not one bucket entry a page: it opens its two buckets, and
// its overlap check walks the index's few hundred occupied buckets instead
// of its 4 096 pages.
func BenchmarkObjectIndexInsertRemove(b *testing.B) {
	for _, size := range []struct {
		name  string
		bytes uint64
	}{{"32", 32}, {"16M", 16 << 20}} {
		for _, readEvery := range []int{0, 1000} {
			b.Run(fmt.Sprintf("size=%s/readEvery=%d", size.name, readEvery), func(b *testing.B) {
				ix := NewObjectIndex()
				objs := fillIndex(ix, 25_000)
				ix.All()
				o := &Object{Addr: testBase + 64, Size: size.bytes}
				if size.bytes > 64 { // past the filled range
					o.Addr = PageBase(objs[len(objs)-1].End()) + PageSize + 64
				}
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
}

// TestObjectIndexCostIndependentOfSpan: inserting, forking and removing a
// 16 MB object allocates no more than doing the same with a 64 KB one. A
// bucket entry per spanned page would make the first about 4 000
// allocations dearer (the reservation a placement plan inherits is 3 800
// pages).
func TestObjectIndexCostIndependentOfSpan(t *testing.T) {
	allocs := func(size uint64) float64 {
		ix := NewObjectIndex()
		objs := fillIndex(ix, 200)
		o := &Object{Addr: PageBase(objs[len(objs)-1].End()) + PageSize + 64, Size: size}
		return testing.AllocsPerRun(20, func() {
			if err := ix.Insert(o); err != nil {
				t.Fatal(err)
			}
			if c := ix.Clone(); c.Len() != len(objs)+1 {
				t.Fatalf("clone holds %d objects", c.Len())
			}
			ix.Remove(o.Addr)
		})
	}
	small, large := allocs(64<<10), allocs(16<<20)
	if large > small {
		t.Errorf("Insert+Clone+Remove of a 16 MB object allocates %.0f times, of a 64 KB one %.0f", large, small)
	}
}

// TestRemoveLeavesNoStalePointer: neither the page bucket's vacated tail
// slot nor the large-object list's may keep a removed object reachable.
func TestRemoveLeavesNoStalePointer(t *testing.T) {
	ix := NewObjectIndex()
	objs := fillIndex(ix, 3) // one page
	bucket := ix.byPage[PageBase(testBase)]
	ix.Remove(objs[0].Addr)
	if got := ix.byPage[PageBase(testBase)]; len(got) != 2 || bucket[2] != nil {
		t.Errorf("bucket after Remove: len %d, old tail slot %v", len(got), bucket[2])
	}
	for i := Addr(1); i <= 2; i++ {
		if err := ix.Insert(&Object{Addr: testBase + i<<20, Size: 32 * PageSize}); err != nil {
			t.Fatal(err)
		}
	}
	large := ix.large
	ix.Remove(testBase + 1<<20)
	if len(ix.large) != 1 || large[1] != nil {
		t.Errorf("large list after Remove: len %d, old tail slot %v", len(ix.large), large[1])
	}
}
