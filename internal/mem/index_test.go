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
	// live[t-1] is the number of live objects generation t left.
	live []int
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
	r.live = append(r.live, len(r.byStart))
	return true
}

func (r *refIndex) remove(addr Addr) (*Object, bool) {
	o, ok := r.byStart[addr]
	if ok {
		delete(r.byStart, addr)
		r.gen++
		r.live = append(r.live, len(r.byStart))
	}
	return o, ok
}

// lapsed reports whether the journal bound was passed since generation g:
// whether some mutation since left fewer live objects, plus minPending,
// than there were mutations from g to it.
func (r *refIndex) lapsed(g uint64) bool {
	for t := g + 1; t <= r.gen; t++ {
		if t-g > uint64(r.live[t-1]+minPending) {
			return true
		}
	}
	return false
}

// values returns the live objects by value, keyed by address.
func (r *refIndex) values() map[Addr]Object {
	out := make(map[Addr]Object, len(r.byStart))
	for a, o := range r.byStart {
		out[a] = *o
	}
	return out
}

// changedSince returns the symmetric difference, by value, between the
// objects live when values were taken and those live now, ascending: at one
// address the one that left first.
func (r *refIndex) changedSince(old map[Addr]Object) []Object {
	var addrs []Addr
	for a := range old {
		addrs = append(addrs, a)
	}
	for a := range r.byStart {
		if _, ok := old[a]; !ok {
			addrs = append(addrs, a)
		}
	}
	slices.Sort(addrs)
	var out []Object
	for _, a := range addrs {
		was, before := old[a]
		now, after := r.byStart[a]
		if before && after && was == *now {
			continue
		}
		if before {
			out = append(out, was)
		}
		if after {
			out = append(out, *now)
		}
	}
	return out
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
	out.gen, out.live = r.gen, slices.Clone(r.live)
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
// ChangesSince is asked from a generation an earlier read returned: merged
// into the list of that read, its answer must give the list now and the
// reference's difference between then and now, or be a lapse exactly when
// the journal bound was passed since (refIndex.lapsed). intn draws the
// script — a seeded generator, or a fuzz input — and more says whether to
// take another step. It returns how many ChangesSince calls were answered
// and how many lapsed.
func runIndexScript(t *testing.T, intn func(n int) int, more func(step int) bool) (answered, lapsed int) {
	t.Helper()
	ix, ref := NewObjectIndex(), newRefIndex()
	cloned := false // after a clone the two sides hold distinct structs
	var removed []*Object
	var live []Addr
	var scratch []Change
	// reads are earlier reads to ask ChangesSince from: the generation, the
	// index's list and the reference's objects then.
	type read struct {
		gen  uint64
		objs []*Object
		ref  map[Addr]Object
	}
	// The first stays until the next fork, so that some ChangesSince calls
	// are asked from further back than the journal reaches.
	var reads []read
	remember := func(r read) {
		if len(reads) < 8 {
			reads = append(reads, r)
		} else {
			reads[1+intn(len(reads)-1)] = r
		}
	}
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
			cloned, removed, reads = true, nil, nil
		case op < 94: // no reader for a while: one object freed and put back, up to twice the journal bound times
			if len(live) > 0 {
				addr := live[intn(len(live))]
				for k := intn(2 * (len(live) + minPending)); k > 0; k-- {
					o, _ := ix.Remove(addr)
					ro, _ := ref.remove(addr)
					if err := ix.Insert(o); err != nil || !ref.insert(ro) {
						t.Fatalf("step %d: putting back %s: %v", step, o, err)
					}
				}
			}
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
			if len(reads) == 0 || intn(4) == 0 {
				objs, gen := ix.Snapshot()
				remember(read{gen, objs, ref.values()})
			}
			from := reads[intn(len(reads))]
			changes, gen, ok := ix.ChangesSince(from.gen, scratch[:0])
			scratch = changes
			if gen != ref.gen || ok == ref.lapsed(from.gen) {
				t.Fatalf("step %d: ChangesSince(%d) = gen %d, ok %v; want gen %d, lapsed %v", step, from.gen, gen, ok, ref.gen, ref.lapsed(from.gen))
			}
			if !ok {
				lapsed++
			} else {
				answered++
				if !slices.IsSortedFunc(changes, func(a, b Change) int { return int(a.Addr) - int(b.Addr) }) ||
					len(slices.CompactFunc(slices.Clone(changes), func(a, b Change) bool { return a.Addr == b.Addr })) != len(changes) {
					t.Fatalf("step %d: ChangesSince(%d): not ascending and distinct: %v", step, from.gen, changes)
				}
				objs, delta := MergeChanges(nil, nil, from.objs, changes)
				if err := sameObjects(objs, ref.all(), !cloned); err != nil {
					t.Fatalf("step %d: ChangesSince(%d) merged: %v", step, from.gen, err)
				}
				var got []Object
				for _, o := range delta {
					got = append(got, *o)
				}
				if want := ref.changedSince(from.ref); !slices.Equal(got, want) {
					t.Fatalf("step %d: ChangesSince(%d) delta %v, want %v", step, from.gen, got, want)
				}
				remember(read{gen, objs, ref.values()})
			}
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
	return answered, lapsed
}

// TestObjectIndexDifferential runs seeded random index scripts against the
// reference (see runIndexScript).
func TestObjectIndexDifferential(t *testing.T) {
	answered, lapsed := 0, 0
	for seed := int64(1); seed <= 8; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			a, l := runIndexScript(t, rand.New(rand.NewSource(seed)).Intn, func(step int) bool { return step < 1500 })
			answered, lapsed = answered+a, lapsed+l
		})
	}
	if answered == 0 || lapsed == 0 {
		t.Errorf("ChangesSince answered %d times and lapsed %d times: the seeds do not test both", answered, lapsed)
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
// daemon makes every pass — the changes since its last pass into its own
// buffer, the objects on a few dirty pages — neither build a snapshot nor,
// in steady state, allocate one's worth: on a large index each new
// snapshot is a large allocation, and a pass every few milliseconds would
// make them the heap's main churn. Past an eighth of the index behind, the
// snapshot is brought up to date, so the next All's merge does not grow
// with the run; the journal the reader follows is not cut by it.
func TestRepeatedReaderLeavesSnapshotAlone(t *testing.T) {
	const n = 8000
	ix := NewObjectIndex()
	objs := fillIndex(ix, n)
	snap, gen := ix.Snapshot()
	churn := func(k int) {
		for i := 0; i < k; i++ {
			o := objs[(i*7919)%n]
			ix.Remove(o.Addr)
			ix.Insert(o)
		}
	}
	churn(20)
	buf, gen, ok := ix.ChangesSince(gen, nil)
	if !ok || len(buf) != 20 {
		t.Fatalf("ChangesSince after 20 mutations: %d changes, ok %v", len(buf), ok)
	}
	pages := []Addr{PageBase(objs[n/2].Addr), PageBase(objs[10].Addr)}
	var onPages []*Object
	perCall := testing.AllocsPerRun(50, func() {
		churn(2)
		buf, gen, ok = ix.ChangesSince(gen, buf[:0])
		onPages = ix.OnPages(pages)
	})
	if perCall > 2 { // OnPages' result, and its growth
		t.Errorf("ChangesSince + OnPages behind the snapshot allocate %.0f times a call", perCall)
	}
	if cur := ix.snap; &cur[0] != &snap[0] || ix.snapGen == ix.gen {
		t.Errorf("the snapshot was advanced (%d behind)", ix.gen-ix.snapGen)
	}
	if want := []Change{{objs[0].Addr, objs[0]}, {objs[7919%n].Addr, objs[7919%n]}}; !ok || !slices.Equal(buf, want) {
		t.Errorf("ChangesSince = %v %v, want %v", buf, ok, want)
	}
	if want := 2 * PageSize / 128; len(onPages) != want || onPages[0] != objs[0] {
		t.Errorf("OnPages found %d objects from %v, want %d from %v", len(onPages), onPages[0], want, objs[0])
	}
	before := ix.log.n
	churn(n / 8)
	if buf, gen, ok = ix.ChangesSince(gen, buf[:0]); !ok || gen != ix.Gen() || len(buf) != n/8 {
		t.Errorf("ChangesSince after %d more mutations: %d changes, ok %v", n/8, len(buf), ok)
	}
	if ix.snapGen != ix.gen || &ix.snap[0] == &snap[0] {
		t.Errorf("after %d more mutations the snapshot is still %d behind", n/8, ix.gen-ix.snapGen)
	}
	if ix.log.n != before+2*(n/8) {
		t.Errorf("bringing the snapshot up to date cut the journal from %d to %d entries", before+2*(n/8), ix.log.n)
	}
	if err := sameObjects(ix.All(), objs, true); err != nil {
		t.Errorf("All after the fold: %v", err)
	}
	// Most of the index asked for: the snapshot is the cheaper way.
	churn(2)
	var all []Addr
	for pb := PageBase(testBase); pb < objs[n-1].End(); pb += PageSize {
		all = append(all, pb)
	}
	if got := ix.OnPages(all); len(got) != n || ix.snapGen != ix.gen {
		t.Errorf("OnPages of every page: %d objects, snapshot %d behind", len(got), ix.gen-ix.snapGen)
	}
}

// TestPendingDeltaStaysBounded: a long run of mutations nobody reads
// between — serving with no update in sight — must not accumulate. A
// reader that keeps up never lapses, and once the journal has grown to
// its working size writes allocate nothing.
func TestPendingDeltaStaysBounded(t *testing.T) {
	ix := NewObjectIndex()
	fillIndex(ix, 1000)
	_, gen := ix.Snapshot()
	o := &Object{Addr: testBase + 64, Size: 32} // in the gap after the first object
	for i := 0; i < 1_000_000; i++ {
		if err := ix.Insert(o); err != nil {
			t.Fatal(err)
		}
		ix.Remove(o.Addr)
		if held, ring := ix.log.n, len(ix.log.ring); held > ix.Len()+minPending || ring > (ix.Len()+minPending)*9/8+1 {
			t.Fatalf("after %d pairs the journal holds %d entries in %d slots for %d live objects", i, held, ring, ix.Len())
		}
	}
	if ix.snap != nil || ix.log.ring != nil {
		t.Errorf("unread journal not dropped: snapshot %d, journal %d", len(ix.snap), ix.log.n)
	}
	if _, _, ok := ix.ChangesSince(gen, nil); ok {
		t.Error("a reader 2 000 000 mutations behind did not lapse")
	}
	if got := ix.All(); len(got) != 1000 || ix.Gen() != 1000+2_000_000 {
		t.Errorf("after the run: %d objects, gen %d", len(got), ix.Gen())
	}
	// With a reader keeping up the journal slides and its ring is reused:
	// once it has grown to the working size, writes allocate nothing.
	pair := func() {
		ix.Insert(o)
		ix.Remove(o.Addr)
	}
	_, gen = ix.Snapshot()
	var changes []Change
	for i := 0; i < 1000; i++ {
		pair()
		var ok bool
		if changes, gen, ok = ix.ChangesSince(gen, changes[:0]); !ok || len(changes) != 1 || changes[0].Now != nil {
			t.Fatalf("pair %d: ChangesSince = %v %v, want the one address, now empty", i, changes, ok)
		}
	}
	if n := testing.AllocsPerRun(100, pair); n != 0 {
		t.Errorf("Insert+Remove allocate %v times in steady state", n)
	}
	if held := ix.log.n; held != ix.Len()+minPending || ix.snap == nil {
		t.Errorf("steady-state writes were not journaled: %d entries, snapshot %v", held, ix.snap != nil)
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
// pair on a 25 000-object index, with nobody reading (the journal is
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
