package trace

import (
	"errors"
	"reflect"
	"testing"

	"repro/internal/mem"
	"repro/internal/types"
)

// TestDecoupledDiscoveryMatchesTransfer asserts the pipelined split
// (DiscoverInstance while the new version "boots", Complete afterwards)
// is bit-identical to the one-shot TransferInstance — the engine-level
// guarantee that pipelining cannot change what a rollback would have to
// undo — on a 3-process heap and on a single-process one, both across a
// type change.
func TestDecoupledDiscoveryMatchesTransfer(t *testing.T) {
	for _, tc := range []struct {
		name  string
		seed  int64
		procs int
	}{
		{"multi-proc", 23, 3},
		{"single-proc", 42, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			shape := randShape(tc.seed, tc.procs)
			v1 := startSynthV1(t, shape)
			defer v1.Terminate()

			baseStats, baseInst := transferSynth(t, v1, shape, true, true)
			defer baseInst.Terminate()
			if baseStats.ObjectsTransferred == 0 || baseStats.TypeTransformed == 0 {
				t.Fatalf("degenerate transfer, nothing exercised: %+v", baseStats)
			}

			analyses, err := AnalyzeInstance(v1, types.DefaultPolicy(), nil)
			if err != nil {
				t.Fatal(err)
			}
			// Discovery first — before the new instance exists, exactly like
			// the pipelined engine overlapping it with RESTART.
			id, err := DiscoverInstance(v1, Options{
				Policy:             types.DefaultPolicy(),
				DisableDirtyFilter: true,
			})
			if err != nil {
				t.Fatalf("discover: %v", err)
			}
			v2 := startSynthV2(t, shape, true, analyses)
			defer v2.Terminate()
			stats, err := id.Complete(v2, analyses)
			if err != nil {
				t.Fatalf("complete: %v", err)
			}
			if !reflect.DeepEqual(stats, baseStats) {
				t.Fatalf("stats diverged:\nsplit %+v\nbase  %+v", stats, baseStats)
			}
			compareInstances(t, baseInst, v2)
		})
	}
}

// TestDiscoveryCancel pins the cancellation contract: a fired Cancel
// channel aborts the walk with ErrCanceled.
func TestDiscoveryCancel(t *testing.T) {
	shape := randShape(5, 2)
	v1 := startSynthV1(t, shape)
	defer v1.Terminate()
	canceled := make(chan struct{})
	close(canceled)
	_, err := DiscoverInstance(v1, Options{
		Policy: types.DefaultPolicy(),
		Cancel: canceled,
	})
	if !errors.Is(err, ErrCanceled) {
		t.Errorf("err = %v, want ErrCanceled", err)
	}
}

// TestTypeCacheHits pins the pair() transformation memo: a heap full of
// objects of one changed named type derives the Diff once and serves the
// rest from the cache.
func TestTypeCacheHits(t *testing.T) {
	shape := randShape(7, 1)
	v1 := startSynthV1(t, shape)
	defer v1.Terminate()
	stats, v2 := transferSynth(t, v1, shape, true, true)
	defer v2.Terminate()
	if stats.TypeTransformed < 10 {
		t.Fatalf("degenerate scenario: only %d transformed objects", stats.TypeTransformed)
	}
	// One named type changed (node_t), so at minimum every transformed
	// object beyond the first is a cache hit (equal-layout named pairs
	// hit the memo too, so the count can be higher).
	if want := stats.TypeTransformed - 1; stats.TypeCacheHits < want {
		t.Errorf("TypeCacheHits = %d, want >= %d (%d transformed)",
			stats.TypeCacheHits, want, stats.TypeTransformed)
	}
}

// TestLazyDirtyVerdictMatchesEagerSet: discovery does not materialise
// the dirty-object set of the whole process; it answers per object from
// the dirty-page list. After two rounds of writes over two thirds of the
// pages, every reachable object must get the verdict the eager set (every
// object overlapping a dirty page) gave it.
func TestLazyDirtyVerdictMatchesEagerSet(t *testing.T) {
	// A heap of a dozen pages: 1500 list nodes and a chain of 3 KB blobs
	// (which straddle pages), forked once.
	mk := func() *synthShape {
		s := &synthShape{nodes: 1500}
		for i := 0; i < 8; i++ {
			s.blobSizes = append(s.blobSizes, 3000)
			if i > 0 {
				s.links = append(s.links, [3]int{i - 1, i, 8 * i})
			}
		}
		return s
	}
	shape := mk()
	shape.children = []*synthShape{mk()}
	v1 := startSynthV1(t, shape)
	defer v1.Terminate()
	for _, p := range v1.Procs() {
		as, objs := p.Space(), p.Index().All()
		// Pages fall in three classes by number: round 0 stores into the
		// first, round 1 into the second, nothing touches the third.
		rewrite := func(round mem.Addr) {
			for _, o := range objs {
				for pb := mem.PageBase(o.Addr); pb < o.End(); pb += mem.PageSize {
					if o.Kind == mem.ObjLib || pb/mem.PageSize%3 != round {
						continue
					}
					b := make([]byte, 1)
					at := max(o.Addr, pb)
					if err := as.ReadAt(at, b); err != nil {
						t.Fatal(err)
					}
					if err := as.WriteAt(at, b); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		rewrite(0)
		rewrite(1)
		onDirtyPage := make(map[mem.Addr]bool)
		for _, pb := range as.SoftDirtyPages() {
			onDirtyPage[pb] = true
		}
		eager := make(map[mem.Addr]bool) // the old pt.dirty: OnPages over the dirty pages
		for _, o := range objs {
			for pb := mem.PageBase(o.Addr); pb < o.End(); pb += mem.PageSize {
				if onDirtyPage[pb] {
					eager[o.Addr] = true
				}
			}
		}
		d, err := DiscoverProc(p, Options{Policy: types.DefaultPolicy()})
		if err != nil {
			t.Fatal(err)
		}
		verdicts := map[bool]int{}
		for _, o := range d.reachable {
			got := d.pt.isDirty(o)
			if got != eager[o.Addr] {
				t.Errorf("proc %s: %s dirty = %v, eager set says %v", p.Key(), o, got, eager[o.Addr])
			}
			verdicts[got]++
		}
		if verdicts[true] == 0 || verdicts[false] == 0 {
			t.Errorf("proc %s: degenerate scenario: %d dirty, %d clean", p.Key(), verdicts[true], verdicts[false])
		}
	}
}

// TestAnyPageOfBoundaries pins the page-overlap test at its edges: an
// object ending exactly where a dirty page begins is clean.
func TestAnyPageOfBoundaries(t *testing.T) {
	pages := []mem.Addr{0x2000, 0x5000}
	for _, tc := range []struct {
		addr mem.Addr
		size uint64
		want bool
	}{
		{0x1ff8, 8, false}, {0x1ff8, 9, true}, {0x2fff, 1, true}, {0x3000, 0x2000, false},
		{0x3000, 0x2001, true}, {0x5ff0, 0x20, true}, {0x6000, 8, false}, {0, 0x10000, true},
	} {
		if got := anyPageOf(pages, &mem.Object{Addr: tc.addr, Size: tc.size}); got != tc.want {
			t.Errorf("anyPageOf(%#x+%#x) = %v, want %v", tc.addr, tc.size, got, tc.want)
		}
	}
	if anyPageOf(nil, &mem.Object{Addr: 0x2000, Size: 8}) {
		t.Error("anyPageOf over no pages")
	}
}
