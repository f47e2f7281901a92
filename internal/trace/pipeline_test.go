package trace

import (
	"errors"
	"reflect"
	"testing"

	"repro/internal/mem"
	"repro/internal/program"
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

// fakeShadow is a test ShadowReader: a full capture of the old process
// taken while nothing was dirty, so every shadow is trivially current.
type fakeShadow struct {
	bufs map[*mem.Object][]byte
	ever []mem.Addr // pages an epoch consumed; none unless a test says so
}

func (f *fakeShadow) EverDirtyPages() []mem.Addr { return f.ever }
func (f *fakeShadow) Shadow(o *mem.Object) ([]byte, bool) {
	b, ok := f.bufs[o]
	return b, ok
}

// TestTransformedObjectsServeFromShadow closes the ROADMAP leftover: the
// field-mapped (layout-changed) copy path must read from a provably
// current shadow instead of live memory, with bit-identical output.
func TestTransformedObjectsServeFromShadow(t *testing.T) {
	shape := randShape(31, 1)
	v1 := startSynthV1(t, shape)
	defer v1.Terminate()
	root := v1.Root()

	fs := &fakeShadow{bufs: make(map[*mem.Object][]byte)}
	for _, o := range root.Index().All() {
		buf := make([]byte, o.Size)
		if err := root.Space().ReadAt(o.Addr, buf); err != nil {
			t.Fatal(err)
		}
		fs.bufs[o] = buf
	}

	run := func(withShadow bool) (Stats, *program.Instance) {
		analyses, err := AnalyzeInstance(v1, types.DefaultPolicy(), nil)
		if err != nil {
			t.Fatal(err)
		}
		v2 := startSynthV2(t, shape, true, analyses)
		opts := Options{
			Policy:             types.DefaultPolicy(),
			DisableDirtyFilter: true,
		}
		if withShadow {
			opts.Shadows = func(key program.ProcKey) ShadowReader {
				if key == root.Key() {
					return fs
				}
				return nil
			}
		}
		stats, err := TransferInstance(v1, v2, analyses, opts)
		if err != nil {
			v2.Terminate()
			t.Fatalf("transfer (shadow=%v): %v", withShadow, err)
		}
		return stats, v2
	}

	live, liveInst := run(false)
	defer liveInst.Terminate()
	shadowed, shadowInst := run(true)
	defer shadowInst.Terminate()

	if shadowed.TypeTransformed == 0 {
		t.Fatal("scenario exercised no transformed objects")
	}
	if shadowed.BytesLive != 0 {
		t.Errorf("BytesLive = %d with a full current shadow, want 0 (transformed path included)",
			shadowed.BytesLive)
	}
	if shadowed.BytesFromShadow != live.BytesLive || shadowed.BytesTransferred != live.BytesTransferred {
		t.Errorf("byte accounting diverged: shadow %+v vs live %+v", shadowed, live)
	}
	compareInstances(t, liveInst, shadowInst)
}

// TestLazyDirtyVerdictMatchesEagerSet: discovery no longer materialises
// the dirty-object set of the whole process; it answers per object from
// the two dirty-page lists. On a pre-copy + shadow run — one round of
// writes consumed by an epoch, a second round still soft-dirty at
// quiescence — every reachable object must get the verdict the eager set
// (every object overlapping a page of the union) gave it.
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
		as.ReadAndClearSoftDirty() // the epoch: these pages are now "ever dirty" only
		rewrite(1)
		cur, ever := as.SoftDirtyPages(), as.ConsumedDirtyPages()
		if len(cur) == 0 || len(ever) == 0 {
			t.Fatalf("proc %s: %d current, %d consumed dirty pages", p.Key(), len(cur), len(ever))
		}
		onDirtyPage := make(map[mem.Addr]bool)
		for _, pb := range append(append([]mem.Addr(nil), cur...), ever...) {
			onDirtyPage[pb] = true
		}
		eager := make(map[mem.Addr]bool) // the old pt.dirty: OnPages over the union
		for _, o := range objs {
			for pb := mem.PageBase(o.Addr); pb < o.End(); pb += mem.PageSize {
				if onDirtyPage[pb] {
					eager[o.Addr] = true
				}
			}
		}
		d, err := DiscoverProc(p, Options{
			Policy:  types.DefaultPolicy(),
			Shadows: func(program.ProcKey) ShadowReader { return &fakeShadow{ever: ever} },
		})
		if err != nil {
			t.Fatal(err)
		}
		verdicts := map[bool]int{}
		everOnly := 0
		for _, o := range d.reachable {
			got := d.pt.isDirty(o)
			if got != eager[o.Addr] {
				t.Errorf("proc %s: %s dirty = %v, eager set says %v", p.Key(), o, got, eager[o.Addr])
			}
			verdicts[got]++
			if got && !anyPageOf(cur, o) {
				everOnly++
			}
		}
		if verdicts[true] == 0 || verdicts[false] == 0 || everOnly == 0 {
			t.Errorf("proc %s: degenerate scenario: %d dirty (%d through consumed pages only), %d clean",
				p.Key(), verdicts[true], everOnly, verdicts[false])
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
