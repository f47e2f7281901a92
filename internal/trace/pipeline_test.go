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
// is bit-identical to the one-shot TransferInstance, at sequential and
// parallel settings — the engine-level guarantee that pipelining cannot
// change what a rollback would have to undo.
func TestDecoupledDiscoveryMatchesTransfer(t *testing.T) {
	shape := randShape(23, 3)
	v1 := startSynthV1(t, shape)
	defer v1.Terminate()

	baseStats, baseInst := transferSynth(t, v1, shape, true, 1, true)
	defer baseInst.Terminate()

	for _, par := range []int{1, 8} {
		analyses, err := AnalyzeInstance(v1, types.DefaultPolicy(), nil)
		if err != nil {
			t.Fatal(err)
		}
		opts := Options{
			Policy:             types.DefaultPolicy(),
			DisableDirtyFilter: true,
			Parallelism:        par,
		}
		// Discovery first — before the new instance exists, exactly like
		// the pipelined engine overlapping it with RESTART.
		id, err := DiscoverInstance(v1, opts)
		if err != nil {
			t.Fatalf("discover (par=%d): %v", par, err)
		}
		v2 := startSynthV2(t, shape, true, analyses)
		stats, err := id.Complete(v2, analyses)
		if err != nil {
			v2.Terminate()
			t.Fatalf("complete (par=%d): %v", par, err)
		}
		if !reflect.DeepEqual(stats, baseStats) {
			t.Fatalf("par=%d stats diverged:\nsplit %+v\nbase  %+v", par, stats, baseStats)
		}
		compareInstances(t, baseInst, v2)
		v2.Terminate()
	}
}

// TestDiscoveryCancel pins the cancellation contract: a fired Cancel
// channel aborts the walk with ErrCanceled at every Parallelism setting,
// without deadlocking the worker pool.
func TestDiscoveryCancel(t *testing.T) {
	shape := randShape(5, 2)
	v1 := startSynthV1(t, shape)
	defer v1.Terminate()
	canceled := make(chan struct{})
	close(canceled)
	for _, par := range []int{1, 8} {
		_, err := DiscoverInstance(v1, Options{
			Policy:      types.DefaultPolicy(),
			Parallelism: par,
			Cancel:      canceled,
		})
		if !errors.Is(err, ErrCanceled) {
			t.Errorf("par=%d: err = %v, want ErrCanceled", par, err)
		}
	}
}

// TestTypeCacheHits pins the pair() transformation memo: a heap full of
// objects of one changed named type derives the Diff once and serves the
// rest from the cache.
func TestTypeCacheHits(t *testing.T) {
	shape := randShape(7, 1)
	v1 := startSynthV1(t, shape)
	defer v1.Terminate()
	stats, v2 := transferSynth(t, v1, shape, true, 1, true)
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
}

func (f *fakeShadow) EverDirtyPages() []mem.Addr { return nil }
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
			Parallelism:        1,
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
