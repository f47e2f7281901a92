package trace

import (
	"reflect"
	"testing"

	"repro/internal/program"
	"repro/internal/types"
)

// touchProc performs a semantically idempotent write in p: the contents
// are unchanged, but the mutation counter advances and the warm analysis
// must treat the process as stale.
func touchProc(t *testing.T, p *program.Proc) {
	t.Helper()
	anchor := p.MustGlobal("anchor")
	w, err := p.Space().ReadWord(anchor.Addr)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Space().WriteWord(anchor.Addr, w); err != nil {
		t.Fatal(err)
	}
}

// TestWarmRefreshIncremental pins the per-process invalidation contract:
// the first refresh analyzes everything, an idle refresh revalidates
// everything for free, and a write to one process re-analyzes exactly
// that process.
func TestWarmRefreshIncremental(t *testing.T) {
	shape := randShape(77, 3)
	v1 := startSynthV1(t, shape)
	defer v1.Terminate()
	procs := len(v1.Procs())

	w := NewWarmAnalysis(types.DefaultPolicy(), nil)
	if rs := w.Refresh(v1); rs.Reanalyzed != procs || rs.Revalidated != 0 {
		t.Fatalf("first refresh = %+v, want %d reanalyzed", rs, procs)
	}
	gen := w.Generation()
	if gen == 0 || w.Entries() != procs {
		t.Fatalf("gen=%d entries=%d after first refresh", gen, w.Entries())
	}
	// Idle instance: nothing to do, generation stays put.
	if rs := w.Refresh(v1); rs.Revalidated != procs || rs.Reanalyzed != 0 {
		t.Fatalf("idle refresh = %+v, want %d revalidated", rs, procs)
	}
	if w.Generation() != gen {
		t.Errorf("idle refresh advanced the generation: %d -> %d", gen, w.Generation())
	}
	// Touch only the root: exactly one process re-analyzes.
	touchProc(t, v1.Root())
	if rs := w.Refresh(v1); rs.Reanalyzed != 1 || rs.Revalidated != procs-1 {
		t.Fatalf("post-write refresh = %+v, want 1 reanalyzed / %d revalidated", rs, procs-1)
	}
	if w.Generation() != gen+1 {
		t.Errorf("generation = %d, want %d", w.Generation(), gen+1)
	}
	counts := w.ReanalysisCounts()
	if counts[v1.Root().Key()] != 2 {
		t.Errorf("root reanalyses = %d, want 2 (initial + invalidation)", counts[v1.Root().Key()])
	}
	for _, p := range v1.Procs() {
		if p.Key() != v1.Root().Key() && counts[p.Key()] != 1 {
			t.Errorf("proc %s reanalyses = %d, want 1 (initial only)", p.Key(), counts[p.Key()])
		}
	}
}

// TestWarmResolveMatchesFresh asserts the consumed warm analysis is
// identical to a fresh post-quiesce AnalyzeInstance run — warm or stale:
// with no writes between refresh and resolve every process's analysis is
// reused, and a write to one process invalidates exactly that process.
// The second shape is the update engine's one-refresh-per-update use (a
// cold update's off-window speculate phase).
func TestWarmResolveMatchesFresh(t *testing.T) {
	for _, in := range []struct {
		name  string
		seed  int64
		procs int
	}{
		{"daemon", 13, 2},
		{"speculate", 91, 3},
	} {
		t.Run(in.name, func(t *testing.T) {
			shape := randShape(in.seed, in.procs)
			v1 := startSynthV1(t, shape)
			defer v1.Terminate()
			procs := len(v1.Procs())

			w := NewWarmAnalysis(types.DefaultPolicy(), nil)
			w.Refresh(v1)

			fresh, err := AnalyzeInstance(v1, types.DefaultPolicy(), nil)
			if err != nil {
				t.Fatal(err)
			}
			analyses, rs, err := w.Resolve(v1)
			reused := rs.Revalidated
			if err != nil {
				t.Fatal(err)
			}
			if reused != procs {
				t.Errorf("reused = %d, want %d (idle instance)", reused, procs)
			}
			if !reflect.DeepEqual(analyses, fresh) {
				t.Error("warm analyses differ from a fresh run over unchanged state")
			}

			// Invalidate the root after the last refresh: Resolve
			// re-analyzes it in-window and the result still matches a
			// fresh run.
			touchProc(t, v1.Root())
			analyses2, rs2, err := w.Resolve(v1)
			reused2 := rs2.Revalidated
			if err != nil {
				t.Fatal(err)
			}
			if reused2 != procs-1 {
				t.Errorf("reused after root write = %d, want %d (only root invalidated)", reused2, procs-1)
			}
			fresh2, err := AnalyzeInstance(v1, types.DefaultPolicy(), nil)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(analyses2, fresh2) {
				t.Error("resolved analyses differ from the fresh run")
			}
		})
	}
}

// TestWarmRefreshDropsDeadProcs asserts entries of exited processes are
// dropped, not served stale.
func TestWarmRefreshDropsDeadProcs(t *testing.T) {
	shape := randShape(5, 3)
	v1 := startSynthV1(t, shape)
	defer v1.Terminate()
	procs := v1.Procs()
	if len(procs) < 2 {
		t.Fatal("scenario needs a child process")
	}

	w := NewWarmAnalysis(types.DefaultPolicy(), nil)
	w.Refresh(v1)
	if w.Entries() != len(procs) {
		t.Fatalf("entries = %d, want %d", w.Entries(), len(procs))
	}
	// Kill the last child; the next refresh must drop its entry.
	procs[len(procs)-1].KProc().Exit()
	rs := w.Refresh(v1)
	if rs.Dropped != 1 {
		t.Errorf("dropped = %d, want 1", rs.Dropped)
	}
	if w.Entries() != len(procs)-1 {
		t.Errorf("entries = %d, want %d", w.Entries(), len(procs)-1)
	}
}
