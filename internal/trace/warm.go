// Warm analysis: the conservative pointer analysis of a still-serving
// instance, kept valid by delta counters instead of recomputed at
// quiescence. Each process's entry remembers the memory substrate's
// counters (mem.AddressSpace.Mutations, mem.ObjectIndex.Gen) captured just
// before it was analyzed; a process that was not written to — and did not
// allocate or free — since then has an analysis identical to what a
// post-quiesce run would produce. The warm-standby daemon refreshes one
// continuously between updates, so a fork-heavy server whose traffic
// writes to a few processes re-analyzes exactly those few; a cold update
// refreshes a fresh one once before it quiesces. Either way only the
// invalidated processes are re-analyzed inside the downtime window.
package trace

import (
	"fmt"
	"sync"

	"repro/internal/program"
	"repro/internal/types"
)

// warmEntry is one process's current analysis plus the delta-counter
// capture taken immediately before it was (re)computed.
type warmEntry struct {
	an        *Analysis
	mutations uint64 // AddressSpace.Mutations at capture
	indexGen  uint64 // ObjectIndex.Gen at capture
}

// WarmRefresh summarizes one Refresh pass.
type WarmRefresh struct {
	Revalidated int // processes whose counters still matched (no work)
	Reanalyzed  int // processes re-analyzed because their deltas advanced
	Dropped     int // entries dropped for processes that exited
	Errors      int // analyses that failed mid-refresh (entry invalidated)
}

// WarmAnalysis is a per-process conservative analysis kept incrementally
// current against a running instance. The warm-standby daemon calls
// Refresh between updates; the update engine calls Resolve at quiescence
// and consumes the result. All methods are safe for concurrent use,
// though Refresh passes are expected to be serialized by the caller.
type WarmAnalysis struct {
	pol  types.Policy
	libs map[string]bool

	mu      sync.Mutex
	entries map[program.ProcKey]*warmEntry
	// gen advances every time any process's analysis is recomputed: the
	// "analysis generation" operators see in the warm status line.
	gen uint64
	// reanalyses counts recomputations per process across the analysis's
	// lifetime — the per-process invalidation skew the fork-heavy
	// experiment reports.
	reanalyses map[program.ProcKey]int
}

// NewWarmAnalysis builds an empty warm analysis; the first Refresh (or
// Resolve) analyzes every process.
func NewWarmAnalysis(pol types.Policy, libs map[string]bool) *WarmAnalysis {
	return &WarmAnalysis{
		pol:        pol,
		libs:       libs,
		entries:    make(map[program.ProcKey]*warmEntry),
		reanalyses: make(map[program.ProcKey]int),
	}
}

// current returns p's entry if the delta counters still match its
// capture — the process was not written to and did not allocate or free
// since, so a fresh analysis would be identical — and nil otherwise.
func (w *WarmAnalysis) current(p *program.Proc) *warmEntry {
	w.mu.Lock()
	e := w.entries[p.Key()]
	w.mu.Unlock()
	if e != nil && e.mutations == p.Space().Mutations() && e.indexGen == p.Index().Gen() {
		return e
	}
	return nil
}

// reanalyze recomputes p's entry. The counters are captured before
// reading anything, so a write landing mid-analysis advances them past
// the capture and the entry fails its next validation. An analysis error
// (a region unmapped mid-walk) drops the entry.
func (w *WarmAnalysis) reanalyze(p *program.Proc) (*warmEntry, error) {
	e := &warmEntry{
		mutations: p.Space().Mutations(),
		indexGen:  p.Index().Gen(),
	}
	var err error
	e.an, err = AnalyzeProc(p, w.pol, w.libs)
	w.mu.Lock()
	defer w.mu.Unlock()
	if err != nil {
		delete(w.entries, p.Key())
		return nil, err
	}
	w.entries[p.Key()] = e
	w.gen++
	w.reanalyses[p.Key()]++
	return e, nil
}

// Refresh brings the analysis up to date with the (still serving)
// instance: every live process whose delta counters moved past its
// entry's capture — or that has no entry yet — is re-analyzed; untouched
// processes are revalidated for free. Entries of exited processes are
// dropped. Reads synchronize through each address space's lock. An
// analysis error is counted, not returned: the caller (the daemon, or the
// update engine's off-window refresh) keeps going and the entry heals on
// a later pass or at quiescence.
func (w *WarmAnalysis) Refresh(inst *program.Instance) WarmRefresh {
	var rs WarmRefresh
	live := make(map[program.ProcKey]bool)
	for _, p := range inst.Procs() {
		live[p.Key()] = true
		if w.current(p) != nil {
			rs.Revalidated++
		} else if _, err := w.reanalyze(p); err != nil {
			rs.Errors++
		} else {
			rs.Reanalyzed++
		}
	}
	w.mu.Lock()
	for key := range w.entries {
		if !live[key] {
			delete(w.entries, key)
			rs.Dropped++
		}
	}
	w.mu.Unlock()
	return rs
}

// Resolve validates every process's entry against the current delta
// counters and re-analyzes whatever they invalidated: every process, over
// an analysis that was never refreshed. The instance must be quiesced. It
// returns the per-process analyses and how many were reused as captured.
// In-window re-analyses are counted in the per-process reanalysis tally
// like refreshes are.
func (w *WarmAnalysis) Resolve(inst *program.Instance) (map[program.ProcKey]*Analysis, int, error) {
	out := make(map[program.ProcKey]*Analysis)
	reused := 0
	for _, p := range inst.Procs() {
		e := w.current(p)
		if e != nil {
			reused++
		} else {
			var err error
			if e, err = w.reanalyze(p); err != nil {
				return nil, reused, fmt.Errorf("trace: analyze %s: %w", p.Key(), err)
			}
		}
		out[p.Key()] = e.an
	}
	return out, reused, nil
}

// Stale reports whether any live process lacks a currently valid entry:
// the instantaneous analysis-currency probe, costing one delta-counter
// comparison per process and no analysis work. A false return means a
// Resolve run right now would reuse every entry.
func (w *WarmAnalysis) Stale(inst *program.Instance) bool {
	for _, p := range inst.Procs() {
		if w.current(p) == nil {
			return true
		}
	}
	return false
}

// Generation returns the analysis generation: a counter that advances on
// every per-process recomputation. Equal readings bracket a span in which
// the warm analysis did not change.
func (w *WarmAnalysis) Generation() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.gen
}

// Entries returns the number of processes currently holding a warm entry.
func (w *WarmAnalysis) Entries() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.entries)
}

// ReanalysisCounts returns a copy of the per-process recomputation tally
// (warm refreshes plus in-window Resolve re-analyses).
func (w *WarmAnalysis) ReanalysisCounts() map[program.ProcKey]int {
	w.mu.Lock()
	defer w.mu.Unlock()
	out := make(map[program.ProcKey]int, len(w.reanalyses))
	for k, v := range w.reanalyses {
		out[k] = v
	}
	return out
}
