// Warm analysis: the conservative pointer analysis of a still-serving
// instance, kept current page by page. Each process's entry holds its
// incremental analysis (incremental.go: per-page scan summaries and their
// fold) and the memory substrate's counters the fold describes
// (mem.AddressSpace.Mutations, mem.ObjectIndex.Gen). A process whose
// counters did not move is validated by comparing them — no sweep, no
// allocation. One whose counters moved is stepped: only the pages stored
// into since, and the pages an allocation or free can affect, are
// re-scanned, so the work is proportional to what changed, not to the heap.
// The update engine keeps one such analysis per running instance: the
// warm-standby daemon steps every process each pass (Refresh) while it is
// armed, a cold update steps it once more before it quiesces — from where
// the daemon left it, if one was ever armed — and the engine steps again
// inside the window (Resolve), where a process that served requests since
// the last step costs the few pages those requests wrote. A process never
// seen before is the same step with every resident page to scan; so is
// one whose address space changed shape, or that changed more objects since
// its last step than its index journals (FullSteps counts each).
package trace

import (
	"fmt"
	"sync"

	"repro/internal/program"
	"repro/internal/types"
)

// warmEntry is one process's published analysis with the counters it
// describes. Entries are immutable: a step publishes a new one.
type warmEntry struct {
	an        *Analysis
	mutations uint64 // AddressSpace.Mutations the analysis is current to
	indexGen  uint64 // ObjectIndex.Gen likewise
	// st is the incremental state an was folded from; only the holder of
	// WarmAnalysis.stepping touches it.
	st *procAnalysis
}

// WarmRefresh summarizes one Refresh or Resolve pass. A process counts as
// re-analyzed when at least one of its pages was re-scanned, or it had no
// entry; the page counts say how much of it was.
type WarmRefresh struct {
	Revalidated int // processes whose analysis stood as it was
	Reanalyzed  int // processes brought up to date by scanning pages
	Dropped     int // entries dropped for processes that exited
	Errors      int // analyses that failed mid-refresh (entry invalidated)

	PagesRescanned int // pages scanned across the re-analyzed processes
	PagesReused    int // page summaries that stood, across all processes

	Full FullSteps // processes whose step scanned every resident page, by cause
}

// FullSteps counts the processes analyzed from nothing instead of stepped
// from their summaries, by what ruled the incremental step out.
type FullSteps struct {
	New        int // no entry: a process not seen before, or whose entry an error dropped
	Remapped   int // a region mapped or unmapped, or an object allocated outside the tracked span
	FrameTaken int // a resident page frame taken away (donated, or returned at rollback)
	Lapsed     int // more index changes since the last step than the index journals (mem.ObjectIndex.ChangesSince)
}

// Total is the number of full steps.
func (f FullSteps) Total() int { return f.New + f.Remapped + f.FrameTaken + f.Lapsed }

// Add sums g into f.
func (f *FullSteps) Add(g FullSteps) {
	f.New += g.New
	f.Remapped += g.Remapped
	f.FrameTaken += g.FrameTaken
	f.Lapsed += g.Lapsed
}

func (f FullSteps) String() string {
	return fmt.Sprintf("full new=%d remapped=%d frame=%d lapsed=%d", f.New, f.Remapped, f.FrameTaken, f.Lapsed)
}

func (f *FullSteps) count(c fullCause) {
	switch c {
	case fullNew:
		f.New++
	case fullRemapped:
		f.Remapped++
	case fullFrameTaken:
		f.FrameTaken++
	case fullLapsed:
		f.Lapsed++
	}
}

// WarmAnalysis is a per-process conservative analysis kept incrementally
// current against a running instance. The warm-standby daemon calls
// Refresh between updates; the update engine calls Resolve at quiescence
// and consumes the result. All methods are safe for concurrent use;
// Refresh and Resolve passes run one at a time.
type WarmAnalysis struct {
	pol  types.Policy
	libs map[string]bool

	// stepping serializes the passes: a process's incremental state has
	// one writer. The probes below (Stale, Generation, ...) never wait on
	// it.
	stepping sync.Mutex

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

func (w *WarmAnalysis) entry(key program.ProcKey) *warmEntry {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.entries[key]
}

// current reports whether the delta counters still match e's capture: the
// process was not written to and did not allocate or free since, so a
// fresh analysis would be identical.
func (e *warmEntry) current(p *program.Proc) bool {
	return e != nil && e.mutations == p.Space().Mutations() && e.indexGen == p.Index().Gen()
}

// bring returns p's entry, brought up to date, and tallies what that took
// in rs. The caller holds w.stepping. The step captures its counters
// before reading anything, so a store landing mid-step is past the capture
// and its page is scanned again by the next one. An analysis error (a
// region unmapped mid-walk) drops the entry.
func (w *WarmAnalysis) bring(p *program.Proc, rs *WarmRefresh) (*warmEntry, error) {
	e := w.entry(p.Key())
	if e.current(p) {
		rs.Revalidated++
		rs.PagesReused += len(e.st.pages)
		return e, nil
	}
	var st *procAnalysis
	if e != nil {
		st = e.st
	} else {
		st = new(procAnalysis)
	}
	scanned, kept, full, err := st.step(p, w.pol, w.libs)
	w.mu.Lock()
	defer w.mu.Unlock()
	rs.Full.count(full)
	if err != nil {
		delete(w.entries, p.Key())
		rs.Errors++
		return nil, err
	}
	ne := &warmEntry{an: st.an, mutations: st.epoch, indexGen: st.gen, st: st}
	w.entries[p.Key()] = ne
	rs.PagesRescanned += scanned
	rs.PagesReused += kept
	if scanned == 0 && e != nil {
		rs.Revalidated++ // the counters moved over nothing the analysis reads
		return ne, nil
	}
	rs.Reanalyzed++
	w.gen++
	w.reanalyses[p.Key()]++
	return ne, nil
}

// Refresh brings the analysis up to date with the (still serving)
// instance: every live process whose delta counters moved past its
// entry's capture — or that has no entry yet — is stepped; untouched
// processes are revalidated for free. Entries of exited processes are
// dropped. Reads synchronize through each address space's lock. An
// analysis error is counted, not returned: the caller (the daemon, or the
// update engine's off-window refresh) keeps going and the entry heals on
// a later pass or at quiescence.
func (w *WarmAnalysis) Refresh(inst *program.Instance) WarmRefresh {
	w.stepping.Lock()
	defer w.stepping.Unlock()
	var rs WarmRefresh
	live := make(map[program.ProcKey]bool)
	for _, p := range inst.Procs() {
		live[p.Key()] = true
		_, _ = w.bring(p, &rs) // counted in rs.Errors
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
// counters and steps whatever they invalidated: every process from
// nothing, over an analysis that was never refreshed. The instance must be
// quiesced. It returns the per-process analyses and the pass's tally
// (Revalidated is how many were reused as captured). The analyses are the
// caller's to keep: a later pass publishes new ones instead of changing
// these. In-window re-analyses are counted in the per-process reanalysis
// tally like refreshes are.
func (w *WarmAnalysis) Resolve(inst *program.Instance) (map[program.ProcKey]*Analysis, WarmRefresh, error) {
	w.stepping.Lock()
	defer w.stepping.Unlock()
	var rs WarmRefresh
	out := make(map[program.ProcKey]*Analysis)
	for _, p := range inst.Procs() {
		e, err := w.bring(p, &rs)
		if err != nil {
			return nil, rs, fmt.Errorf("trace: analyze %s: %w", p.Key(), err)
		}
		out[p.Key()] = e.an
	}
	return out, rs, nil
}

// Stale reports whether any live process lacks a currently valid entry:
// the instantaneous analysis-currency probe, costing one delta-counter
// comparison per process and no analysis work. A false return means a
// Resolve run right now would reuse every entry.
func (w *WarmAnalysis) Stale(inst *program.Instance) bool {
	for _, p := range inst.Procs() {
		if !w.entry(p.Key()).current(p) {
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
