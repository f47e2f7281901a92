package core

import (
	"time"

	"repro/internal/obs"
)

// Lifecycle phase names: the keys of SetPhaseDeadlines, the Phase of
// every PhaseRecord and the <phase> of a "deadline:<phase>" rollback
// cause. They are coarser than the obs span names: one budget covers a
// phase and the joins it implies (WDTransfer spans the old-side join,
// remap pairing and copy; WDAnalysis covers validation and re-analysis).
const (
	WDSpeculate = "speculate"
	WDQuiesce   = "quiesce"
	WDAnalysis  = "analysis"
	WDRestart   = "restart"
	WDTransfer  = "transfer"
	WDCommit    = "commit"
)

// phaseSpec is one row of the lifecycle phase table.
type phaseSpec struct {
	name     string        // WD* name
	span     string        // engine-track obs span the phase runs under
	deadline time.Duration // default watchdog budget
}

// Indexes into phaseTable, in lifecycle order.
const (
	phSpeculate = iota
	phQuiesce
	phAnalysis
	phRestart
	phTransfer
	phCommit
)

// phaseTable is the one declaration of the update lifecycle's phases, in
// the order they run. The default budgets are generous multiples of the
// configured phase timeouts, meant to catch a *wedged* phase, never to
// race a slow-but-progressing one: RESTART and transfer get the largest
// (startup replay and the copy fan-out dominate real update time), commit
// is bookkeeping and gets the smallest.
var phaseTable = [...]phaseSpec{
	phSpeculate: {WDSpeculate, obs.PhaseSpeculate, 30 * time.Second},
	phQuiesce:   {WDQuiesce, obs.PhaseQuiesce, 30 * time.Second},
	// The analysis span is obs.PhaseAnalyze instead when nothing exists
	// to validate at quiescence; see Engine.lifecycle.
	phAnalysis: {WDAnalysis, obs.PhaseValidate, 30 * time.Second},
	phRestart:  {WDRestart, obs.PhaseRestart, 60 * time.Second},
	phTransfer: {WDTransfer, obs.PhaseRemap, 60 * time.Second},
	phCommit:   {WDCommit, obs.PhaseCommit, 15 * time.Second},
}

// DefaultPhaseDeadlines is the default watchdog profile: every phase of
// the lifecycle table with its default budget.
func DefaultPhaseDeadlines() map[string]time.Duration {
	m := make(map[string]time.Duration, len(phaseTable))
	for _, ph := range phaseTable {
		m[ph.name] = ph.deadline
	}
	return m
}

// PhaseRecord is one executed lifecycle phase of an update. The records
// of one update, in UpdateReport.Phases, are its downtime ledger: the
// InWindow ones partition the quiesce→commit window.
type PhaseRecord struct {
	Phase    string // WD* name
	Start    time.Time
	Dur      time.Duration
	InWindow bool // began after quiescence was initiated (the quiesce phase included)
}
