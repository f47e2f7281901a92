package cluster

import (
	"fmt"
	"io"
	"strings"
	"time"

	"repro/internal/core"
)

// Member outcomes in a rollout report.
const (
	// OutcomeUpdated: committed and (under canary) finalized on the target.
	OutcomeUpdated = "updated"
	// OutcomeRolledBack: the member's own update aborted pre-commit (the
	// engine rolled it back) — the first such member aborts the rollout.
	OutcomeRolledBack = "rolled-back"
	// OutcomeReverted: committed, then adopted back through its canary
	// window (its own SLO breach, or a fleet-initiated wave revert).
	OutcomeReverted = "reverted"
	// OutcomeSkipped: the rollout aborted before this member started.
	OutcomeSkipped = "skipped"
)

// ApplyOptions configures Apply.
type ApplyOptions struct {
	// Progress, when set, receives live per-step progress lines.
	Progress io.Writer
}

// MemberReport is one member's rollout outcome.
type MemberReport struct {
	Member   int           `json:"member"`
	Wave     int           `json:"wave"`
	Outcome  string        `json:"outcome"`
	Cause    string        `json:"cause,omitempty"` // rollback-cause taxonomy, verbatim from the member
	Downtime time.Duration `json:"downtime_ns"`
	// RollbackVerified/Identical carry the member's rollback digest
	// audit when it rolled back or reverted.
	RollbackVerified  bool   `json:"rollback_verified"`
	RollbackIdentical bool   `json:"rollback_identical"`
	CanaryOutcome     string `json:"canary_outcome,omitempty"`
}

// WaveReport is one wave's rollout outcome.
type WaveReport struct {
	Wave      int   `json:"wave"`
	Members   []int `json:"members"`
	Armed     bool  `json:"armed"`     // warm daemons armed for this wave
	Started   bool  `json:"started"`   // at least one member began updating
	Committed bool  `json:"committed"` // every member committed and (under canary) finalized
	// Duration covers the wave from first drain to last verdict;
	// AggregateRPS is fleet-wide completed requests over that span — the
	// sustained-through-the-wave number the bench records.
	Duration     time.Duration `json:"duration_ns"`
	AggregateRPS float64       `json:"aggregate_rps"`
	Requests     int           `json:"requests"`
}

// RolloutReport is the recorded result of one Apply.
type RolloutReport struct {
	Server      string `json:"server"`
	Target      int    `json:"target"`
	AbortPolicy string `json:"abort_policy"`
	Aborted     bool   `json:"aborted"`
	AbortWave   int    `json:"abort_wave"`
	AbortMember int    `json:"abort_member"`
	// AbortCause is the failing member's rollback cause, verbatim — the
	// `deadline:<phase>` / `fault:<point>` / `canary:<metric>` taxonomy
	// bubbles up unmodified as the rollout abort reason.
	AbortCause string         `json:"abort_cause,omitempty"`
	Waves      []WaveReport   `json:"waves"`
	Members    []MemberReport `json:"members"`
	// Events is the ordered orchestration log (arm/start/commit/abort);
	// tests assert abort ordering against it.
	Events  []string      `json:"events"`
	Totals  Tally         `json:"totals"`
	Elapsed time.Duration `json:"elapsed_ns"`
}

// Event appends to the ordered log (and the live progress stream).
func (r *RolloutReport) event(progress io.Writer, format string, args ...any) {
	e := fmt.Sprintf(format, args...)
	r.Events = append(r.Events, e)
	if progress != nil {
		fmt.Fprintln(progress, e)
	}
}

// EventIndex returns the index of the first event containing substr, or
// -1 — the abort-ordering assertion primitive.
func (r *RolloutReport) EventIndex(substr string) int {
	for i, e := range r.Events {
		if strings.Contains(e, substr) {
			return i
		}
	}
	return -1
}

// Apply executes a plan against a running fleet: waves in order, each
// wave's members sequentially (the wave budget is literally divided, and
// the first failure is deterministic). Per member: drain its workload
// share onto a sibling, install its slice of the wave's deadline budget,
// arm its canary window, update, re-add traffic. The next wave's warm
// daemons arm only after every member of the current wave has committed
// — a mid-wave failure aborts the rollout before the next wave arms, and
// un-started waves never arm. Under canary mode the wave then holds
// until every member's window resolves; the first breach reverts the
// wave's other open windows (fleet-initiated) and aborts. On abort,
// committed members of the aborting wave stay or revert per the plan's
// abort policy; finalized earlier waves always stay.
func Apply(c *Cluster, p *Plan, opts ApplyOptions) (*RolloutReport, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if p.Server != c.spec.Name {
		return nil, fmt.Errorf("cluster: plan is for %q, fleet runs %q", p.Server, c.spec.Name)
	}
	if p.Members != len(c.members) {
		return nil, fmt.Errorf("cluster: plan covers %d members, fleet has %d", p.Members, len(c.members))
	}
	slo, err := p.SLO()
	if err != nil {
		return nil, err
	}
	actions := make(map[int]MemberAction, len(p.Actions))
	for _, a := range p.Actions {
		if got := c.members[a.Member].Version(); got != a.From {
			return nil, fmt.Errorf("cluster: member %d serves v%d, plan expects v%d", a.Member, got, a.From)
		}
		actions[a.Member] = a
	}

	rep := &RolloutReport{
		Server:      p.Server,
		Target:      p.Target,
		AbortPolicy: p.AbortPolicy,
		AbortWave:   -1,
		AbortMember: -1,
		Members:     make([]MemberReport, len(c.members)),
	}
	for i := range rep.Members {
		rep.Members[i] = MemberReport{Member: i, Wave: actions[i].Wave, Outcome: OutcomeSkipped}
	}
	start := time.Now()
	startTally := c.Totals()
	defer func() {
		rep.Elapsed = time.Since(start)
		rep.Totals = c.Totals().Delta(startTally)
	}()

	armWave := func(w int) {
		for _, i := range p.Waves[w] {
			if err := c.members[i].eng.ArmWarm(); err == nil {
				rep.event(opts.Progress, "wave %d armed: member %d warm daemon up", w, i)
			} else {
				rep.event(opts.Progress, "wave %d arm: member %d warm daemon unavailable: %v", w, i, err)
			}
		}
	}
	// abort finishes the report once the rollout cannot proceed: committed
	// members of the aborting wave are settled per the abort policy, and
	// everything not yet started stays skipped (its wave never armed).
	abort := func(w, member int, cause string, committed []int) (*RolloutReport, error) {
		rep.Aborted = true
		rep.AbortWave = w
		rep.AbortMember = member
		rep.AbortCause = cause
		rep.event(opts.Progress, "rollout aborted at wave %d: member %d cause %s", w, member, cause)
		for _, i := range committed {
			m := c.members[i]
			mr := &rep.Members[i]
			switch p.AbortPolicy {
			case AbortRevert:
				if m.eng.RevertCanary("fleet") {
					m.eng.CanaryWait(10 * time.Second)
					urep := lastReport(m.eng)
					mr.Outcome = OutcomeReverted
					mr.Cause = urep.RollbackCause
					mr.RollbackVerified = urep.RollbackVerified
					mr.RollbackIdentical = urep.RollbackIdentical
					mr.CanaryOutcome = urep.CanaryOutcome
					rep.event(opts.Progress, "member %d reverted (abort policy %s): %s", i, p.AbortPolicy, mr.Cause)
					continue
				}
				// The window already resolved on its own; fall through to
				// settle with whatever verdict it reached.
				fallthrough
			default: // AbortKeep: accept the committed member now.
				m.eng.DisarmCanary()
				urep := lastReport(m.eng)
				if urep != nil && urep.RolledBack {
					mr.Outcome = OutcomeReverted
					mr.Cause = urep.RollbackCause
					mr.RollbackVerified = urep.RollbackVerified
					mr.RollbackIdentical = urep.RollbackIdentical
					mr.CanaryOutcome = urep.CanaryOutcome
				} else {
					mr.Outcome = OutcomeUpdated
					if urep != nil {
						mr.CanaryOutcome = urep.CanaryOutcome
					}
					m.setVersion(p.Target)
					rep.event(opts.Progress, "member %d kept on v%d (abort policy %s)", i, p.Target, p.AbortPolicy)
				}
			}
		}
		return rep, nil
	}

	rep.event(opts.Progress, "rollout start: %s fleet of %d -> v%d, %d waves",
		p.Server, p.Members, p.Target, len(p.Waves))
	armWave(0)
	for w, wave := range p.Waves {
		wrep := WaveReport{Wave: w, Members: append([]int(nil), wave...), Armed: true, Started: true}
		waveStart := time.Now()
		waveTally := c.Totals()
		rep.event(opts.Progress, "wave %d start: members %v", w, wave)
		var committed []int // members committed this wave
		var reports []*core.UpdateReport
		finishWave := func() {
			wrep.Duration = time.Since(waveStart)
			d := c.Totals().Delta(waveTally)
			wrep.Requests = d.Requests
			if s := wrep.Duration.Seconds(); s > 0 {
				wrep.AggregateRPS = float64(d.Requests) / s
			}
			rep.Waves = append(rep.Waves, wrep)
		}
		for _, i := range wave {
			a := actions[i]
			m := c.members[i]
			mr := &rep.Members[i]
			if a.Budget > 0 {
				if err := m.eng.SetPhaseDeadlines(budgetDeadlines(a.Budget)); err != nil {
					finishWave()
					return abort(w, i, "deadlines: "+err.Error(), committed)
				}
			}
			if p.Canary != "" {
				// Interval and grace scale with the hold; the grace
				// intervals absorb the re-add gap right after commit (the
				// member's share restarts while the window is already open).
				m.eng.SetCanaryPacing(p.CanaryHold, p.CanaryHold/8, 2)
				if err := m.eng.ArmCanary(slo, m.Sample); err != nil {
					finishWave()
					return abort(w, i, "arm-canary: "+err.Error(), committed)
				}
			}
			if err := c.Drain(i); err != nil {
				finishWave()
				return abort(w, i, "drain: "+err.Error(), committed)
			}
			rep.event(opts.Progress, "member %d drained, updating v%d -> v%d (budget %v)", i, a.From, a.To, a.Budget)
			urep, uerr := m.eng.Update(c.spec.Version(a.To))
			if readdErr := c.Readd(i); readdErr != nil {
				finishWave()
				return abort(w, i, "readd: "+readdErr.Error(), committed)
			}
			if urep != nil {
				mr.Downtime = urep.Downtime
			}
			if uerr != nil || (urep != nil && urep.RolledBack) {
				cause := "update"
				if urep != nil && urep.RollbackCause != "" {
					cause = urep.RollbackCause
				} else if uerr != nil {
					cause = uerr.Error()
				}
				mr.Outcome = OutcomeRolledBack
				mr.Cause = cause
				if urep != nil {
					mr.RollbackVerified = urep.RollbackVerified
					mr.RollbackIdentical = urep.RollbackIdentical
				}
				rep.event(opts.Progress, "member %d rolled back: %s", i, cause)
				finishWave()
				return abort(w, i, cause, committed)
			}
			committed = append(committed, i)
			reports = append(reports, urep)
			mr.CanaryOutcome = urep.CanaryOutcome
			rep.event(opts.Progress, "member %d committed v%d (downtime %v)", i, a.To, urep.Downtime)
		}
		// Every member of this wave committed: the next wave may warm-arm
		// now, overlapping its daemons' shadow epochs with this wave's
		// canary verdict.
		if w+1 < len(p.Waves) {
			armWave(w + 1)
		}
		if p.Canary != "" {
			// Hold the wave until every member's window resolves; the
			// first breach reverts the wave's other open windows.
			breached := -1
			for n, i := range wave {
				m := c.members[i]
				if !m.eng.CanaryWait(p.CanaryHold + 10*time.Second) {
					finishWave()
					return abort(w, i, "canary: window never resolved", committed)
				}
				urep := reports[n]
				if urep.RolledBack {
					breached = i
					rep.event(opts.Progress, "member %d canary reverted: %s", i, urep.RollbackCause)
					break
				}
			}
			if breached >= 0 {
				for _, i := range wave {
					if i == breached {
						continue
					}
					m := c.members[i]
					if m.eng.RevertCanary("fleet") {
						rep.event(opts.Progress, "member %d reverted with wave %d (fleet canary)", i, w)
					}
					m.eng.CanaryWait(10 * time.Second)
				}
				// Settle every member's verdict into its report row.
				for n, i := range wave {
					urep := reports[n]
					mr := &rep.Members[i]
					if urep.RolledBack {
						mr.Outcome = OutcomeReverted
						mr.Cause = urep.RollbackCause
						mr.RollbackVerified = urep.RollbackVerified
						mr.RollbackIdentical = urep.RollbackIdentical
						mr.CanaryOutcome = urep.CanaryOutcome
					} else {
						// A sibling's window resolved (finalized) before the
						// fleet revert reached it: it stays updated.
						mr.Outcome = OutcomeUpdated
						mr.CanaryOutcome = urep.CanaryOutcome
						c.members[i].setVersion(p.Target)
					}
				}
				// The next wave armed above; it must not proceed.
				if w+1 < len(p.Waves) {
					for _, i := range p.Waves[w+1] {
						c.members[i].eng.DisarmWarm()
					}
					rep.event(opts.Progress, "wave %d disarmed (rollout aborting)", w+1)
				}
				finishWave()
				urep := reports[waveIndex(wave, breached)]
				return abort(w, breached, urep.RollbackCause, nil)
			}
		}
		for _, i := range wave {
			rep.Members[i].Outcome = OutcomeUpdated
			if p.Canary != "" {
				rep.Members[i].CanaryOutcome = "finalized"
			}
			c.members[i].setVersion(p.Target)
		}
		wrep.Committed = true
		finishWave()
		rep.event(opts.Progress, "wave %d committed (%d rps aggregate)", w, int(rep.Waves[len(rep.Waves)-1].AggregateRPS))
	}
	rep.event(opts.Progress, "rollout done: fleet on v%d", p.Target)
	return rep, nil
}

// setVersion records the member's serving version.
func (m *Member) setVersion(v int) {
	m.mu.Lock()
	m.version = v
	m.mu.Unlock()
}

// lastReport returns the engine's most recent update report.
func lastReport(e *core.Engine) *core.UpdateReport {
	h := e.History()
	if len(h) == 0 {
		return nil
	}
	return h[len(h)-1]
}

func waveIndex(wave []int, member int) int {
	for n, i := range wave {
		if i == member {
			return n
		}
	}
	return 0
}
