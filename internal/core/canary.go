package core

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/canary"
	"repro/internal/faultinject"
	"repro/internal/obs"
	"repro/internal/program"
	"repro/internal/reinit"
)

// This file is the adoptable-window lifecycle: the paper's rollback story
// ends at commit, so an update that transfers cleanly but behaves badly
// (latency regression, error spike) would be irreversible. With a canary
// armed, commit does not terminate the old instance — it parks it,
// quiesced and adoptable, behind a grace window while the live workload
// drives the new version. A monitor differences the workload's cumulative
// samples per interval against the SLO; a breach adopts the old instance
// back. The contract making the revert safe is already in place: the
// update's checkpoint Discard ran when Update returned, handing every
// consumed soft-dirty bit back to the old instance's address spaces, so
// the old side resumes exactly as checkpointed and a later update attempt
// still sees the full dirty-since-startup set.

// canaryRun is one open adoptable window.
type canaryRun struct {
	old *program.Instance // quiesced, adoptable until resolved
	new *program.Instance // serving; finalized or reverted by the verdict
	rep *UpdateReport
	mon *canary.Monitor
	src func() canary.Sample

	cancel    chan struct{} // closed by DisarmCanary/Shutdown: accept now
	closeOnce sync.Once
	done      chan struct{} // closed once the window is resolved

	span obs.Span // open canary-window span; ended with the verdict

	resolved bool // guarded by Engine.mu
}

// close requests early acceptance; idempotent.
func (run *canaryRun) close() {
	run.closeOnce.Do(func() { close(run.cancel) })
}

// ArmCanary arms the post-commit canary window for subsequent updates:
// src feeds cumulative workload samples (see workload.CanarySource), and
// slo is the bar each monitor interval must clear. Arming is sticky
// across updates until DisarmCanary. Fails while a window is open — the
// previous verdict must land first.
func (e *Engine) ArmCanary(slo canary.SLO, src func() canary.Sample) error {
	if slo.IsZero() {
		return errors.New("core: canary SLO sets no gate")
	}
	if src == nil {
		return errors.New("core: canary needs a workload sample source")
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.canaryRun != nil {
		return ErrCanaryOpen
	}
	e.canaryOn = true
	e.canarySLO = slo
	e.canarySrc = src
	return nil
}

// DisarmCanary disarms the canary; an open window is resolved now by
// accepting the new version (disarming is not a breach), and the call
// blocks until that resolution completes.
func (e *Engine) DisarmCanary() {
	e.mu.Lock()
	run := e.canaryRun
	e.canaryOn = false
	e.canarySrc = nil
	e.mu.Unlock()
	if run != nil {
		run.close()
		<-run.done
	}
}

// SetCanaryPacing reconfigures the canary window for windows opened
// after this call: how long a committed update stays revertible, how
// often the monitor judges the SLO, and how many initial intervals are
// exempt from breaching — requests that blocked across the update's
// quiesce complete just after commit with latency roughly equal to the
// downtime, which is the old version's cost, not the new version's
// behavior. A zero window or interval keeps the current value; a negative
// grace means none. NewEngine starts at 250ms, 25ms and 2.
func (e *Engine) SetCanaryPacing(window, interval time.Duration, grace int) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if window > 0 {
		e.canaryWindow = window
	}
	if interval > 0 {
		e.canaryInterval = interval
	}
	e.canaryGrace = grace
}

// CanaryWait blocks until no canary window is open: immediately true when
// none ever opened, false if the open window has not resolved within the
// timeout. The canary fields of the window's UpdateReport are settled
// once this returns true — a window that already resolved is still waited
// on through its done channel, so the resolution's trailing writes (the
// rollback digest audit on a revert) are complete, not merely started.
func (e *Engine) CanaryWait(timeout time.Duration) bool {
	e.mu.Lock()
	run := e.canaryRun
	if run == nil {
		run = e.canaryLast
	}
	e.mu.Unlock()
	if run == nil {
		return true
	}
	select {
	case <-run.done:
		return true
	case <-time.After(timeout):
		return false
	}
}

// CanaryStatus describes the canary for operators (the mcr-ctl "canary
// status" surface).
type CanaryStatus struct {
	Armed bool
	SLO   canary.SLO
	Open  bool
	// Monitor is the live monitor state while a window is open, or the
	// final state of the most recent window otherwise.
	Monitor canary.MonitorStatus
	// LastOutcome is "" before any window, then "finalized" or
	// "reverted"; LastCause carries the breach for a reverted window.
	LastOutcome string
	LastCause   string
}

// CanaryStatus reports the canary's armed state and the latest verdict.
func (e *Engine) CanaryStatus() CanaryStatus {
	e.mu.Lock()
	defer e.mu.Unlock()
	st := CanaryStatus{
		Armed:       e.canaryOn,
		SLO:         e.canarySLO,
		Monitor:     e.canaryFinal,
		LastOutcome: e.canaryOutcome,
		LastCause:   e.canaryCause,
	}
	if e.canaryRun != nil {
		st.Open = true
		st.Monitor = e.canaryRun.mon.Status()
	}
	return st
}

// openCanary is commit's canary branch. When a canary is armed it holds
// the old instance adoptable instead of terminating it: the new instance
// resumes into service and becomes current, but the old one keeps its
// checkpointed state (every consumed soft-dirty bit is handed back by the
// update's deferred Discard), its quiesced threads, and — via the pid
// reservations ReserveIDs planted in the new namespace — an id space no
// natural allocation can steal while a rollback is still possible.
// Returns false when no canary applies and commit should finalize.
func (e *Engine) openCanary(old, newInst *program.Instance, rep *UpdateReport) bool {
	e.mu.Lock()
	if !e.canaryOn || e.canarySrc == nil || e.canaryRun != nil {
		e.mu.Unlock()
		return false
	}
	src := e.canarySrc
	window, interval, grace := e.canaryWindow, e.canaryInterval, max(e.canaryGrace, 0)
	run := &canaryRun{
		old:    old,
		new:    newInst,
		rep:    rep,
		src:    src,
		cancel: make(chan struct{}),
		done:   make(chan struct{}),
	}
	// Seed the monitor with the cumulative sample at window open, so the
	// first interval covers exactly the window (the workload is still
	// blocked on the quiesced service here — the sample is stable).
	run.mon = canary.NewMonitor(e.canarySLO, e.canaryBase, src(), grace)
	rep.Canary = true
	rep.CanaryOutcome = "open"
	// The window span outlives Update (its monitor goroutine ends it with
	// the verdict), so it lives on its own track where it can overlap the
	// engine phases of a subsequent rollback.
	run.span = e.opts.Recorder.Span(obs.TrackCanary, obs.PhaseCanaryWindow)
	e.canaryRun = run
	e.canaryLast = run
	e.setCurrentLocked(newInst)
	e.mu.Unlock()
	// Make the parked old instance whole before the new version resumes:
	// adopted page frames stay with the new instance (which is about to
	// serve from them), but their contents — still bit-identical to the
	// quiesce-time state here — are copied back into the old address
	// spaces, so a breach adopts back exactly the checkpointed state
	// without touching the serving side.
	if rep.ledger != nil {
		if cerr := rep.ledger.CopyBack(); cerr != nil {
			e.opts.Recorder.InstantNote(obs.TrackCanary, obs.PhaseCanaryJudge,
				"copyback-failed: "+cerr.Error())
		}
	}
	newInst.Resume()
	go e.canaryLoop(run, window, interval)
	return true
}

// canaryLoop drives one window: periodic SLO ticks until a breach, the
// deadline, or an early accept.
func (e *Engine) canaryLoop(run *canaryRun, window, interval time.Duration) {
	// Failsafe: if this goroutine exits without resolving the window (a
	// crash, or the injected canary-monitor fault), the window must not
	// stay open forever refusing further updates with an unjudged new
	// version serving. It resolves as a breach of the synthetic "monitor"
	// metric — losing the judge is itself a reason not to trust the new
	// version. The test is liveness, not time: a monitor that is merely
	// starved of CPU is late, not dead. After any verdict below this is a
	// no-op (the first resolution wins).
	defer e.resolveCanary(run, &canary.Breach{Metric: "monitor"})
	deadline := time.NewTimer(window)
	defer deadline.Stop()
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for {
		select {
		case <-run.cancel:
			e.resolveCanary(run, nil)
			return
		case <-deadline.C:
			// Judge the final partial interval too: a regression landing
			// just before the deadline must not slip through.
			br := run.mon.Tick(run.src())
			e.judgeInstant(br)
			e.resolveCanary(run, br)
			return
		case <-tick.C:
			// Injected monitor death: the goroutine exits without
			// resolving the window, leaving the verdict to the deferred
			// failsafe (cause canary:monitor).
			if err := e.opts.Faults.Check(faultinject.PointCanaryMonitor); err != nil {
				e.opts.Recorder.InstantNote(obs.TrackCanary, obs.PhaseCanaryJudge, "monitor-died")
				return
			}
			br := run.mon.Tick(run.src())
			e.judgeInstant(br)
			if br != nil {
				e.resolveCanary(run, br)
				return
			}
		}
	}
}

// judgeInstant records one SLO evaluation tick; a breach carries the
// failing metric as the note.
func (e *Engine) judgeInstant(br *canary.Breach) {
	if !e.opts.Recorder.On() {
		return
	}
	if br != nil {
		e.opts.Recorder.InstantNote(obs.TrackCanary, obs.PhaseCanaryJudge, "breach:"+br.Metric)
		e.opts.Recorder.Metrics().Counter("canary.breaches").Add(1)
		return
	}
	e.opts.Recorder.InstantNote(obs.TrackCanary, obs.PhaseCanaryJudge, "pass")
}

// resolveCanary settles one window exactly once (idempotent under
// Engine.mu — a deadline racing a breach, or a double breach, collapses
// to the first resolution).
//
// Accept (br == nil): the old instance is terminated for good and the
// RESTART resources held open by the window are released — the old
// namespace's pid reservations drop, exactly what plain commit does at
// finalization.
//
// Revert (br != nil): the engine adopts the old instance back. The new
// version is quiesced first, so no request is cut off mid-service —
// in-flight replies complete, and requests not yet read stay buffered in
// the shared connection objects (PassFDs keeps fd objects shared between
// the versions precisely so this hand-back is possible) for the old
// instance to serve after Resume. The warm daemon armed on the new
// instance after commit is stopped and its checkpoint discarded before
// the swap, then warm mode re-arms on the adopted old instance.
func (e *Engine) resolveCanary(run *canaryRun, br *canary.Breach) {
	e.mu.Lock()
	if run.resolved {
		e.mu.Unlock()
		return
	}
	run.resolved = true
	// Wake the monitor loop: a resolution that did not come from it must
	// not leave it ticking for the rest of the window.
	run.close()
	e.canaryFinal = run.mon.Status()
	e.canaryRun = nil
	if br == nil {
		run.rep.CanaryOutcome = "finalized"
		e.canaryOutcome = "finalized"
		e.canaryCause = ""
		e.mu.Unlock()
		fsp := e.opts.Recorder.Span(obs.TrackCanary, obs.PhaseCanaryFinalize)
		e.opts.Recorder.Metrics().Counter("canary.finalized").Add(1)
		run.old.Terminate()
		reinit.ReleaseIDs(run.new.Root())
		fsp.End()
		run.span.EndNote("finalized")
		close(run.done)
		return
	}
	cause := br.String()
	run.rep.RolledBack = true
	run.rep.RollbackCause = "canary:" + br.Metric
	run.rep.CanaryOutcome = "reverted"
	run.rep.Reason = fmt.Errorf("canary: %s", cause)
	e.canaryOutcome = "reverted"
	e.canaryCause = cause
	e.setCurrentLocked(run.old)
	d := e.daemon
	e.daemon = nil
	e.mu.Unlock()
	rsp := e.opts.Recorder.Span(obs.TrackCanary, obs.PhaseCanaryRevert)
	e.opts.Recorder.Metrics().Counter("canary.reverted").Add(1)
	stopAndDiscard(d)
	// Park the degraded version at its quiescent points before killing
	// it: half-served requests finish, unread ones stay buffered for the
	// old instance. A version too degraded to even converge is terminated
	// anyway — adopting the old instance back must not hang on the new
	// one's failure mode; its failure to converge is noted on the revert.
	note := cause
	if _, err := run.new.Quiesce(e.opts.QuiesceTimeout); err != nil {
		note += "; new version not quiesced: " + err.Error()
	}
	run.new.Terminate()
	e.auditRollback(run.old, run.rep)
	run.old.Resume()
	rsp.EndNote(note)
	run.span.EndNote("reverted")
	e.rearmWarm()
	close(run.done)
}
