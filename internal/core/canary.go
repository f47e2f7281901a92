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
)

// This file is the post-commit canary window: the paper's rollback story
// ends at commit, so an update that transfers cleanly but behaves badly
// (latency regression, error spike) would stand. With a canary armed,
// commit finalizes as it always does — the old instance is terminated and
// its pid reservations released — and a monitor then differences the live
// workload's cumulative samples per interval against the SLO. A breach
// goes back the one way that stays exact once the new version has served:
// a live update from it to the old version's program, which carries over
// every session, counter and kernel object the new version changed. That
// update commits (the window reverted) or rolls back (the revert failed
// and the new version keeps serving); there is no third outcome.

// canaryRun is one open window.
type canaryRun struct {
	back     *program.Version // the version a breach updates back to
	rep      *UpdateReport
	mon      *canary.Monitor
	src      func() canary.Sample
	window   time.Duration
	interval time.Duration

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
// accepting the new version (disarming is not a breach) unless a revert
// is already under way, and the call blocks until the resolution
// completes.
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
// on through its done channel, so a revert's update has returned and its
// report is written, not merely started.
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
	// LastOutcome is "" before any window, then "finalized", "reverted"
	// or "revert-failed"; LastCause carries the breach behind a revert.
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

// openCanary is commit's canary branch, run after the old instance is
// gone and before the new one resumes: when a canary is armed it opens a
// window over the new version, to revert to back on a breach. Update
// starts the window's monitor once its own bookkeeping is done. No window
// opens while one is open, so a revert's own commit opens none.
func (e *Engine) openCanary(back *program.Version, rep *UpdateReport) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if !e.canaryOn || e.canarySrc == nil || e.canaryRun != nil {
		return
	}
	src := e.canarySrc
	run := &canaryRun{
		back:     back,
		rep:      rep,
		src:      src,
		window:   e.canaryWindow,
		interval: e.canaryInterval,
		cancel:   make(chan struct{}),
		done:     make(chan struct{}),
	}
	// Seed the monitor with the cumulative sample at window open, so the
	// first interval covers exactly the window (the workload is still
	// blocked on the quiesced service here — the sample is stable).
	run.mon = canary.NewMonitor(e.canarySLO, e.canaryBase, src(), max(e.canaryGrace, 0))
	rep.Canary = true
	rep.CanaryOutcome = "open"
	// The window span outlives Update (its monitor goroutine ends it with
	// the verdict), so it lives on its own track where it can overlap the
	// engine phases of the revert's update.
	run.span = e.opts.Recorder.Span(obs.TrackCanary, obs.PhaseCanaryWindow)
	e.canaryRun = run
	e.canaryLast = run
}

// canaryLoop drives one window: periodic SLO ticks until a breach, the
// deadline, or an early accept.
func (e *Engine) canaryLoop(run *canaryRun) {
	// Failsafe: if this goroutine exits without resolving the window (a
	// crash, or the injected canary-monitor fault), the window must not
	// stay open forever refusing further updates with an unjudged new
	// version serving. It resolves as a breach of the synthetic "monitor"
	// metric — losing the judge is itself a reason not to trust the new
	// version. The test is liveness, not time: a monitor that is merely
	// starved of CPU is late, not dead. After any verdict below this is a
	// no-op (the first resolution wins).
	defer e.resolveCanary(run, &canary.Breach{Metric: "monitor"})
	deadline := time.NewTimer(run.window)
	defer deadline.Stop()
	tick := time.NewTicker(run.interval)
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
// Accept (br == nil) has nothing left to do: commit already finalized.
//
// Revert (br != nil) is a live update from the serving new version to
// run.back, run here. The window stays registered until it returns, so a
// caller's Update is still refused with ErrCanaryOpen and the revert's own
// commit opens no second window. If the revert commits, the window's
// report reads as rolled back with cause canary:<metric>; if it rolls back
// (the new version would not quiesce, say), the new version keeps serving
// and the outcome is revert-failed. Either way the revert's own report
// hangs off the window's as Revert.
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
	if br == nil {
		run.rep.CanaryOutcome = "finalized"
		e.canaryOutcome, e.canaryCause = "finalized", ""
		e.canaryRun = nil
		e.mu.Unlock()
		e.opts.Recorder.Metrics().Counter("canary.finalized").Add(1)
		run.span.EndNote("finalized")
		close(run.done)
		return
	}
	e.mu.Unlock()
	cause := br.String()
	rsp := e.opts.Recorder.Span(obs.TrackCanary, obs.PhaseCanaryRevert)
	back, err := e.update(run.back)
	outcome, counter, note := "reverted", "canary.reverted", cause
	if err != nil {
		outcome, counter = "revert-failed", "canary.revert_failed"
		note += "; revert failed: " + err.Error()
	}
	e.mu.Lock()
	run.rep.Revert = back
	run.rep.CanaryOutcome = outcome
	if err == nil {
		run.rep.RolledBack = true
		run.rep.RollbackCause = "canary:" + br.Metric
		run.rep.Reason = fmt.Errorf("canary: %s", cause)
	}
	e.canaryOutcome, e.canaryCause = outcome, cause
	e.canaryRun = nil
	e.mu.Unlock()
	e.opts.Recorder.Metrics().Counter(counter).Add(1)
	rsp.EndNote(note)
	run.span.EndNote(outcome)
	close(run.done)
}
