package core

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/faultinject"
	"repro/internal/obs"
)

// This file is the per-phase deadline watchdog. The rollback machinery
// only ever ran when a phase *failed loudly*; a phase that hangs — a
// RESTART that never converges, a transfer worker parked on a lock, a
// wedged daemon join — left the engine stuck holding a quiesced old
// instance forever. The watchdog turns a hang into the standard failure
// path: each update runs under a monitor goroutine with one budget per
// phase (Engine.SetPhaseDeadlines); on expiry it closes the pipeline
// cancel channel (the same drain-not-abandon trace.Options.Cancel
// semantics the abort path uses), releases any injected stalls, and fails
// the phase, so the engine unwinds through its normal rollback with
// RollbackCause "deadline:<phase>" instead of wedging.

// DeadlineError reports a watchdog-aborted phase. Rollback-cause
// classification keys on it: a rollback whose cause chain carries a
// *DeadlineError reports "deadline:<phase>".
type DeadlineError struct {
	Phase  string
	Budget time.Duration
	Cause  error // what the interrupted phase itself returned, if anything
}

func (e *DeadlineError) Error() string {
	if e.Cause != nil {
		return fmt.Sprintf("core: %s exceeded its %v deadline: %v", e.Phase, e.Budget, e.Cause)
	}
	return fmt.Sprintf("core: %s exceeded its %v deadline", e.Phase, e.Budget)
}

func (e *DeadlineError) Unwrap() error { return e.Cause }

// watchdog monitors one update attempt. It owns the pipeline cancel
// channel: a deadline trip and an explicit abort close the same channel,
// so every cancel consumer (transfer workers, injected stalls, the
// RESTART hang point) unwinds identically for both.
type watchdog struct {
	deadlines map[string]time.Duration
	plane     *faultinject.Plane
	rec       *obs.Recorder

	cancel     chan struct{} // the update's pipeline cancel; see trace.Options.Cancel
	cancelOnce sync.Once

	phaseC chan string
	quit   chan struct{}
	done   chan struct{}

	mu       sync.Mutex
	breached string   // phase that tripped ("" = none)
	hooks    []func() // run once on trip (late registration runs now)
}

func newWatchdog(deadlines map[string]time.Duration, plane *faultinject.Plane, rec *obs.Recorder) *watchdog {
	w := &watchdog{
		deadlines: deadlines,
		plane:     plane,
		rec:       rec,
		cancel:    make(chan struct{}),
		phaseC:    make(chan string),
		quit:      make(chan struct{}),
		done:      make(chan struct{}),
	}
	go w.run()
	return w
}

// run is the monitor goroutine: phase entries arm the phase's timer,
// exits (and unbudgeted phases) disarm it, expiry trips the watchdog.
func (w *watchdog) run() {
	defer close(w.done)
	timer := time.NewTimer(time.Hour)
	if !timer.Stop() {
		<-timer.C
	}
	defer timer.Stop()
	armed := false
	var phase string
	disarm := func() {
		if armed && !timer.Stop() {
			<-timer.C
		}
		armed = false
	}
	for {
		select {
		case ph := <-w.phaseC:
			disarm()
			phase = ph
			if d, ok := w.deadlines[ph]; ok && d > 0 {
				timer.Reset(d)
				armed = true
			}
		case <-timer.C:
			armed = false
			w.trip(phase)
			return
		case <-w.quit:
			disarm()
			return
		}
	}
}

// setPhase starts phase ph's budget; "" stops the clock between phases.
func (w *watchdog) setPhase(ph string) {
	select {
	case w.phaseC <- ph:
	case <-w.done: // tripped or stopped; the phase clock no longer matters
	}
}

// trip is the expiry action: record the breach, cancel the pipeline,
// release injected stalls so a parked phase unwinds through its error
// path, and run the registered hooks (e.g. failing a hung RESTART).
func (w *watchdog) trip(phase string) {
	w.mu.Lock()
	w.breached = phase
	hooks := w.hooks
	w.hooks = nil
	w.mu.Unlock()
	w.rec.InstantNote(obs.TrackEngine, obs.PhaseDeadline, "deadline:"+phase)
	w.rec.Metrics().Counter("core.deadline_breaches").Add(1)
	w.cancelPipeline()
	w.plane.ReleaseStalls()
	for _, h := range hooks {
		h()
	}
}

// cancelPipeline closes the update's cancel channel; shared by the trip
// path and the lifecycle's explicit abort (close exactly once either way).
func (w *watchdog) cancelPipeline() {
	w.cancelOnce.Do(func() { close(w.cancel) })
}

// stop ends the monitor goroutine; the deferred call in Update, once per
// watchdog.
func (w *watchdog) stop() {
	close(w.quit)
	<-w.done
}

// onTrip registers fn to run when (or immediately if) the watchdog
// trips. Used by restart to break a genuinely hung WaitStartup: the
// cancel channel alone cannot reach a startup that ignores it.
func (w *watchdog) onTrip(fn func()) {
	w.mu.Lock()
	tripped := w.breached != ""
	if !tripped {
		w.hooks = append(w.hooks, fn)
	}
	w.mu.Unlock()
	if tripped {
		fn()
	}
}

// wrap substitutes the deadline as the primary cause of err when the
// watchdog tripped: the phase's own error (a canceled transfer, a
// released stall, a failed startup) is the *mechanism* of the abort, the
// breached budget is the *reason*, and RollbackCause reports reasons. A
// nil err still comes back as the breach: once tripped, the pipeline
// cancel has fired and downstream state cannot be trusted, so the update
// rolls back even when the interrupted phase managed to return success.
func (w *watchdog) wrap(err error) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.breached == "" {
		return err
	}
	return &DeadlineError{Phase: w.breached, Budget: w.deadlines[w.breached], Cause: err}
}
