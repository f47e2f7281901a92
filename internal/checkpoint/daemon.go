package checkpoint

import (
	"sync"
	"time"

	"repro/internal/faultinject"
	"repro/internal/obs"
	"repro/internal/program"
	"repro/internal/trace"
)

// DaemonOptions configures the warm-standby readiness daemon.
type DaemonOptions struct {
	// Interval is the base pause between warm passes (default 2ms). Each
	// pass is one incremental analysis refresh.
	Interval time.Duration
	// DutyCycle bounds the fraction of wall clock the daemon may spend
	// doing warm work (default 0.25): after a pass that took d, the next
	// pass starts no sooner than d*(1-DutyCycle)/DutyCycle later. This is
	// the backpressure that keeps warm passes from starving the serving
	// workload — a heavy pass automatically stretches the pause.
	DutyCycle float64
	// Recorder, when set, records every pass and backpressure yield as
	// spans on the daemon track and unifies the pass and yield tallies
	// into the metrics registry — the alignment data the spike trace
	// correlates workload p99 against.
	Recorder *obs.Recorder
	// Faults consults the fault-injection plane at the pass seam
	// (faultinject.PointDaemonStall). nil never fires.
	Faults *faultinject.Plane
}

func (o *DaemonOptions) fill() {
	if o.Interval <= 0 {
		o.Interval = 2 * time.Millisecond
	}
	if o.DutyCycle <= 0 || o.DutyCycle > 1 {
		o.DutyCycle = 0.25
	}
}

// DaemonStats summarizes a daemon's warm work so far.
type DaemonStats struct {
	Passes      int // warm passes (one analysis refresh each)
	Reanalyzed  int // warm-analysis recomputations (per-process)
	Revalidated int // processes revalidated for free against the deltas
	Dropped     int // entries dropped for exited processes
	Errors      int // analysis failures (entry invalidated) and stalled passes
	// What the recomputations took, per page: pages scanned, and page
	// summaries that stood (the last pass's, for "why was this pass slow").
	PagesRescanned     int
	PagesReused        int
	LastPagesRescanned int
	// FullSteps counts the recomputations that scanned every page of
	// their process, by cause.
	FullSteps trace.FullSteps

	// Duty-cycle accounting, the raw material of the overhead curve:
	// WorkTime is wall clock spent inside passes, PauseTime wall clock
	// yielded back to the serving workload between them (a pause in
	// progress counts up to the moment Stats is read), and Yields
	// counts the pauses the backpressure stretched beyond the base
	// interval (a heavy pass forcing extra uncontended time). The
	// measured duty fraction is WorkTime/(WorkTime+PauseTime), bounded
	// by DaemonOptions.DutyCycle.
	WorkTime  time.Duration
	PauseTime time.Duration
	Yields    int
}

// DutyFraction returns the measured fraction of wall clock the daemon
// spent doing warm work (0 if it never ran).
func (s DaemonStats) DutyFraction() float64 {
	total := s.WorkTime + s.PauseTime
	if total <= 0 {
		return 0
	}
	return float64(s.WorkTime) / float64(total)
}

// Daemon is the warm-standby readiness loop: between updates it keeps a
// trace.WarmAnalysis incrementally revalidated against the memory delta
// counters, so an update can begin at quiescence with the pre-quiesce work
// already done. The analysis is the caller's: the engine keeps one per
// running instance and hands it to each daemon it arms there, and stops
// the daemon when an update starts. The update trusts nothing the daemon
// did unchecked: it revalidates the analysis in-window.
type Daemon struct {
	inst *program.Instance
	warm *trace.WarmAnalysis
	opts DaemonOptions

	stop     chan struct{}
	done     chan struct{}
	stopOnce sync.Once

	rec              *obs.Recorder
	cPasses, cYields *obs.Counter

	mu    sync.Mutex
	stats DaemonStats
	// pausing is when the pause in progress began (zero between pauses):
	// Stats credits it, so a reading taken mid-pause — the usual place, a
	// pause being three times a pass — does not report all work, no rest.
	pausing time.Time
}

// StartDaemon starts the warm loop over the running instance. The
// instance keeps serving throughout; analysis reads synchronize through
// the address-space locks.
func StartDaemon(inst *program.Instance, warm *trace.WarmAnalysis, opts DaemonOptions) *Daemon {
	opts.fill()
	d := &Daemon{
		inst: inst,
		warm: warm,
		opts: opts,
		stop: make(chan struct{}),
		done: make(chan struct{}),
		rec:  opts.Recorder,
	}
	m := opts.Recorder.Metrics()
	d.cPasses = m.Counter("daemon.passes")
	d.cYields = m.Counter("daemon.yields")
	go d.loop()
	return d
}

func (d *Daemon) loop() {
	defer close(d.done)
	for {
		select {
		case <-d.stop:
			return
		default:
		}
		t0 := time.Now()
		psp := d.rec.Span(obs.TrackDaemon, obs.PhasePass)
		d.pass()
		psp.End()
		took := time.Since(t0)
		// Backpressure: a pass that took d leaves the workload at least
		// d*(1-duty)/duty of uncontended time before the next one.
		pause := d.opts.Interval
		yielded := false
		if min := time.Duration(float64(took) * (1 - d.opts.DutyCycle) / d.opts.DutyCycle); min > pause {
			pause = min
			yielded = true
		}
		d.mu.Lock()
		d.stats.WorkTime += took
		if yielded {
			d.stats.Yields++
			d.cYields.Add(1)
		}
		d.pausing = time.Now()
		d.mu.Unlock()
		ysp := d.rec.Span(obs.TrackDaemon, obs.PhaseYield)
		stopped := false
		select {
		case <-d.stop:
			stopped = true
		case <-time.After(pause):
		}
		ysp.End()
		d.mu.Lock()
		d.stats.PauseTime += time.Since(d.pausing)
		d.pausing = time.Time{}
		d.mu.Unlock()
		if stopped {
			return
		}
	}
}

// pass runs one warm iteration: refresh the warm analysis.
func (d *Daemon) pass() {
	// Injected stall: the pass hangs until the daemon is stopped (the
	// update's detach join releases it via d.stop) or the plane's stalls
	// are released. It counts as a failed pass; the update revalidates
	// the analysis in-window whatever the daemon left.
	if err := d.opts.Faults.Stall(faultinject.PointDaemonStall, d.stop); err != nil {
		d.mu.Lock()
		d.stats.Errors++
		d.mu.Unlock()
		return
	}
	rs := d.warm.Refresh(d.inst)

	d.mu.Lock()
	d.stats.Passes++
	d.cPasses.Add(1)
	d.stats.Reanalyzed += rs.Reanalyzed
	d.stats.Revalidated += rs.Revalidated
	d.stats.Dropped += rs.Dropped
	d.stats.Errors += rs.Errors
	d.stats.PagesRescanned += rs.PagesRescanned
	d.stats.PagesReused += rs.PagesReused
	d.stats.LastPagesRescanned = rs.PagesRescanned
	d.stats.FullSteps.Add(rs.Full)
	d.mu.Unlock()
}

// Stop halts the warm loop and waits for any in-flight pass to finish.
// Safe to call more than once and safe mid-pass: the loop only observes
// the signal between passes, so the analysis is always left in a
// consistent state for the engine to resolve.
func (d *Daemon) Stop() {
	d.stopOnce.Do(func() { close(d.stop) })
	<-d.done
}

// Warm returns the analysis the daemon steps.
func (d *Daemon) Warm() *trace.WarmAnalysis { return d.warm }

// DutyCycle returns the configured duty-cycle bound.
func (d *Daemon) DutyCycle() float64 { return d.opts.DutyCycle }

// Stats returns a snapshot of the daemon's accumulated statistics, the
// pause in progress included.
func (d *Daemon) Stats() DaemonStats {
	d.mu.Lock()
	defer d.mu.Unlock()
	st := d.stats
	if !d.pausing.IsZero() {
		st.PauseTime += time.Since(d.pausing)
	}
	return st
}

// Current reports instantaneous readiness: every live process's warm
// analysis validates against the delta counters right now. The probe is a
// counter comparison — no analysis work — so Current is cheap to poll and
// cannot return stale truth the way a last-pass flag would (a write
// landing after a pass flips it back to false immediately).
func (d *Daemon) Current() bool {
	return !d.warm.Stale(d.inst)
}

// WaitCurrent blocks until the daemon reports Current (the analysis has
// caught up with the workload) or the timeout elapses.
func (d *Daemon) WaitCurrent(timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for {
		if d.Current() {
			return true
		}
		if time.Now().After(deadline) {
			return false
		}
		select {
		case <-d.done:
			return d.Current()
		case <-time.After(200 * time.Microsecond):
		}
	}
}
