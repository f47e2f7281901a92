package canary

import (
	"time"

	"repro/internal/obs"
)

// Config is one canary window: the SLO every interval must clear, the
// cumulative sample feed (see workload.CanarySource), how long the window
// stays open, and the flight recorder its spans and counters land in (nil
// records nothing).
type Config struct {
	SLO      SLO
	Source   func() Sample
	Window   time.Duration
	Recorder *obs.Recorder
}

// A window is judged in intervals equal parts, the first grace of them
// exempt from breaching (see Monitor): they absorb the commit transient.
const (
	intervals = 10
	grace     = 2
)

// Window outcomes.
const (
	Finalized    = "finalized"     // every interval held the SLO
	Reverted     = "reverted"      // a breach, and the revert committed
	RevertFailed = "revert-failed" // a breach, and the revert rolled back
)

// Verdict is how a window ended.
type Verdict struct {
	Outcome   string        // Finalized, Reverted or RevertFailed
	Breach    *Breach       // the breach behind a revert; nil when finalized
	Monitor   MonitorStatus // the monitor's final state
	RevertErr error         // the revert's error (RevertFailed)
}

// Watch runs one canary window over the version an update just committed.
// It seeds a monitor from the current sample, judges the SLO every
// Window/10 until the window ends or an interval breaches, and on a breach
// calls revert, the caller's live update back to the old version, once.
// baseRPS anchors the throughput gate: the caller samples it before the
// update. The window span, a judge instant per tick, a revert span around
// revert and the canary.* counters land on the recorder's canary track.
func Watch(cfg Config, baseRPS float64, revert func() error) Verdict {
	rec := cfg.Recorder
	win := rec.Span(obs.TrackCanary, obs.PhaseCanaryWindow)
	mon := NewMonitor(cfg.SLO, baseRPS, cfg.Source(), grace)
	end := time.Now().Add(cfg.Window)
	var br *Breach
	// The last tick judges the final partial interval too: a regression
	// landing just before the deadline must not slip through.
	for left := cfg.Window; br == nil && left > 0; left = time.Until(end) {
		time.Sleep(min(cfg.Window/intervals, left))
		br = mon.Tick(cfg.Source())
		judge(rec, br)
	}
	v := Verdict{Outcome: Finalized, Breach: br}
	if br == nil {
		rec.Metrics().Counter("canary.finalized").Add(1)
	} else {
		rsp := rec.Span(obs.TrackCanary, obs.PhaseCanaryRevert)
		note, counter := br.String(), "canary.reverted"
		v.Outcome = Reverted
		if v.RevertErr = revert(); v.RevertErr != nil {
			v.Outcome, counter = RevertFailed, "canary.revert_failed"
			note += "; revert failed: " + v.RevertErr.Error()
		}
		rec.Metrics().Counter(counter).Add(1)
		rsp.EndNote(note)
	}
	v.Monitor = mon.Status()
	win.EndNote(v.Outcome)
	return v
}

// judge records one SLO tick; a breach carries the failing metric as the
// note.
func judge(rec *obs.Recorder, br *Breach) {
	if !rec.On() {
		return
	}
	if br != nil {
		rec.InstantNote(obs.TrackCanary, obs.PhaseCanaryJudge, "breach:"+br.Metric)
		rec.Metrics().Counter("canary.breaches").Add(1)
		return
	}
	rec.InstantNote(obs.TrackCanary, obs.PhaseCanaryJudge, "pass")
}
