package core

import (
	"testing"
	"time"

	"repro/internal/kernel"
)

func newIdleEngine(t *testing.T) *Engine {
	t.Helper()
	e, err := NewEngine(kernel.New(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func (e *Engine) phaseDeadlines() map[string]time.Duration {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.deadlines
}

// TestSetPhaseDeadlinesKeepsUnlistedDefaults pins the watchdog setter's
// merge: a budget given for one phase leaves every other phase at its
// default (mcr-ctl -deadline restart=250ms must not unbudget the
// transfer), nil restores the default profile, and an unknown phase is
// refused without touching the table.
func TestSetPhaseDeadlinesKeepsUnlistedDefaults(t *testing.T) {
	e := newIdleEngine(t)
	defaults := DefaultPhaseDeadlines()
	if err := e.SetPhaseDeadlines(map[string]time.Duration{WDRestart: 250 * time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	got := e.phaseDeadlines()
	if len(got) != len(defaults) {
		t.Fatalf("table has %d phases, want %d: %v", len(got), len(defaults), got)
	}
	for ph, def := range defaults {
		want := def
		if ph == WDRestart {
			want = 250 * time.Millisecond
		}
		if got[ph] != want {
			t.Errorf("phase %s budget = %v, want %v", ph, got[ph], want)
		}
	}

	if err := e.SetPhaseDeadlines(map[string]time.Duration{"bogus": time.Second}); err == nil {
		t.Error("unknown phase accepted")
	}
	if got := e.phaseDeadlines()[WDRestart]; got != 250*time.Millisecond {
		t.Errorf("a refused table changed the restart budget to %v", got)
	}

	if err := e.SetPhaseDeadlines(nil); err != nil {
		t.Fatal(err)
	}
	for ph, def := range defaults {
		if got := e.phaseDeadlines()[ph]; got != def {
			t.Errorf("after nil: phase %s budget = %v, want default %v", ph, got, def)
		}
	}
}

// TestSetWarmPacingRejectsDutyCycleOutOfRange pins the pacing setter's
// range check: a duty cycle is a fraction of wall clock.
func TestSetWarmPacingRejectsDutyCycleOutOfRange(t *testing.T) {
	e := newIdleEngine(t)
	for _, duty := range []float64{0, 0.25, 1} {
		if err := e.SetWarmPacing(time.Millisecond, duty); err != nil {
			t.Errorf("duty cycle %g refused: %v", duty, err)
		}
	}
	for _, duty := range []float64{-0.1, 1.5} {
		if err := e.SetWarmPacing(time.Millisecond, duty); err == nil {
			t.Errorf("duty cycle %g accepted", duty)
		}
	}
	if e.warmDuty != 1 {
		t.Errorf("refused settings changed the duty cycle to %g", e.warmDuty)
	}
}

// TestCtlReplyWaitOutlastsDefaultProfile pins the controller client's
// reply wait to the watchdog: an update that wedges under the default
// profile must roll back, and its reply must arrive, before the client
// gives up on it.
func TestCtlReplyWaitOutlastsDefaultProfile(t *testing.T) {
	var profile time.Duration
	for _, budget := range DefaultPhaseDeadlines() {
		profile += budget
	}
	if w := ctlReplyWait(); w <= profile {
		t.Fatalf("reply wait %v does not outlast the default profile %v", w, profile)
	}
}
