package core

import (
	"strings"
	"testing"
	"time"

	"repro/internal/canary"
	"repro/internal/obs"
)

// enginePhases extracts the engine-track span phases in start order — the
// phase sequence the flight recorder claims the update executed.
func enginePhases(spans []obs.PhaseSpan) []string {
	var out []string
	for _, s := range spans {
		if s.Track == obs.TrackEngine {
			out = append(out, s.Phase)
		}
	}
	return out
}

func findSpan(spans []obs.PhaseSpan, track, phase string) (obs.PhaseSpan, bool) {
	for _, s := range spans {
		if s.Track == track && s.Phase == phase {
			return s, true
		}
	}
	return obs.PhaseSpan{}, false
}

// TestUpdatePhaseOrdering drives every update flavor with a live recorder
// and asserts the recorded event stream is well-formed (every begin has a
// matching end, nothing left open) and the engine-track phases run in
// exactly the order each engine promises. This is the observability
// contract the `events` command and the trace export build on: if a
// phase goes missing or reorders, every consumer lies.
func TestUpdatePhaseOrdering(t *testing.T) {
	cases := []struct {
		name string
		opts Options
		warm bool
		// canary: "" = none, otherwise the expected window verdict
		// ("finalized" or "reverted").
		canary string
		// conflictPort makes the v2 bind a different port, forcing a
		// replay conflict and a pre-commit rollback.
		conflictPort bool
		wantEngine   []string
	}{
		{
			name:       "sequential",
			opts:       Options{Sequential: true, Audit: true},
			wantEngine: []string{obs.PhaseUpdate, obs.PhaseQuiesce, obs.PhaseAnalyze, obs.PhaseRestart, obs.PhaseRemap, obs.PhaseCommit},
		},
		{
			name:       "pipelined",
			opts:       Options{Audit: true},
			wantEngine: []string{obs.PhaseUpdate, obs.PhaseSpeculate, obs.PhaseQuiesce, obs.PhaseValidate, obs.PhaseRestart, obs.PhaseRemap, obs.PhaseCommit},
		},
		{
			name:       "warm",
			opts:       Options{Audit: true},
			warm:       true,
			wantEngine: []string{obs.PhaseUpdate, obs.PhaseQuiesce, obs.PhaseValidate, obs.PhaseRestart, obs.PhaseRemap, obs.PhaseCommit},
		},
		{
			name:       "canary-accept",
			opts:       Options{Audit: true},
			canary:     "finalized",
			wantEngine: []string{obs.PhaseUpdate, obs.PhaseSpeculate, obs.PhaseQuiesce, obs.PhaseValidate, obs.PhaseRestart, obs.PhaseRemap, obs.PhaseCommit},
		},
		{
			// The revert is a second update, back to v1, run by the window.
			name:   "canary-revert",
			opts:   Options{Audit: true},
			canary: "reverted",
			wantEngine: []string{obs.PhaseUpdate, obs.PhaseSpeculate, obs.PhaseQuiesce, obs.PhaseValidate, obs.PhaseRestart, obs.PhaseRemap, obs.PhaseCommit,
				obs.PhaseUpdate, obs.PhaseSpeculate, obs.PhaseQuiesce, obs.PhaseValidate, obs.PhaseRestart, obs.PhaseRemap, obs.PhaseCommit},
		},
		{
			name:         "rollback-mid-update",
			opts:         Options{Audit: true},
			conflictPort: true,
			wantEngine:   []string{obs.PhaseUpdate, obs.PhaseSpeculate, obs.PhaseQuiesce, obs.PhaseValidate, obs.PhaseRestart, obs.PhaseRollback},
		},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rec := obs.New(1 << 16) // roomy: the strict checks below need a complete capture
			tc.opts.Recorder = rec
			e, k := launchEchod(t, tc.opts)
			defer e.Shutdown()
			if tc.warm {
				armWarm(t, e)
			}

			// A little session traffic so the transfer has mutable state to
			// move (a traffic-free update transfers nothing and digests no
			// checksum).
			cc, err := k.Connect(7000)
			if err != nil {
				t.Fatal(err)
			}
			sendRecv(t, cc, "a")
			sendRecv(t, cc, "b")

			if tc.warm && !e.WarmWait(5*time.Second) {
				t.Fatal("warm daemon never became current")
			}

			port := 7000
			if tc.conflictPort {
				port = 7001
			}
			back := e.Current().Version()
			rep, err := e.Update(echodVersion("2.0", 1, "v2", true, port))
			if tc.conflictPort {
				if err == nil || !rep.RolledBack {
					t.Fatalf("conflicting update did not roll back (err=%v)", err)
				}
			} else if err != nil {
				t.Fatalf("Update: %v", err)
			}
			if tc.canary != "" {
				watch := watchHealthy
				if tc.canary == canary.Reverted {
					watch = watchBreach
				}
				if v := watch(e, back); v.Outcome != tc.canary {
					t.Fatalf("canary outcome = %q, want %q (breach %v)", v.Outcome, tc.canary, v.Breach)
				}
			}
			// Quiet the background emitters (warm daemon) before taking the
			// strict snapshot: an armed daemon legitimately has a pass or
			// yield span open at any instant.
			e.DisarmWarm()

			if d := rec.Dropped(); d != 0 {
				t.Fatalf("ring overflowed (%d dropped): strict checks need a complete capture", d)
			}
			evs := rec.Events()
			if err := obs.CheckSpans(evs); err != nil {
				t.Fatalf("malformed event stream: %v", err)
			}
			spans := obs.Pair(evs)

			if got := enginePhases(spans); !equalStrings(got, tc.wantEngine) {
				t.Fatalf("engine phases = %v, want %v\n%s", got, tc.wantEngine, obs.Timeline(evs))
			}

			// Every other engine phase runs inside the update span that
			// precedes it.
			var usp obs.PhaseSpan
			var updates []obs.PhaseSpan
			for _, s := range spans {
				if s.Track != obs.TrackEngine {
					continue
				}
				if s.Phase == obs.PhaseUpdate {
					usp = s
					updates = append(updates, s)
					continue
				}
				if s.Start < usp.Start || s.End() > usp.End() {
					t.Errorf("engine span %s [%v,%v] escapes the update span [%v,%v]",
						s.Phase, s.Start, s.End(), usp.Start, usp.End())
				}
			}

			// Transfer track: per-process discovery and copy ran (and with
			// Audit, the aggregate checksum instant) — except on
			// the rollback flavor, which dies before the transfer completes.
			if !tc.conflictPort {
				if _, ok := findSpan(spans, obs.TrackTransfer, obs.PhaseDiscover); !ok {
					t.Error("no discover span on the transfer track")
				}
				if _, ok := findSpan(spans, obs.TrackTransfer, obs.PhaseCopy); !ok {
					t.Error("no copy span on the transfer track")
				}
				cks := false
				for _, iv := range obs.Instants(evs) {
					if iv.Track == obs.TrackTransfer && iv.Phase == obs.PhaseChecksum && iv.Arg != 0 {
						cks = true
					}
				}
				if !cks {
					t.Error("no checksum instant on the transfer track")
				}
			}

			switch tc.name {
			case "warm":
				// The daemon's warm work is on its own track.
				if _, ok := findSpan(spans, obs.TrackDaemon, obs.PhasePass); !ok {
					t.Error("no daemon pass span")
				}
			case "rollback-mid-update":
				rb, _ := findSpan(spans, obs.TrackEngine, obs.PhaseRollback)
				if rb.Note == "" {
					t.Error("rollback span carries no cause note")
				}
				if got := rec.Metrics().Snapshot()["core.rollbacks"]; got != 1 {
					t.Errorf("core.rollbacks = %d, want 1", got)
				}
			}

			if tc.canary != "" {
				win, ok := findSpan(spans, obs.TrackCanary, obs.PhaseCanaryWindow)
				if !ok {
					t.Fatal("no canary-window span")
				}
				if win.Note != tc.canary {
					t.Errorf("canary-window note = %q, want %q", win.Note, tc.canary)
				}
				judges := 0
				for _, iv := range obs.Instants(evs) {
					if iv.Track == obs.TrackCanary && iv.Phase == obs.PhaseCanaryJudge {
						judges++
					}
				}
				if judges == 0 {
					t.Error("no canary-judge instants recorded")
				}
				// A revert is a span of its own, inside the window and
				// around the update back; a window that finalizes has none.
				rsp, ok := findSpan(spans, obs.TrackCanary, obs.PhaseCanaryRevert)
				if ok != (tc.canary == "reverted") {
					t.Fatalf("canary-revert span recorded: %v, outcome %s", ok, tc.canary)
				}
				if ok {
					if rsp.Start < win.Start || rsp.End() > win.End() {
						t.Error("canary-revert span escapes the canary window")
					}
					if back := updates[len(updates)-1]; back.Start < rsp.Start || back.End() > rsp.End() {
						t.Error("the revert's update span escapes the canary-revert span")
					}
					if !strings.HasPrefix(rsp.Note, "p99") {
						t.Errorf("revert span note = %q, want the breach cause", rsp.Note)
					}
				}
			}

			// Counter registry agrees with the report.
			m := rec.Metrics().Snapshot()
			if want := int64(len(updates)); m["core.updates"] != want {
				t.Errorf("core.updates = %d, want %d", m["core.updates"], want)
			}
			wantCommits := int64(len(updates))
			if tc.conflictPort {
				wantCommits = 0
			}
			if m["core.commits"] != wantCommits {
				t.Errorf("core.commits = %d, want %d", m["core.commits"], wantCommits)
			}
		})
	}
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestControllerEventsCommand exercises the mcr-ctl `events` surface: no
// recorder -> ERR, armed recorder -> a timeline whose rows match the
// recorded engine phases.
func TestControllerEventsCommand(t *testing.T) {
	bare, _ := launchEchod(t, Options{})
	defer bare.Shutdown()
	if got := NewController(bare, "/run/mcr0.sock").dispatch("events"); !strings.HasPrefix(got, "ERR") {
		t.Fatalf("events without a recorder = %q, want ERR", got)
	}

	rec := obs.New(0)
	e, _ := launchEchod(t, Options{Recorder: rec, Audit: true})
	defer e.Shutdown()
	c := NewController(e, "/run/mcr.sock")
	c.Stage(echodVersion("2.0", 1, "v2", true, 7000))

	if got := c.dispatch("events x"); !strings.HasPrefix(got, "ERR usage:") {
		t.Fatalf("events with args = %q", got)
	}

	if got := c.dispatch("update 2.0"); !strings.HasPrefix(got, "OK updated") {
		t.Fatalf("update = %q", got)
	}
	got := c.dispatch("events")
	if !strings.HasPrefix(got, "OK update-phase timeline\n") {
		t.Fatalf("events = %q", got)
	}
	for _, phase := range []string{obs.PhaseUpdate, obs.PhaseQuiesce, obs.PhaseRestart, obs.PhaseRemap, obs.PhaseCommit} {
		if !strings.Contains(got, phase) {
			t.Errorf("events output missing phase %q:\n%s", phase, got)
		}
	}
}
