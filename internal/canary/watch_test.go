package canary

import (
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

// script returns a sample source whose every call after the first (the
// seed) adds ten completions at each: a timing-free feed.
func script(each time.Duration) func() Sample {
	s := sampleAt(100, 0, time.Second, 100*time.Microsecond, 100)
	seeded := false
	return func() Sample {
		if seeded {
			s.Requests += 10
			s.Elapsed += 10 * time.Millisecond
			for i := 0; i < 10; i++ {
				s.Hist.Observe(each)
			}
		}
		seeded = true
		return s
	}
}

// TestWatchVerdicts drives the three outcomes: a healthy feed runs the
// window to its end without calling revert; a slow feed breaches on the
// first interval past the grace and calls revert exactly once; a revert
// that fails leaves revert-failed with its error. The recorder gets the
// window span with the outcome, a judge instant per tick and, on a breach,
// a revert span noting the breach and any revert error.
func TestWatchVerdicts(t *testing.T) {
	slo := SLO{MaxP99: time.Millisecond}
	cases := []struct {
		name      string
		each      time.Duration
		revertErr error
		want      string
	}{
		{"healthy", 100 * time.Microsecond, nil, Finalized},
		{"breach", 30 * time.Millisecond, nil, Reverted},
		{"revert-fails", 30 * time.Millisecond, errors.New("quiescence: timeout"), RevertFailed},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rec := obs.New(1 << 10)
			reverts := 0
			v := Watch(Config{SLO: slo, Source: script(tc.each), Window: 50 * time.Millisecond, Recorder: rec}, 0,
				func() error { reverts++; return tc.revertErr })
			if v.Outcome != tc.want || v.RevertErr != tc.revertErr {
				t.Fatalf("outcome %q (revert error %v), want %q", v.Outcome, v.RevertErr, tc.want)
			}
			wantReverts := 1
			if tc.want == Finalized {
				wantReverts = 0
				if v.Breach != nil || v.Monitor.Intervals < 1 || v.Monitor.Intervals > intervals {
					t.Fatalf("breach %v after %d intervals, want none after 1..%d", v.Breach, v.Monitor.Intervals, intervals)
				}
			} else if v.Breach == nil || v.Breach.Metric != "p99" || v.Breach.Interval != grace+1 || v.Monitor.Intervals != grace+1 {
				t.Fatalf("breach %+v after %d intervals, want p99 on interval %d", v.Breach, v.Monitor.Intervals, grace+1)
			}
			if reverts != wantReverts {
				t.Fatalf("revert called %d times, want %d", reverts, wantReverts)
			}

			evs := rec.Events()
			if err := obs.CheckSpans(evs); err != nil {
				t.Fatal(err)
			}
			var win, rev []string
			for _, s := range obs.Pair(evs) {
				switch s.Phase {
				case obs.PhaseCanaryWindow:
					win = append(win, s.Note)
				case obs.PhaseCanaryRevert:
					rev = append(rev, s.Note)
				}
			}
			judges := 0
			for _, iv := range obs.Instants(evs) {
				if iv.Phase == obs.PhaseCanaryJudge {
					judges++
				}
			}
			if len(win) != 1 || win[0] != tc.want || judges != v.Monitor.Intervals {
				t.Fatalf("window notes %q, %d judges, want [%s] and %d", win, judges, tc.want, v.Monitor.Intervals)
			}
			if len(rev) != wantReverts {
				t.Fatalf("revert spans %q, want %d", rev, wantReverts)
			}
			if wantReverts == 1 && (!strings.HasPrefix(rev[0], "p99") ||
				(tc.revertErr != nil) != strings.Contains(rev[0], "revert failed: quiescence")) {
				t.Fatalf("revert span note %q", rev[0])
			}
			if n := rec.Metrics().Snapshot()["canary."+strings.ReplaceAll(tc.want, "-", "_")]; n != 1 {
				t.Fatalf("canary.%s = %d, want 1", tc.want, n)
			}
		})
	}
}

// TestBaselineIsTheRecentRate: the throughput gate's base is the rate of
// one interval sampled before the update, not the feed's cumulative rate.
// The feed starts slow, so its cumulative rate is about a third of its
// recent one and climbs while it runs; every call advances it by ten
// completions in 10 ms of driver time, so nothing here reads the clock.
func TestBaselineIsTheRecentRate(t *testing.T) {
	s := Sample{Requests: 100, Elapsed: 300 * time.Millisecond}
	feed := func() Sample {
		s.Requests += 10
		s.Elapsed += 10 * time.Millisecond
		return s
	}
	cfg := Config{Source: feed, Window: time.Millisecond}
	const recent = 1000.0 // 10 completions per 10 ms
	if cum := s.Throughput(); cum > recent/2.5 {
		t.Fatalf("cumulative rate %.0f/s is not well below the recent %.0f/s: the feed proves nothing", cum, recent)
	}
	first := Baseline(cfg)
	if first != recent {
		t.Fatalf("baseline %.1f/s, want the recent rate %.0f/s (cumulative %.1f/s)", first, recent, s.Throughput())
	}
	// A window's worth of steady serving, then the next update's baseline.
	for i := 0; i < 50; i++ {
		feed()
	}
	second := Baseline(cfg)
	if r := max(first, second) / min(first, second); r > 1.2 {
		t.Fatalf("successive baselines %.1f/s and %.1f/s differ %.2fx on a steady feed", first, second, r)
	}
}
