package core

import (
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/canary"
	"repro/internal/checkpoint"
	"repro/internal/leakcheck"
	"repro/internal/obs"
	"repro/internal/program"
	"repro/internal/trace"
)

// scriptedFeed is a canary sample source whose script does not depend on
// timing: its first call (the seed canary.Watch takes) reads 100 requests
// at 200µs over a second, and every later call adds ten completions at
// each over 10ms and errs of them as errors. So a feed of slow completions
// breaches a tighter p99 gate on the first judged tick, however the ticks
// fall.
func scriptedFeed(each time.Duration, errs int) func() canary.Sample {
	var s canary.Sample
	s.Requests, s.Elapsed = 100, time.Second
	for i := 0; i < 100; i++ {
		s.Hist.Observe(200 * time.Microsecond)
	}
	seeded := false
	return func() canary.Sample {
		if seeded {
			s.Requests += 10
			s.Errors += errs
			s.Elapsed += 10 * time.Millisecond
			for i := 0; i < 10; i++ {
				s.Hist.Observe(each)
			}
		}
		seeded = true
		return s
	}
}

// Window lengths for the tests: a breaching feed against a 1ms p99 gate
// reverts on the third tick (the first after the grace intervals), three
// tenths into its window; a healthy one against a 1s gate runs a short
// window to its end and finalizes.
const (
	breachWindow  = 300 * time.Millisecond
	healthyWindow = 20 * time.Millisecond
)

// watchBack runs a canary window over e's serving version whose revert is
// a live update back to the version back, recorded on e's recorder.
func watchBack(e *Engine, back *program.Version, slo canary.SLO, src func() canary.Sample, window time.Duration) canary.Verdict {
	cfg := canary.Config{SLO: slo, Source: src, Window: window, Recorder: e.Recorder()}
	return canary.Watch(cfg, 0, func() error {
		_, err := e.Update(back)
		return err
	})
}

// watchBreach runs a window that breaches p99 on its first judged tick.
func watchBreach(e *Engine, back *program.Version) canary.Verdict {
	return watchBack(e, back, canary.SLO{MaxP99: time.Millisecond},
		scriptedFeed(100*time.Millisecond, 0), breachWindow)
}

// watchHealthy runs a window that holds its SLO to the end.
func watchHealthy(e *Engine, back *program.Version) canary.Verdict {
	return watchBack(e, back, canary.SLO{MaxP99: time.Second},
		scriptedFeed(200*time.Microsecond, 0), healthyWindow)
}

// consumedPages sums the consumed (read-and-not-yet-restored) soft-dirty
// bits across an instance's address spaces. Every consumed bit is handed
// back by the time an update or a window resolves, so this must be zero
// on the surviving instance.
func consumedPages(inst *program.Instance) int {
	n := 0
	for _, p := range inst.Procs() {
		n += p.Space().ConsumedCount()
	}
	return n
}

// armedSnapshot returns the armed daemon's snapshotter: the one the next
// warm update adopts. A rollback test holds it across Update and checks
// Discarded on it directly, because the daemon the update re-arms (and
// any later DisarmWarm) restores the same address spaces' bits and would
// hide an adopted snapshotter that was never discarded.
func armedSnapshot(t *testing.T, e *Engine) *checkpoint.Snapshotter {
	t.Helper()
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.daemon == nil {
		t.Fatal("no warm daemon armed")
	}
	return e.daemon.Snapshot()
}

func mustDigest(t *testing.T, inst *program.Instance) uint64 {
	t.Helper()
	d, err := trace.StateDigest(inst)
	if err != nil {
		t.Fatalf("StateDigest: %v", err)
	}
	return d
}

// TestCanaryFaultMatrix breaches a canary window in every shape and
// asserts it resolves to a consistent engine: the old version serves the
// same sessions with every count the new version took, the revert is the
// one update History gains, every consumed soft-dirty bit is restored, the
// transfer checksum recorded at commit is untouched, nothing the window
// spawned outlives it, and a follow-up update still works. Run under
// -race: the warm case is a revert that takes over the daemon the update
// re-armed on the new version.
func TestCanaryFaultMatrix(t *testing.T) {
	cases := []struct {
		name string
		warm bool
		slo  canary.SLO
		feed func() canary.Sample
		// wantMetric is the breach the single revert is charged to.
		wantMetric string
	}{
		{
			name:       "breach-during-window",
			slo:        canary.SLO{MaxP99: time.Millisecond},
			feed:       scriptedFeed(100*time.Millisecond, 0),
			wantMetric: "p99",
		},
		{
			// Every judged interval breaches two gates at once: one
			// breach, charged to the first gate checked, and one revert.
			name:       "double-breach",
			slo:        canary.SLO{MaxP99: time.Millisecond, MaxErrorRate: 0.01},
			feed:       scriptedFeed(100*time.Millisecond, 5),
			wantMetric: "p99",
		},
		{
			name:       "revert-races-warm-rearm",
			warm:       true,
			slo:        canary.SLO{MaxP99: time.Millisecond},
			feed:       scriptedFeed(100*time.Millisecond, 0),
			wantMetric: "p99",
		},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e, k := launchEchod(t, Options{Audit: true})
			defer e.Shutdown()
			if tc.warm {
				armWarm(t, e)
			}

			c1, err := k.Connect(7000)
			if err != nil {
				t.Fatal(err)
			}
			c2, err := k.Connect(7000)
			if err != nil {
				t.Fatal(err)
			}
			if got := sendRecv(t, c1, "a"); got != "v1:a:1" {
				t.Fatalf("pre-update reply = %q", got)
			}
			if got := sendRecv(t, c1, "b"); got != "v1:b:2" {
				t.Fatalf("pre-update reply = %q", got)
			}
			if got := sendRecv(t, c2, "x"); got != "v1:x:1" {
				t.Fatalf("pre-update c2 reply = %q", got)
			}
			if tc.warm && !e.WarmWait(5*time.Second) {
				t.Fatal("warm daemon never became current")
			}

			g0 := leakcheck.Goroutines()
			back := e.Current().Version()
			rep, err := e.Update(echodVersion("2.0", 1, "v2", true, 7000))
			if err != nil {
				t.Fatalf("Update: %v", err)
			}
			cs0 := rep.Transfer.Checksum
			if cs0 == 0 {
				t.Fatal("Audit produced no checksum")
			}
			// The new version serves the live traffic, old session
			// counters carried over.
			if got := sendRecv(t, c1, "during"); got != "v2:during:3" {
				t.Fatalf("mid-window reply = %q", got)
			}

			v := watchBack(e, back, tc.slo, tc.feed, breachWindow)
			if v.Outcome != canary.Reverted || v.RevertErr != nil {
				t.Fatalf("outcome %q (revert error %v), want reverted", v.Outcome, v.RevertErr)
			}
			if v.Breach == nil || v.Breach.Metric != tc.wantMetric || v.Breach.Interval != 3 {
				t.Fatalf("breach %+v, want %s on interval 3", v.Breach, tc.wantMetric)
			}
			if v.Monitor.Intervals != 3 || v.Monitor.Breach != v.Breach {
				t.Fatalf("monitor %+v, want three intervals ending in the breach", v.Monitor)
			}
			hist := e.History()
			if len(hist) != 2 || hist[0] != rep {
				t.Fatalf("history holds %d reports, want the update and its revert", len(hist))
			}
			if rep.RolledBack {
				t.Fatal("the deployed update reads as rolled back; its revert is an update of its own")
			}
			if rev := hist[1]; rev.RolledBack || rev.Transfer.Checksum == 0 {
				t.Fatalf("revert report %+v, want a committed update with a checksum", rev)
			}

			// The old version serves the same sessions, with the count of
			// every message the new version answered.
			cur := e.Current()
			if cur.Version() != back {
				t.Fatalf("revert left %s serving, want %s", cur.Version(), back)
			}
			if got := sendRecv(t, c1, "after"); got != "v1:after:4" {
				t.Fatalf("post-window reply = %q, want v1:after:4", got)
			}
			// Commit released the RESTART pid reservations.
			if pids := cur.Root().KProc().ReservedPids(); len(pids) != 0 {
				t.Fatalf("pid reservations survived the window: %v", pids)
			}
			// The transfer checksum recorded at commit is untouched by the
			// window's resolution.
			if rep.Transfer.Checksum != cs0 {
				t.Fatalf("transfer checksum changed across the window: %#x -> %#x", cs0, rep.Transfer.Checksum)
			}

			// Consumed soft-dirty bits all restored on the survivor (stop
			// the warm daemon first — it legitimately holds consumed bits
			// while armed).
			if tc.warm {
				e.DisarmWarm()
			}
			if n := consumedPages(cur); n != 0 {
				t.Fatalf("%d consumed soft-dirty pages not restored", n)
			}
			if err := leakcheck.CheckGoroutines(g0, 2*time.Second); err != nil {
				t.Fatal(err)
			}
			if err := leakcheck.CheckReservedPids(cur); err != nil {
				t.Fatal(err)
			}

			// The survivor is still updateable: shadows and soft-dirty
			// accounting stayed valid across the revert.
			rep2, err := e.Update(echodVersion("3.0", cur.Version().Seq+1, "v3", true, 7000))
			if err != nil {
				t.Fatalf("follow-up update: %v", err)
			}
			if rep2.RolledBack || rep2.Transfer.Checksum == 0 {
				t.Fatalf("follow-up update rolled back %v, checksum %#x", rep2.RolledBack, rep2.Transfer.Checksum)
			}
			if got := sendRecv(t, c1, "final"); !strings.HasPrefix(got, "v3:final:") {
				t.Fatalf("post-follow-up reply = %q, want v3 banner", got)
			}
		})
	}
}

// TestCanaryRevertIsInHistory: a revert is a plain update, so History
// holds both after one: v1→v2 committed, then v2→v1 committed, in that
// order, with v1 serving.
func TestCanaryRevertIsInHistory(t *testing.T) {
	e, k := launchEchod(t, Options{Audit: true})
	defer e.Shutdown()
	c, err := k.Connect(7000)
	if err != nil {
		t.Fatal(err)
	}
	sendRecv(t, c, "a")
	v1, v2 := e.Current().Version(), echodVersion("2.0", 1, "v2", true, 7000)
	rep, err := e.Update(v2)
	if err != nil {
		t.Fatalf("Update: %v", err)
	}
	if got := e.Current().Version(); got != v2 {
		t.Fatalf("%s serving after the update, want %s", got, v2)
	}
	sendRecv(t, c, "b")
	if v := watchBreach(e, v1); v.Outcome != canary.Reverted {
		t.Fatalf("outcome %q (revert error %v), want reverted", v.Outcome, v.RevertErr)
	}
	if got := e.Current().Version(); got != v1 {
		t.Fatalf("%s serving after the revert, want %s", got, v1)
	}
	hist := e.History()
	if len(hist) != 2 || hist[0] != rep {
		t.Fatalf("history holds %d reports, want v1→v2 then v2→v1", len(hist))
	}
	for i, r := range hist {
		if r.RolledBack || r.Transfer.Checksum == 0 {
			t.Fatalf("history[%d]: rolled back %v (cause %q), checksum %#x; want a committed update",
				i, r.RolledBack, r.RollbackCause, r.Transfer.Checksum)
		}
	}
}

// TestCanaryAcceptBitIdenticalToPlainCommit drives the same traffic and
// the same update through a plain warm commit and through one followed by
// a canary window that runs to its end and finalizes, then compares the
// surviving instances bit for bit: the window must be invisible to the
// committed state.
func TestCanaryAcceptBitIdenticalToPlainCommit(t *testing.T) {
	drive := func(withCanary bool) (*UpdateReport, *program.Instance) {
		e, k := warmEchod(t, Options{Audit: true})
		t.Cleanup(e.Shutdown)
		c1, err := k.Connect(7000)
		if err != nil {
			t.Fatal(err)
		}
		c2, err := k.Connect(7000)
		if err != nil {
			t.Fatal(err)
		}
		sendRecv(t, c1, "a")
		sendRecv(t, c1, "b")
		sendRecv(t, c2, "x")
		if !e.WarmWait(10 * time.Second) {
			t.Fatalf("warm daemon never caught up: %+v", e.WarmStatus())
		}
		back := e.Current().Version()
		rep, err := e.Update(echodVersion("2.0", 1, "v2", true, 7000))
		if err != nil {
			t.Fatalf("Update: %v", err)
		}
		if withCanary {
			if v := watchHealthy(e, back); v.Outcome != canary.Finalized {
				t.Fatalf("healthy canary outcome = %q (breach %v)", v.Outcome, v.Breach)
			}
		}
		if n := len(e.History()); n != 1 {
			t.Fatalf("history holds %d reports, want the one update", n)
		}
		return rep, e.Current()
	}

	repA, instA := drive(false)
	repB, instB := drive(true)
	compareState(t, instA, instB)
	if repA.Transfer.Checksum != repB.Transfer.Checksum {
		t.Fatalf("transfer checksum diverged: plain %#x vs canary %#x",
			repA.Transfer.Checksum, repB.Transfer.Checksum)
	}
}

// TestCanaryStarvedMonitorIsNotDead runs a healthy window whose sample
// source is held up on its first tick (standing in for a judge starved of
// CPU) until well past the window's end. A late judge delays the verdict;
// it does not turn it into a revert: the window ends with the intervals it
// got and finalizes.
func TestCanaryStarvedMonitorIsNotDead(t *testing.T) {
	e, k := launchEchod(t, Options{Audit: true})
	defer e.Shutdown()
	c1, err := k.Connect(7000)
	if err != nil {
		t.Fatal(err)
	}
	sendRecv(t, c1, "a")
	back := e.Current().Version()
	rep, err := e.Update(echodVersion("2.0", 1, "v2", true, 7000))
	if err != nil {
		t.Fatalf("Update: %v", err)
	}

	feed := scriptedFeed(200*time.Microsecond, 0)
	calls := 0
	src := func() canary.Sample {
		// Call 1 is the seed; call 2 is the first tick's.
		if calls++; calls == 2 {
			time.Sleep(3 * healthyWindow)
		}
		return feed()
	}
	v := watchBack(e, back, canary.SLO{MaxP99: time.Second}, src, healthyWindow)
	if v.Outcome != canary.Finalized || v.Breach != nil {
		t.Fatalf("outcome=%q breach=%v, want a late judge to finalize the healthy version", v.Outcome, v.Breach)
	}
	if v.Monitor.Intervals != 1 {
		t.Fatalf("%d intervals judged, want the one that ran past the window", v.Monitor.Intervals)
	}
	if rep.RolledBack || e.Current().Version() == back {
		t.Fatal("healthy version was reverted")
	}
	if got := sendRecv(t, c1, "after"); !strings.HasPrefix(got, "v2:after:") {
		t.Fatalf("post-window reply = %q", got)
	}
}

// TestCanaryRevertKeepsWindowState: a breach after the new version has
// served reverts by a live update from it, so what it served carries back.
// A session counts one message on v1 and two on v2; the revert must hand
// v1 the count v2 left, not the count v1 had when it quiesced.
func TestCanaryRevertKeepsWindowState(t *testing.T) {
	e, k := launchEchod(t, Options{Audit: true})
	defer e.Shutdown()
	c, err := k.Connect(7000)
	if err != nil {
		t.Fatal(err)
	}
	var replies []string
	replies = append(replies, sendRecv(t, c, "a"))
	back := e.Current().Version()
	if _, err := e.Update(echodVersion("2.0", 1, "v2", true, 7000)); err != nil {
		t.Fatalf("Update: %v", err)
	}
	replies = append(replies, sendRecv(t, c, "b"), sendRecv(t, c, "b2"))
	if v := watchBreach(e, back); v.Outcome != canary.Reverted {
		t.Fatalf("outcome %q (revert error %v), want reverted", v.Outcome, v.RevertErr)
	}
	replies = append(replies, sendRecv(t, c, "c"))
	if got, want := strings.Join(replies, " "), "v1:a:1 v2:b:2 v2:b2:3 v1:c:4"; got != want {
		t.Fatalf("replies %q, want %q", got, want)
	}
}

// TestCanaryRevertMatchesDirectUpdate: a revert is an update back to the
// old version, bit for bit. One engine reverts a canary window; another
// runs the same script with the sequential engine and no canary, updating
// v1→v2→v1 directly. The surviving states and the reverts' transfer
// checksums must be identical.
func TestCanaryRevertMatchesDirectUpdate(t *testing.T) {
	drive := func(withCanary bool) (*UpdateReport, *program.Instance) {
		e, k := launchEchod(t, Options{Audit: true, Sequential: !withCanary})
		t.Cleanup(e.Shutdown)
		c1, err := k.Connect(7000)
		if err != nil {
			t.Fatal(err)
		}
		c2, err := k.Connect(7000)
		if err != nil {
			t.Fatal(err)
		}
		sendRecv(t, c1, "a")
		sendRecv(t, c1, "b")
		sendRecv(t, c2, "x")
		back := e.Current().Version()
		if _, err := e.Update(echodVersion("2.0", 1, "v2", true, 7000)); err != nil {
			t.Fatalf("Update: %v", err)
		}
		sendRecv(t, c1, "during")
		sendRecv(t, c2, "y")
		if !withCanary {
			rep, err := e.Update(back)
			if err != nil {
				t.Fatalf("direct update back: %v", err)
			}
			return rep, e.Current()
		}
		if v := watchBreach(e, back); v.Outcome != canary.Reverted {
			t.Fatalf("outcome %q (revert error %v), want reverted", v.Outcome, v.RevertErr)
		}
		hist := e.History()
		return hist[len(hist)-1], e.Current()
	}

	direct, instA := drive(false)
	revert, instB := drive(true)
	if instB.Version().String() != instA.Version().String() {
		t.Fatalf("revert left %s serving, direct update %s", instB.Version(), instA.Version())
	}
	compareState(t, instA, instB)
	if da, db := mustDigest(t, instA), mustDigest(t, instB); da != db {
		t.Fatalf("state digest: direct %#x vs revert %#x", da, db)
	}
	if direct.Transfer.Checksum == 0 || direct.Transfer.Checksum != revert.Transfer.Checksum {
		t.Fatalf("transfer checksum: direct %#x vs revert %#x", direct.Transfer.Checksum, revert.Transfer.Checksum)
	}
}

// TestCanaryRevertNotesUnquiescedNewVersion: a new version that cannot
// converge when its canary window reverts (one of its threads stops
// reaching quiescent points) fails the revert's quiescence, so the revert
// rolls back: the new version keeps serving, the window settles as
// revert-failed, History holds the deployed update as committed and the
// revert as rolled back, and the revert span on the canary track carries
// the quiescence error instead of dropping it.
func TestCanaryRevertNotesUnquiescedNewVersion(t *testing.T) {
	rec := obs.New(1 << 12)
	e, k := launchEchod(t, Options{Audit: true, Recorder: rec, QuiesceTimeout: 300 * time.Millisecond})
	defer e.Shutdown()
	c, err := k.Connect(7000)
	if err != nil {
		t.Fatal(err)
	}
	if got := sendRecv(t, c, "a"); got != "v1:a:1" {
		t.Fatalf("pre-update reply = %q", got)
	}

	// v2 carries a thread that parks like any other until told to spin,
	// then loops without a quiescent point until the instance stops.
	var spin atomic.Bool
	v2 := echodVersion("2.0", 1, "v2", true, 7000)
	serve := v2.Main
	v2.Main = func(t *program.Thread) error {
		if _, err := t.SpawnThread("spinner", func(t *program.Thread) error {
			err := t.CondQP("wait@spinner", func() (bool, error) { return spin.Load(), nil })
			if err != nil {
				return nil // stopped while parked
			}
			for !t.Proc().Instance().Stopping() {
				time.Sleep(time.Millisecond)
			}
			return nil
		}); err != nil {
			return err
		}
		return serve(t)
	}

	back := e.Current().Version()
	rep, err := e.Update(v2)
	if err != nil {
		t.Fatalf("Update: %v", err)
	}
	if got := sendRecv(t, c, "b"); got != "v2:b:2" {
		t.Fatalf("mid-window reply = %q", got)
	}
	spin.Store(true)
	e.Current().Root().Notify()
	v := watchBreach(e, back)
	if v.Outcome != canary.RevertFailed || v.RevertErr == nil {
		t.Fatalf("outcome %q (revert error %v): want revert-failed", v.Outcome, v.RevertErr)
	}
	hist := e.History()
	if len(hist) != 2 || hist[0] != rep || rep.RolledBack || rep.RollbackCause != "" {
		t.Fatalf("history %d reports, deployed update rolled back %v (cause %q): want it committed",
			len(hist), rep.RolledBack, rep.RollbackCause)
	}
	if !hist[1].RolledBack {
		t.Fatalf("revert report %+v, want a rolled-back update", hist[1])
	}
	if got := e.Current().Version(); got != v2 {
		t.Fatalf("%s serving after a failed revert, want %s", got, v2)
	}
	if got := sendRecv(t, c, "c"); got != "v2:c:3" {
		t.Fatalf("post-revert reply = %q, want v2 serving", got)
	}
	var notes []string
	for _, ev := range rec.Events() {
		if ev.Track == obs.TrackCanary && ev.Phase == obs.PhaseCanaryRevert && ev.Kind == obs.KindEnd {
			notes = append(notes, ev.Note)
		}
	}
	if len(notes) != 1 || !strings.HasPrefix(notes[0], "p99") || !strings.Contains(notes[0], "quiescence: ") {
		t.Fatalf("revert span notes = %q, want the breach and the new version's quiescence error", notes)
	}
}
