package core

import (
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/canary"
	"repro/internal/checkpoint"
	"repro/internal/faultinject"
	"repro/internal/leakcheck"
)

// faultOpts builds the standard fault-test engine configuration: both
// verifiers and the given plane.
func faultOpts(p *faultinject.Plane) Options {
	return Options{Audit: true, Faults: p}
}

// waitFired waits until the armed point pt has fired: a loaded machine can
// hold a daemon pass back well past any fixed sleep.
func waitFired(t *testing.T, p *faultinject.Plane, pt faultinject.Point) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !p.Fired(pt); {
		if time.Now().After(deadline) {
			t.Fatalf("no daemon pass reached the armed point %s", pt)
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// TestInjectedFaultsRollBackWithCause sweeps the loud injection points:
// each must abort the update, report the classified "fault:<point>"
// cause, resume the old version bit-identically, leak nothing, and leave
// the engine able to run a clean follow-up update.
func TestInjectedFaultsRollBackWithCause(t *testing.T) {
	cases := []struct {
		name      string
		point     faultinject.Point
		wantCause string
		// postQuiesce marks faults that fire after the digest capture, so
		// the rollback audit applies.
		postQuiesce bool
		// warm arms the daemon, whose next epoch the point must hit
		// before the update adopts it.
		warm bool
		// sequential runs the update on the sequential schedule.
		sequential bool
	}{
		{
			name:        "analysis",
			point:       faultinject.PointAnalysis,
			wantCause:   "fault:analysis",
			postQuiesce: true,
		},
		{
			name:        "speculation",
			point:       faultinject.PointSpeculation,
			wantCause:   "fault:speculation",
			postQuiesce: true,
		},
		{
			name:        "restart-crash",
			point:       faultinject.PointRestartCrash,
			wantCause:   "fault:restart-crash",
			postQuiesce: true,
		},
		{
			name:        "transfer-error",
			point:       faultinject.PointTransferError,
			wantCause:   "fault:transfer-error",
			postQuiesce: true,
		},
		{
			name:        "remap-fail",
			point:       faultinject.PointRemapFail,
			wantCause:   "fault:remap-fail",
			postQuiesce: true,
		},
		{
			name:        "commit-crash",
			point:       faultinject.PointCommitCrash,
			wantCause:   "fault:commit-crash",
			postQuiesce: true,
		},
		{
			name:      "epoch-fail",
			point:     faultinject.PointEpochFail,
			warm:      true,
			wantCause: "fault:epoch-fail",
		},
		{
			name:       "epoch-fail-sequential",
			point:      faultinject.PointEpochFail,
			warm:       true,
			sequential: true,
			wantCause:  "fault:epoch-fail",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			plane := faultinject.New(1)
			opts := faultOpts(plane)
			opts.Sequential = tc.sequential
			e, k := launchEchod(t, opts)
			defer e.Shutdown()
			if tc.warm {
				armWarm(t, e)
			}
			c1, err := k.Connect(7000)
			if err != nil {
				t.Fatal(err)
			}
			sendRecv(t, c1, "a")
			plane.Arm(tc.point)
			if tc.warm {
				// A request dirties pages; the daemon's next epoch hits the
				// armed point and poisons the snapshotter the update adopts.
				sendRecv(t, c1, "b")
				waitFired(t, plane, tc.point)
			}
			old := e.Current()
			d0 := mustDigest(t, old)
			g0 := leakcheck.Goroutines()
			var snap *checkpoint.Snapshotter
			if tc.warm {
				snap = armedSnapshot(t, e)
			}

			rep, err := e.Update(echodVersion("2.0", 1, "v2", true, 7000))
			if snap != nil && !snap.Discarded() {
				t.Fatal("rollback did not discard the adopted snapshotter: its consumed soft-dirty bits were never handed back")
			}
			// The re-armed daemon would consume bits again; the checks
			// below are about what the rollback handed back.
			e.DisarmWarm()
			if !errors.Is(err, ErrUpdateFailed) {
				t.Fatalf("Update err = %v, want ErrUpdateFailed", err)
			}
			if !plane.Fired(tc.point) {
				t.Fatalf("armed point %s never fired", tc.point)
			}
			if !rep.RolledBack || rep.RollbackCause != tc.wantCause {
				t.Fatalf("RolledBack=%v RollbackCause=%q, want true/%q (reason %v)",
					rep.RolledBack, rep.RollbackCause, tc.wantCause, rep.Reason)
			}
			var fe *faultinject.Error
			if !errors.As(rep.Reason, &fe) || fe.Point != tc.point {
				t.Fatalf("Reason chain %v does not carry the injected *faultinject.Error", rep.Reason)
			}
			if tc.postQuiesce {
				if !rep.RollbackVerified || !rep.RollbackIdentical {
					t.Fatalf("rollback audit: verified=%v identical=%v", rep.RollbackVerified, rep.RollbackIdentical)
				}
			}
			if e.Current() != old {
				t.Fatal("rollback did not keep the old instance current")
			}
			if d1 := mustDigest(t, old); d1 != d0 {
				t.Fatalf("old instance state drifted across the rollback: %#x -> %#x", d0, d1)
			}
			if got := sendRecv(t, c1, "after"); !strings.HasPrefix(got, "v1:after:") {
				t.Fatalf("post-rollback reply = %q, want v1 banner", got)
			}
			if n := consumedPages(old); n != 0 {
				t.Fatalf("%d consumed soft-dirty pages not restored", n)
			}
			if err := leakcheck.CheckGoroutines(g0, 2*time.Second); err != nil {
				t.Fatal(err)
			}
			if err := leakcheck.CheckReservedPids(old); err != nil {
				t.Fatal(err)
			}

			// Engine survives: a clean follow-up update commits.
			rep2, err := e.Update(echodVersion("2.1", 1, "v2", true, 7000))
			if err != nil {
				t.Fatalf("follow-up update: %v", err)
			}
			if rep2.RolledBack {
				t.Fatalf("follow-up rolled back: %v", rep2.Reason)
			}
			if got := sendRecv(t, c1, "final"); !strings.HasPrefix(got, "v2:final:") {
				t.Fatalf("post-follow-up reply = %q", got)
			}
		})
	}
}

// TestWatchdogRecoversHungRestart is the acceptance case: a RESTART that
// parks forever is recovered solely by the per-phase deadline watchdog —
// the startup timeout is set far beyond the test's patience, so nothing
// else can unwedge it — with cause deadline:restart.
func TestWatchdogRecoversHungRestart(t *testing.T) {
	for _, seq := range []bool{false, true} {
		name := "pipelined"
		if seq {
			name = "sequential"
		}
		t.Run(name, func(t *testing.T) {
			plane := faultinject.New(1)
			opts := faultOpts(plane)
			opts.Sequential = seq
			opts.StartupTimeout = 5 * time.Minute // watchdog must win, not this
			e, k := launchEchod(t, opts)
			defer e.Shutdown()
			if err := e.SetPhaseDeadlines(map[string]time.Duration{WDRestart: 150 * time.Millisecond}); err != nil {
				t.Fatal(err)
			}
			c1, err := k.Connect(7000)
			if err != nil {
				t.Fatal(err)
			}
			sendRecv(t, c1, "a")
			old := e.Current()
			g0 := leakcheck.Goroutines()

			plane.Arm(faultinject.PointRestartHang)
			t0 := time.Now()
			rep, err := e.Update(echodVersion("2.0", 1, "v2", true, 7000))
			took := time.Since(t0)
			if !errors.Is(err, ErrUpdateFailed) {
				t.Fatalf("Update err = %v, want ErrUpdateFailed", err)
			}
			if rep.RollbackCause != "deadline:restart" {
				t.Fatalf("RollbackCause = %q, want deadline:restart (reason %v)", rep.RollbackCause, rep.Reason)
			}
			var de *DeadlineError
			if !errors.As(rep.Reason, &de) || de.Phase != WDRestart {
				t.Fatalf("Reason chain %v does not carry *DeadlineError{restart}", rep.Reason)
			}
			if took > 5*time.Second {
				t.Fatalf("watchdog recovery took %v — the hang was not cut at the deadline", took)
			}
			if e.Current() != old {
				t.Fatal("old instance not current after deadline rollback")
			}
			if got := sendRecv(t, c1, "after"); !strings.HasPrefix(got, "v1:after:") {
				t.Fatalf("post-rollback reply = %q", got)
			}
			if err := leakcheck.CheckGoroutines(g0, 2*time.Second); err != nil {
				t.Fatal(err)
			}
			if err := leakcheck.CheckReservedPids(old); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestWatchdogRecoversStalledTransfer parks a transfer copy worker; the
// transfer deadline cancels the pipeline and releases the stall, and the
// rollback reports deadline:transfer.
func TestWatchdogRecoversStalledTransfer(t *testing.T) {
	plane := faultinject.New(1)
	e, k := launchEchod(t, faultOpts(plane))
	defer e.Shutdown()
	if err := e.SetPhaseDeadlines(map[string]time.Duration{WDTransfer: 150 * time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	c1, err := k.Connect(7000)
	if err != nil {
		t.Fatal(err)
	}
	sendRecv(t, c1, "a")
	old := e.Current()
	d0 := mustDigest(t, old)

	plane.Arm(faultinject.PointTransferStall)
	rep, err := e.Update(echodVersion("2.0", 1, "v2", true, 7000))
	if !errors.Is(err, ErrUpdateFailed) {
		t.Fatalf("Update err = %v, want ErrUpdateFailed", err)
	}
	if rep.RollbackCause != "deadline:transfer" {
		t.Fatalf("RollbackCause = %q, want deadline:transfer (reason %v)", rep.RollbackCause, rep.Reason)
	}
	if !rep.RollbackVerified || !rep.RollbackIdentical {
		t.Fatalf("rollback audit: verified=%v identical=%v", rep.RollbackVerified, rep.RollbackIdentical)
	}
	if d1 := mustDigest(t, old); d1 != d0 {
		t.Fatalf("old state drifted: %#x -> %#x", d0, d1)
	}
	if got := sendRecv(t, c1, "after"); !strings.HasPrefix(got, "v1:after:") {
		t.Fatalf("post-rollback reply = %q", got)
	}
}

// TestTransferCorruptionCaughtByVerifier flips one byte in a warm
// daemon's shadow served to the downtime copy: the Audit transfer
// cross-check must catch the divergence as a conflict (the silent fault's
// *detector* is the verifier, so the cause classifies as a plain update
// conflict) and the rollback must hand back bit-identical old state.
func TestTransferCorruptionCaughtByVerifier(t *testing.T) {
	plane := faultinject.New(7)
	e, k := warmEchod(t, faultOpts(plane))
	defer e.Shutdown()
	c1, err := k.Connect(7000)
	if err != nil {
		t.Fatal(err)
	}
	sendRecv(t, c1, "a")
	sendRecv(t, c1, "b")
	// The daemon has shadowed the session state, so the copy serves it
	// from shadows.
	if !e.WarmWait(10 * time.Second) {
		t.Fatalf("warm daemon never caught up: %+v", e.WarmStatus())
	}
	old := e.Current()
	d0 := mustDigest(t, old)

	plane.Arm(faultinject.PointTransferCorrupt)
	rep, err := e.Update(echodVersion("2.0", 1, "v2", true, 7000))
	if !errors.Is(err, ErrUpdateFailed) {
		t.Fatalf("Update err = %v, want ErrUpdateFailed", err)
	}
	if !plane.Fired(faultinject.PointTransferCorrupt) {
		t.Fatal("corruption point never fired (no shadow-served object?)")
	}
	if rep.RollbackCause != "update" {
		t.Fatalf("RollbackCause = %q, want update (verifier conflict)", rep.RollbackCause)
	}
	if rep.Reason == nil || !strings.Contains(rep.Reason.Error(), "diverges from quiesced memory") {
		t.Fatalf("Reason = %v, want shadow-divergence conflict", rep.Reason)
	}
	if d1 := mustDigest(t, old); d1 != d0 {
		t.Fatalf("old state drifted: %#x -> %#x", d0, d1)
	}
	if got := sendRecv(t, c1, "after"); !strings.HasPrefix(got, "v1:after:") {
		t.Fatalf("post-rollback reply = %q", got)
	}
}

// TestDaemonStallPoisonsAdoptedCheckpoint parks a warm daemon pass; the
// update's detach join shoots it, the interrupted pass poisons the
// snapshotter, and the adopting update aborts with fault:daemon-stall
// instead of trusting shadows of unknown currency.
func TestDaemonStallPoisonsAdoptedCheckpoint(t *testing.T) {
	plane := faultinject.New(1)
	e, k := launchEchod(t, faultOpts(plane))
	defer e.Shutdown()
	armWarm(t, e)
	c1, err := k.Connect(7000)
	if err != nil {
		t.Fatal(err)
	}
	sendRecv(t, c1, "a")
	if !e.WarmWait(5 * time.Second) {
		t.Fatal("warm daemon never became current")
	}
	old := e.Current()

	// Arm after the daemon is current so the stalled pass is a later one;
	// the stall parks until Update's detach stops the daemon.
	plane.Arm(faultinject.PointDaemonStall)
	// Wait until a pass has hit the armed point and parked.
	waitFired(t, plane, faultinject.PointDaemonStall)
	rep, err := e.Update(echodVersion("2.0", 1, "v2", true, 7000))
	if !errors.Is(err, ErrUpdateFailed) {
		t.Fatalf("Update err = %v, want ErrUpdateFailed", err)
	}
	if rep.RollbackCause != "fault:daemon-stall" {
		t.Fatalf("RollbackCause = %q, want fault:daemon-stall (reason %v)", rep.RollbackCause, rep.Reason)
	}
	if e.Current() != old {
		t.Fatal("old instance not current after rollback")
	}
	if got := sendRecv(t, c1, "after"); !strings.HasPrefix(got, "v1:after:") {
		t.Fatalf("post-rollback reply = %q", got)
	}
	// The poisoned checkpoint was discarded; warm re-armed a fresh daemon
	// and the next update succeeds.
	if !e.WarmWait(5 * time.Second) {
		t.Fatal("warm daemon never recovered after rollback")
	}
	rep2, err := e.Update(echodVersion("2.1", 1, "v2", true, 7000))
	if err != nil || rep2.RolledBack {
		t.Fatalf("follow-up warm update: err=%v rolledback=%v (%v)", err, rep2.RolledBack, rep2.Reason)
	}
}

// TestDoubleFaultDuringRollback injects a second fault into the rollback
// path itself: the revert must still complete (old instance serving) and
// both causes must be reported.
func TestDoubleFaultDuringRollback(t *testing.T) {
	plane := faultinject.New(1)
	e, k := launchEchod(t, faultOpts(plane))
	defer e.Shutdown()
	c1, err := k.Connect(7000)
	if err != nil {
		t.Fatal(err)
	}
	sendRecv(t, c1, "a")
	old := e.Current()
	d0 := mustDigest(t, old)

	plane.Arm(faultinject.PointRestartCrash)
	plane.Arm(faultinject.PointRollbackRestore)
	rep, err := e.Update(echodVersion("2.0", 1, "v2", true, 7000))
	if !errors.Is(err, ErrUpdateFailed) {
		t.Fatalf("Update err = %v, want ErrUpdateFailed", err)
	}
	if rep.RollbackCause != "fault:restart-crash" {
		t.Fatalf("primary RollbackCause = %q, want fault:restart-crash", rep.RollbackCause)
	}
	if rep.RollbackSecondary != "fault:rollback-restore" {
		t.Fatalf("RollbackSecondary = %q, want fault:rollback-restore", rep.RollbackSecondary)
	}
	if rep.Reason == nil || !strings.Contains(rep.Reason.Error(), "second fault during rollback") {
		t.Fatalf("Reason = %v, want both causes on the chain", rep.Reason)
	}
	if e.Current() != old {
		t.Fatal("double fault left the engine without the old instance")
	}
	if d1 := mustDigest(t, old); d1 != d0 {
		t.Fatalf("old state drifted: %#x -> %#x", d0, d1)
	}
	if got := sendRecv(t, c1, "after"); !strings.HasPrefix(got, "v1:after:") {
		t.Fatalf("old instance not serving after double fault: %q", got)
	}
	if err := leakcheck.CheckReservedPids(old); err != nil {
		t.Fatal(err)
	}
}

// TestCanaryMonitorDeathFailsafe kills the canary monitor goroutine
// mid-window: the failsafe must revert (an unjudged version is not
// silently accepted) with cause canary:monitor.
func TestCanaryMonitorDeathFailsafe(t *testing.T) {
	plane := faultinject.New(1)
	e, k := launchEchod(t, faultOpts(plane))
	defer e.Shutdown()
	c1, err := k.Connect(7000)
	if err != nil {
		t.Fatal(err)
	}
	sendRecv(t, c1, "a")
	old := e.Current()

	feed := newFakeFeed(100, 200*time.Microsecond, time.Second)
	e.SetCanaryPacing(100*time.Millisecond, 5*time.Millisecond, -1)
	if err := e.ArmCanary(canary.SLO{MaxP99: time.Second}, feed.src); err != nil {
		t.Fatal(err)
	}
	plane.Arm(faultinject.PointCanaryMonitor)
	rep, err := e.Update(echodVersion("2.0", 1, "v2", true, 7000))
	if err != nil {
		t.Fatalf("Update: %v", err)
	}
	if !e.CanaryWait(10 * time.Second) {
		t.Fatal("window never resolved — failsafe did not fire")
	}
	if rep.CanaryOutcome != "reverted" || rep.RollbackCause != "canary:monitor" {
		t.Fatalf("outcome=%q cause=%q, want reverted/canary:monitor", rep.CanaryOutcome, rep.RollbackCause)
	}
	cur := e.Current()
	if cur.Version() != old.Version() {
		t.Fatalf("failsafe revert left %s serving, want %s", cur.Version(), old.Version())
	}
	if got := sendRecv(t, c1, "after"); got != "v1:after:2" {
		t.Fatalf("post-revert reply = %q", got)
	}
	if err := leakcheck.CheckReservedPids(cur); err != nil {
		t.Fatal(err)
	}
}

// TestWaitLateCompletionIsBenign covers the timeout paths of WarmWait and
// CanaryWait: a completion landing after the caller's timeout must not
// panic or double-resolve — it simply satisfies the next wait (the same
// collapse rule resolveCanary applies to a deadline racing a breach).
func TestWaitLateCompletionIsBenign(t *testing.T) {
	e, k := launchEchod(t, Options{})
	defer e.Shutdown()
	armWarm(t, e)
	c1, err := k.Connect(7000)
	if err != nil {
		t.Fatal(err)
	}
	// WarmWait with an impossible timeout returns false; the daemon then
	// catches up and a later wait succeeds.
	sendRecv(t, c1, "a")
	_ = e.WarmWait(time.Nanosecond) // may race to true; either way, no panic
	if !e.WarmWait(5 * time.Second) {
		t.Fatal("warm daemon never became current after the timed-out wait")
	}

	// Open a long canary window, time out a wait on it, then resolve it
	// late (disarm) and wait again: exactly one resolution.
	feed := newFakeFeed(100, 200*time.Microsecond, time.Second)
	e.SetCanaryPacing(time.Minute, time.Millisecond, -1)
	if err := e.ArmCanary(canary.SLO{MaxP99: time.Second}, feed.src); err != nil {
		t.Fatal(err)
	}
	rep, err := e.Update(echodVersion("2.0", 1, "v2", true, 7000))
	if err != nil {
		t.Fatalf("Update: %v", err)
	}
	if e.CanaryWait(5 * time.Millisecond) {
		t.Fatal("CanaryWait returned true with the window deterministically open")
	}
	e.DisarmCanary() // late resolution, after the timed-out wait
	if !e.CanaryWait(10 * time.Second) {
		t.Fatal("window never resolved")
	}
	if rep.CanaryOutcome != "finalized" {
		t.Fatalf("CanaryOutcome = %q, want finalized", rep.CanaryOutcome)
	}
	// A second disarm (another late "resolution") must be a no-op.
	e.DisarmCanary()
	if st := e.CanaryStatus(); st.Open || st.LastOutcome != "finalized" {
		t.Fatalf("status after double disarm: open=%v outcome=%q", st.Open, st.LastOutcome)
	}
}
