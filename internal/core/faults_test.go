package core

import (
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"

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

// TestInjectedFaultsRollBackWithCause sweeps the loud injection points
// that fire after quiescence: each must abort the update, report the
// classified "fault:<point>" cause, resume the old version
// bit-identically with its dirty set, leak nothing, and leave the engine
// able to run a clean follow-up update.
func TestInjectedFaultsRollBackWithCause(t *testing.T) {
	cases := []struct {
		name      string
		point     faultinject.Point
		wantCause string
	}{
		{"analysis", faultinject.PointAnalysis, "fault:analysis"},
		{"speculation", faultinject.PointSpeculation, "fault:speculation"},
		{"restart-crash", faultinject.PointRestartCrash, "fault:restart-crash"},
		{"transfer-error", faultinject.PointTransferError, "fault:transfer-error"},
		{"remap-fail", faultinject.PointRemapFail, "fault:remap-fail"},
		{"commit-crash", faultinject.PointCommitCrash, "fault:commit-crash"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			plane := faultinject.New(1)
			e, k := launchEchod(t, faultOpts(plane))
			defer e.Shutdown()
			c1, err := k.Connect(7000)
			if err != nil {
				t.Fatal(err)
			}
			sendRecv(t, c1, "a")
			plane.Arm(tc.point)
			old := e.Current()
			d0 := mustDigest(t, old)
			dirty := dirtySets(old)
			g0 := leakcheck.Goroutines()

			rep, err := e.Update(echodVersion("2.0", 1, "v2", true, 7000))
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
			if !rep.RollbackVerified || !rep.RollbackIdentical {
				t.Fatalf("rollback audit: verified=%v identical=%v", rep.RollbackVerified, rep.RollbackIdentical)
			}
			if e.Current() != old {
				t.Fatal("rollback did not keep the old instance current")
			}
			if d1 := mustDigest(t, old); d1 != d0 {
				t.Fatalf("old instance state drifted across the rollback: %#x -> %#x", d0, d1)
			}
			if !reflect.DeepEqual(dirtySets(old), dirty) {
				t.Fatal("the rollback changed the old instance's soft-dirty pages")
			}
			if got := sendRecv(t, c1, "after"); !strings.HasPrefix(got, "v1:after:") {
				t.Fatalf("post-rollback reply = %q, want v1 banner", got)
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

// TestDaemonStallDoesNotFailUpdate parks a warm daemon pass; the update's
// detach join releases it. The daemon holds nothing the update trusts
// unchecked — the analysis is revalidated in-window — so the update
// commits, bit-identical to the sequential engine's, and the stalled pass
// is the daemon's one error.
func TestDaemonStallDoesNotFailUpdate(t *testing.T) {
	type outcome struct{ checksum, digest uint64 }
	// warm, when set, arms the daemon after launch and runs just before
	// the update.
	drive := func(opts Options, warm func(*Engine)) (*UpdateReport, outcome) {
		e, k := launchEchod(t, opts)
		defer e.Shutdown()
		if warm != nil {
			armWarm(t, e)
		}
		c1, err := k.Connect(7000)
		if err != nil {
			t.Fatal(err)
		}
		sendRecv(t, c1, "a")
		sendRecv(t, c1, "b")
		if warm != nil {
			warm(e)
		}
		rep, err := e.Update(echodVersion("2.0", 1, "v2", true, 7000))
		if err != nil {
			t.Fatalf("Update: %v (cause %q)", err, rep.RollbackCause)
		}
		if got := sendRecv(t, c1, "c"); got != "v2:c:3" {
			t.Fatalf("post-update reply = %q, want v2:c:3", got)
		}
		return rep, outcome{rep.Transfer.Checksum, mustDigest(t, e.Current())}
	}

	_, seq := drive(Options{Sequential: true, Audit: true}, nil)
	plane := faultinject.New(1)
	rep, stalled := drive(faultOpts(plane), func(e *Engine) {
		if !e.WarmWait(5 * time.Second) {
			t.Fatal("warm daemon never became current")
		}
		// Arm after the daemon is current so the stalled pass is a later
		// one; the stall parks until Update's detach stops the daemon.
		plane.Arm(faultinject.PointDaemonStall)
		waitFired(t, plane, faultinject.PointDaemonStall)
	})
	if !rep.Warm || rep.RolledBack || rep.WarmDaemon.Errors != 1 {
		t.Fatalf("warm %v, rolled back %v, daemon errors %d; want a warm commit and one daemon error",
			rep.Warm, rep.RolledBack, rep.WarmDaemon.Errors)
	}
	if stalled != seq || seq.checksum == 0 {
		t.Fatalf("after a stalled daemon pass %+v, sequential %+v", stalled, seq)
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

// TestWaitLateCompletionIsBenign covers the timeout path of WarmWait: a
// completion landing after the caller's timeout must not panic — it
// simply satisfies the next wait.
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
}
