package core

import (
	"errors"
	"fmt"
	"strings"
	"sync"
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

// fakeFeed is a synthetic, test-controlled canary sample source: the
// fault matrix needs deterministic breaches, so the monitor is fed
// hand-built cumulative samples instead of a live workload driver.
type fakeFeed struct {
	mu sync.Mutex
	s  canary.Sample
}

func newFakeFeed(reqs int, each, elapsed time.Duration) *fakeFeed {
	f := &fakeFeed{}
	f.s.Requests = reqs
	f.s.Elapsed = elapsed
	for i := 0; i < reqs; i++ {
		f.s.Hist.Observe(each)
	}
	return f
}

func (f *fakeFeed) add(reqs, errs int, each, elapsed time.Duration) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.s.Requests += reqs
	f.s.Errors += errs
	f.s.Elapsed += elapsed
	for i := 0; i < reqs; i++ {
		f.s.Hist.Observe(each)
	}
}

func (f *fakeFeed) src() canary.Sample {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.s
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

// canaryHarness is the shared per-case state the fault injectors act on.
type canaryHarness struct {
	t    *testing.T
	e    *Engine
	feed *fakeFeed
	old  *program.Instance
	stop chan struct{} // closed at case end; background injectors watch it
}

// TestCanaryFaultMatrix injects a failure at every canary phase and
// asserts the window resolves to a consistent engine: the right version
// serves the same sessions with every count the new version took, every
// consumed soft-dirty bit is restored, the transfer checksum recorded at
// commit is untouched by the resolution, and a follow-up update still
// works. Run under -race: the double-breach case is two concurrent
// resolutions, and the warm case a revert that takes over the daemon.
func TestCanaryFaultMatrix(t *testing.T) {
	cases := []struct {
		name string
		warm bool
		// preUpdate runs after arming, before Update (background faults
		// that must race the window opening).
		preUpdate func(h *canaryHarness)
		// duringOpen runs while the window is deterministically open.
		duringOpen      func(h *canaryHarness)
		wantOutcome     string
		wantCausePrefix string
	}{
		{
			name: "breach-during-window",
			duringOpen: func(h *canaryHarness) {
				// 10 completions at 100ms against a 1ms p99 SLO.
				h.feed.add(10, 0, 100*time.Millisecond, 50*time.Millisecond)
			},
			wantOutcome:     "reverted",
			wantCausePrefix: "canary:p99",
		},
		{
			name: "double-breach",
			duringOpen: func(h *canaryHarness) {
				// Two breaches race each other (and the canary loop) into
				// resolveCanary; exactly one may win.
				h.e.mu.Lock()
				run := h.e.canaryRun
				h.e.mu.Unlock()
				if run == nil {
					h.t.Fatal("no open canary run")
				}
				br1 := &canary.Breach{Metric: "p99", Value: 1e8, Limit: 1e6, Interval: 1}
				br2 := &canary.Breach{Metric: "errors", Value: 0.5, Limit: 0.01, Interval: 1}
				var wg sync.WaitGroup
				wg.Add(2)
				go func() { defer wg.Done(); h.e.resolveCanary(run, br1) }()
				go func() { defer wg.Done(); h.e.resolveCanary(run, br2) }()
				wg.Wait()
			},
			wantOutcome:     "reverted",
			wantCausePrefix: "canary:",
		},
		{
			name: "disarm-mid-window",
			duringOpen: func(h *canaryHarness) {
				// Operator disarms while the window is open: resolves as
				// an early accept, not a breach.
				h.e.DisarmCanary()
			},
			wantOutcome: "finalized",
		},
		{
			name: "revert-races-warm-rearm",
			warm: true,
			preUpdate: func(h *canaryHarness) {
				// Degrade continuously from before the window opens: the
				// first monitor tick breaches, so the revert takes over the
				// daemon Update re-armed on the new version and re-arms one
				// on the version it reverts to.
				go func() {
					for {
						select {
						case <-h.stop:
							return
						default:
						}
						h.feed.add(2, 0, 100*time.Millisecond, time.Millisecond)
						time.Sleep(500 * time.Microsecond)
					}
				}()
			},
			wantOutcome:     "reverted",
			wantCausePrefix: "canary:p99",
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

			h := &canaryHarness{
				t:    t,
				e:    e,
				feed: newFakeFeed(100, 200*time.Microsecond, time.Second),
				old:  e.Current(),
				stop: make(chan struct{}),
			}
			defer close(h.stop)

			// Long window, fast ticks, no grace: only the injected fault
			// (or an explicit disarm) resolves the window.
			e.SetCanaryPacing(time.Minute, time.Millisecond, -1)
			if err := e.ArmCanary(canary.SLO{MaxP99: time.Millisecond}, h.feed.src); err != nil {
				t.Fatalf("ArmCanary: %v", err)
			}

			if tc.preUpdate != nil {
				tc.preUpdate(h)
			}
			g0 := leakcheck.Goroutines()

			rep, err := e.Update(echodVersion("2.0", 1, "v2", true, 7000))
			if err != nil {
				t.Fatalf("Update: %v", err)
			}
			if !rep.Canary {
				t.Fatal("update did not open a canary window")
			}
			cs0 := rep.Transfer.Checksum
			if cs0 == 0 {
				t.Fatal("Audit produced no checksum")
			}

			if tc.preUpdate == nil {
				// The window is deterministically open here: a second
				// update must be refused, and the new version serves the
				// live traffic (old session counters carried over).
				if _, err := e.Update(echodVersion("2.1", 1, "v2b", true, 7000)); !errors.Is(err, ErrCanaryOpen) {
					t.Fatalf("update during open window: err = %v, want ErrCanaryOpen", err)
				}
				if got := sendRecv(t, c1, "during"); got != "v2:during:3" {
					t.Fatalf("mid-window reply = %q", got)
				}
			}
			if tc.duringOpen != nil {
				tc.duringOpen(h)
			}
			if !e.CanaryWait(10 * time.Second) {
				t.Fatal("canary window never resolved")
			}

			// Verdict bookkeeping.
			if rep.CanaryOutcome != tc.wantOutcome {
				t.Fatalf("CanaryOutcome = %q, want %q (reason %v)", rep.CanaryOutcome, tc.wantOutcome, rep.Reason)
			}
			reverted := tc.wantOutcome == "reverted"
			if rep.RolledBack != reverted {
				t.Fatalf("RolledBack = %v, want %v", rep.RolledBack, reverted)
			}
			if reverted && !strings.HasPrefix(rep.RollbackCause, tc.wantCausePrefix) {
				t.Fatalf("RollbackCause = %q, want prefix %q", rep.RollbackCause, tc.wantCausePrefix)
			}
			cs := e.CanaryStatus()
			if cs.Open {
				t.Fatal("status still reports an open window")
			}
			if cs.LastOutcome != tc.wantOutcome {
				t.Fatalf("status LastOutcome = %q, want %q", cs.LastOutcome, tc.wantOutcome)
			}

			// The right version serves the same sessions, with the count
			// of every message the new version answered.
			cur := e.Current()
			banner, count := "v2", 3
			if reverted {
				banner = "v1"
				if cur.Version() != h.old.Version() {
					t.Fatalf("revert left %s serving, want %s", cur.Version(), h.old.Version())
				}
				if rep.Revert == nil || rep.Revert.RolledBack || rep.Revert.Transfer.Checksum == 0 {
					t.Fatalf("revert report %+v, want a committed update with a checksum", rep.Revert)
				}
			} else if cur.Version() == h.old.Version() {
				t.Fatal("finalize left the old version serving")
			}
			if tc.preUpdate == nil {
				count++ // the mid-window message
			}
			if got, want := sendRecv(t, c1, "after"), fmt.Sprintf("%s:after:%d", banner, count); got != want {
				t.Fatalf("post-window reply = %q, want %q", got, want)
			}
			// Commit released the RESTART pid reservations.
			if pids := cur.Root().KProc().ReservedPids(); len(pids) != 0 {
				t.Fatalf("pid reservations survived the window: %v", pids)
			}

			// Transfer checksum recorded at commit is untouched by the
			// window's resolution.
			if rep.Transfer.Checksum != cs0 {
				t.Fatalf("transfer checksum changed across the window: %#x -> %#x", cs0, rep.Transfer.Checksum)
			}

			// Consumed soft-dirty bits all restored on the survivor (stop
			// the warm daemon first — it legitimately holds consumed bits
			// while armed).
			e.DisarmCanary()
			if tc.warm {
				e.DisarmWarm()
			}
			if n := consumedPages(cur); n != 0 {
				t.Fatalf("%d consumed soft-dirty pages not restored", n)
			}

			// Rollback hygiene: nothing the resolved window spawned is
			// still running, and no pid reservation leaked on the survivor.
			if err := leakcheck.CheckGoroutines(g0, 2*time.Second); err != nil {
				t.Fatal(err)
			}
			if err := leakcheck.CheckReservedPids(cur); err != nil {
				t.Fatal(err)
			}

			// The survivor is still updateable: shadows and soft-dirty
			// accounting stayed valid across the fault.
			next := cur.Version().Seq + 1
			rep2, err := e.Update(echodVersion("3.0", next, "v3", true, 7000))
			if err != nil {
				t.Fatalf("follow-up update: %v", err)
			}
			if rep2.RolledBack {
				t.Fatalf("follow-up update rolled back: %v", rep2.Reason)
			}
			if rep2.Transfer.Checksum == 0 {
				t.Fatal("follow-up transfer checksum missing")
			}
			if got := sendRecv(t, c1, "final"); !strings.HasPrefix(got, "v3:final:") {
				t.Fatalf("post-follow-up reply = %q, want v3 banner", got)
			}
		})
	}
}

// TestCanaryAcceptBitIdenticalToPlainCommit drives the same traffic and
// the same update through a plain warm commit and through a canary
// window that runs to its deadline and finalizes, then compares the
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
		if withCanary {
			feed := newFakeFeed(100, 200*time.Microsecond, time.Second)
			e.SetCanaryPacing(20*time.Millisecond, 2*time.Millisecond, 2)
			if err := e.ArmCanary(canary.SLO{MaxP99: time.Second}, feed.src); err != nil {
				t.Fatalf("ArmCanary: %v", err)
			}
		}
		rep, err := e.Update(echodVersion("2.0", 1, "v2", true, 7000))
		if err != nil {
			t.Fatalf("Update: %v", err)
		}
		if withCanary {
			if !e.CanaryWait(10 * time.Second) {
				t.Fatal("canary window never resolved")
			}
			if rep.CanaryOutcome != "finalized" {
				t.Fatalf("healthy canary outcome = %q (reason %v)", rep.CanaryOutcome, rep.Reason)
			}
		} else if rep.Canary {
			t.Fatal("plain update unexpectedly opened a canary window")
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

// TestCanaryControllerStatus exercises the mcr-ctl "canary status"
// surface across the armed -> reverted lifecycle.
func TestCanaryControllerStatus(t *testing.T) {
	e, _ := launchEchod(t, Options{Audit: true})
	defer e.Shutdown()
	c := NewController(e, "/run/mcr.sock")

	if got := c.dispatch("canary status"); got != "OK canary=disarmed" {
		t.Fatalf("disarmed status = %q", got)
	}
	if got := c.dispatch("canary"); !strings.HasPrefix(got, "ERR usage:") {
		t.Fatalf("bare canary = %q", got)
	}

	feed := newFakeFeed(100, 200*time.Microsecond, time.Second)
	if err := e.ArmCanary(canary.SLO{MaxP99: time.Millisecond}, feed.src); err != nil {
		t.Fatal(err)
	}
	got := c.dispatch("canary status")
	if !strings.Contains(got, "canary=armed") || !strings.Contains(got, "slo=p99=1ms") {
		t.Fatalf("armed status = %q", got)
	}

	e.SetCanaryPacing(time.Minute, time.Millisecond, -1)
	rep, err := e.Update(echodVersion("2.0", 1, "v2", true, 7000))
	if err != nil {
		t.Fatal(err)
	}
	feed.add(10, 0, 100*time.Millisecond, 50*time.Millisecond)
	if !e.CanaryWait(10 * time.Second) {
		t.Fatal("window never resolved")
	}
	if rep.CanaryOutcome != "reverted" {
		t.Fatalf("outcome = %q", rep.CanaryOutcome)
	}
	got = c.dispatch("canary status")
	if !strings.Contains(got, "outcome=reverted") || !strings.Contains(got, `cause="p99`) {
		t.Fatalf("post-revert status = %q", got)
	}
}

// TestCanaryStarvedMonitorIsNotDead runs a healthy update whose monitor is
// held up — inside its sample source, standing in for a goroutine starved
// of CPU — until well past the window plus the slack the old wall-clock
// failsafe allowed (window + max(4 intervals, 20ms)). A late judge is not
// a dead judge: the window must finalize, not revert with canary:monitor.
func TestCanaryStarvedMonitorIsNotDead(t *testing.T) {
	e, k := launchEchod(t, Options{Audit: true})
	defer e.Shutdown()
	c1, err := k.Connect(7000)
	if err != nil {
		t.Fatal(err)
	}
	sendRecv(t, c1, "a")
	old := e.Current()

	const window, interval = 20 * time.Millisecond, 2 * time.Millisecond
	feed := newFakeFeed(100, 200*time.Microsecond, time.Second)
	var calls atomic.Int32
	src := func() canary.Sample {
		// Calls 1 and 2 are Update's throughput baseline and the monitor's
		// seed at window open; the third is the monitor loop's first.
		if calls.Add(1) == 3 {
			time.Sleep(window + 20*time.Millisecond + 40*time.Millisecond)
			feed.add(100, 0, 200*time.Microsecond, 80*time.Millisecond)
		}
		return feed.src()
	}
	e.SetCanaryPacing(window, interval, -1)
	if err := e.ArmCanary(canary.SLO{MaxP99: time.Second}, src); err != nil {
		t.Fatal(err)
	}
	rep, err := e.Update(echodVersion("2.0", 1, "v2", true, 7000))
	if err != nil {
		t.Fatalf("Update: %v", err)
	}
	if !e.CanaryWait(10 * time.Second) {
		t.Fatal("window never resolved")
	}
	if rep.CanaryOutcome != "finalized" || rep.RolledBack {
		t.Fatalf("outcome=%q cause=%q, want a late monitor to finalize the healthy version",
			rep.CanaryOutcome, rep.RollbackCause)
	}
	if e.Current() == old {
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
	feed := newFakeFeed(100, 200*time.Microsecond, time.Second)
	e.SetCanaryPacing(time.Minute, time.Millisecond, -1)
	if err := e.ArmCanary(canary.SLO{MaxP99: time.Millisecond}, feed.src); err != nil {
		t.Fatal(err)
	}
	var replies []string
	replies = append(replies, sendRecv(t, c, "a"))
	rep, err := e.Update(echodVersion("2.0", 1, "v2", true, 7000))
	if err != nil {
		t.Fatalf("Update: %v", err)
	}
	replies = append(replies, sendRecv(t, c, "b"), sendRecv(t, c, "b2"))
	feed.add(10, 0, 100*time.Millisecond, 50*time.Millisecond) // breach p99
	if !e.CanaryWait(10 * time.Second) {
		t.Fatal("canary window never resolved")
	}
	if rep.CanaryOutcome != "reverted" {
		t.Fatalf("outcome %q (reason %v), want reverted", rep.CanaryOutcome, rep.Reason)
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
		feed := newFakeFeed(100, 200*time.Microsecond, time.Second)
		if withCanary {
			e.SetCanaryPacing(time.Minute, time.Millisecond, -1)
			if err := e.ArmCanary(canary.SLO{MaxP99: time.Millisecond}, feed.src); err != nil {
				t.Fatal(err)
			}
		}
		back := e.Current().Version()
		rep, err := e.Update(echodVersion("2.0", 1, "v2", true, 7000))
		if err != nil {
			t.Fatalf("Update: %v", err)
		}
		sendRecv(t, c1, "during")
		sendRecv(t, c2, "y")
		if !withCanary {
			rep, err = e.Update(back)
			if err != nil {
				t.Fatalf("direct update back: %v", err)
			}
			return rep, e.Current()
		}
		feed.add(10, 0, 100*time.Millisecond, 50*time.Millisecond) // breach p99
		if !e.CanaryWait(10 * time.Second) {
			t.Fatal("canary window never resolved")
		}
		if rep.CanaryOutcome != "reverted" || rep.Revert == nil {
			t.Fatalf("outcome %q (reason %v), want reverted", rep.CanaryOutcome, rep.Reason)
		}
		return rep.Revert, e.Current()
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
// revert-failed without reading as rolled back, and the revert span on
// the canary track carries the quiescence error instead of dropping it.
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

	feed := newFakeFeed(100, 200*time.Microsecond, time.Second)
	e.SetCanaryPacing(time.Minute, time.Millisecond, -1)
	if err := e.ArmCanary(canary.SLO{MaxP99: time.Millisecond}, feed.src); err != nil {
		t.Fatalf("ArmCanary: %v", err)
	}
	rep, err := e.Update(v2)
	if err != nil {
		t.Fatalf("Update: %v", err)
	}
	if !rep.Canary {
		t.Fatal("update did not open a canary window")
	}
	if got := sendRecv(t, c, "b"); got != "v2:b:2" {
		t.Fatalf("mid-window reply = %q", got)
	}
	spin.Store(true)
	e.Current().Root().Notify()
	feed.add(10, 0, 100*time.Millisecond, 50*time.Millisecond) // breach p99
	if !e.CanaryWait(10 * time.Second) {
		t.Fatal("canary window never resolved")
	}
	if rep.CanaryOutcome != "revert-failed" || rep.RolledBack || rep.RollbackCause != "" {
		t.Fatalf("outcome %q, rolled back %v (cause %q): want revert-failed, not rolled back",
			rep.CanaryOutcome, rep.RolledBack, rep.RollbackCause)
	}
	if rep.Revert == nil || !rep.Revert.RolledBack {
		t.Fatalf("revert report %+v, want a rolled-back update", rep.Revert)
	}
	if got := e.Current().Version(); got != v2 {
		t.Fatalf("%s serving after a failed revert, want %s", got, v2)
	}
	if st := e.CanaryStatus(); st.Open || st.LastOutcome != "revert-failed" {
		t.Fatalf("canary status %+v, want a closed window with outcome revert-failed", st)
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
