package experiments

// End-to-end verdicts under live, validated traffic on the model servers:
// daemon epochs while clients keep writing, the warm daemon at several duty
// cycles, the post-commit canary window and injected faults. Every
// response the closed-loop clients receive is checked; each test asserts
// a contract and reports no numbers.

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/canary"
	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/kernel"
	"repro/internal/leakcheck"
	"repro/internal/obs"
	"repro/internal/program"
	"repro/internal/servers"
	"repro/internal/workload"
)

// liveWindow is the length of one measurement window.
const liveWindow = 60 * time.Millisecond

// window serves for d and returns the driver's delta over it.
func window(drv *workload.Sustained, d time.Duration) workload.SustainedStats {
	before := drv.Snapshot()
	time.Sleep(d)
	return drv.Snapshot().Delta(before)
}

// serveLive launches spec with opts and starts four validating
// closed-loop clients against it; both are torn down when the test ends.
// httpd runs four pool threads.
func serveLive(t *testing.T, spec *servers.Spec, opts core.Options) (*core.Engine, *workload.Sustained) {
	t.Helper()
	if spec.Name == "httpd" {
		old := servers.SetHttpdPoolThreads(4)
		t.Cleanup(func() { servers.SetHttpdPoolThreads(old) })
	}
	opts.QuiesceTimeout = 30 * time.Second
	if opts.StartupTimeout == 0 {
		opts.StartupTimeout = 30 * time.Second
	}
	e, k, err := launchServer(spec, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.Shutdown)
	drv, err := workload.StartSustained(k, workload.SustainedOptions{Server: spec.Name, Port: spec.Port, Clients: 4})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { drv.Stop() })
	time.Sleep(liveWindow / 4) // session setup
	return e, drv
}

// armWarm arms e's warm daemon over its running instance, paced at
// interval and duty (0 = the daemon's default duty cycle).
func armWarm(t *testing.T, e *core.Engine, interval time.Duration, duty float64) {
	t.Helper()
	if err := e.SetWarmPacing(interval, duty); err != nil {
		t.Fatal(err)
	}
	if err := e.ArmWarm(); err != nil {
		t.Fatalf("ArmWarm: %v", err)
	}
}

// nextVersion returns the next release in e's history, clamped to the
// last one spec has.
func nextVersion(e *core.Engine, spec *servers.Spec) *program.Version {
	next := len(e.History()) + 1
	if next >= spec.NumVersions {
		next = spec.NumVersions - 1
	}
	return spec.Version(next)
}

// consumedPages counts the soft-dirty pages inst's processes have handed
// to a reader and not yet had restored.
func consumedPages(inst *program.Instance) int {
	n := 0
	for _, p := range inst.Procs() {
		n += p.Space().ConsumedCount()
	}
	return n
}

// TestFigure3LiveTrafficPrecopy runs Figure 3's update with the warm
// daemon armed while one of the open sessions keeps issuing requests: the
// update is requested only after a daemon epoch has run over the writes of
// that live traffic, and requests in flight at quiescence are answered by
// the new version after commit. Every point must start from the daemon,
// measure its downtime, and complete traffic during the update.
func TestFigure3LiveTrafficPrecopy(t *testing.T) {
	for _, spec := range servers.Catalog() {
		for _, conns := range Quick.connPoints() {
			t.Run(fmt.Sprintf("%s/%d", spec.Name, conns), func(t *testing.T) {
				if spec.Name == "httpd" {
					old := servers.SetHttpdPoolThreads(Quick.poolThreads())
					defer servers.SetHttpdPoolThreads(old)
				}
				// Passes spaced out so the workload re-dirties its working
				// set between epochs.
				e, k, err := launchServer(spec, core.Options{
					QuiesceTimeout: 30 * time.Second,
					StartupTimeout: 30 * time.Second,
				})
				if err != nil {
					t.Fatal(err)
				}
				defer e.Shutdown()
				armWarm(t, e, 2*time.Millisecond, 0)
				sessions, err := workload.OpenSessions(k, spec.Name, spec.Port, conns)
				if err != nil {
					t.Fatal(err)
				}
				defer workload.CloseSessions(sessions)
				// The daemon has absorbed session setup before the
				// traffic starts, so every point runs at least one pass.
				if !e.WarmWait(30 * time.Second) {
					t.Fatalf("warm daemon never caught up: %+v", e.WarmStatus())
				}

				stop, done := make(chan struct{}), make(chan struct{})
				served := make(chan struct{}) // closed after the first live request
				reqs := 0
				if conns == 0 {
					close(done)
				} else {
					go func() {
						defer close(done)
						for i := 0; ; i++ {
							select {
							case <-stop:
								return
							default:
							}
							if err := driveOne(spec.Name, sessions[0], i); err != nil {
								return
							}
							if reqs++; reqs == 1 {
								close(served)
							}
						}
					}()
				}
				// Hold the update until an epoch has begun after the first
				// live request, so the daemon's shadows were taken while
				// the traffic was writing.
				epochs := 0
				if conns > 0 {
					select {
					case <-served:
					case <-done:
						t.Fatal("live traffic failed before its first request")
					case <-time.After(30 * time.Second):
						t.Fatal("live traffic never completed a request")
					}
					epochs = e.WarmStatus().Epochs
					deadline := time.Now().Add(30 * time.Second)
					for e.WarmStatus().Epochs <= epochs+1 {
						if time.Now().After(deadline) {
							close(stop)
							<-done
							t.Fatalf("no daemon epoch ran over the live traffic: %+v", e.WarmStatus())
						}
						time.Sleep(time.Millisecond)
					}
				}
				rep, err := e.Update(spec.Version(1))
				close(stop)
				<-done
				if err != nil {
					t.Fatal(err)
				}
				if !rep.Warm || rep.WarmDaemon.Passes == 0 {
					t.Errorf("update did not start from the daemon: warm %v, %+v", rep.Warm, rep.WarmDaemon)
				}
				if conns > 0 && rep.WarmDaemon.Epochs <= epochs+1 {
					t.Errorf("update adopted %d daemon epochs, want > %d (one past the first live request)", rep.WarmDaemon.Epochs, epochs+1)
				}
				if conns > 0 && reqs == 0 {
					t.Error("no live traffic completed during the update")
				}
				if rep.Downtime <= 0 {
					t.Error("downtime not measured")
				}
			})
		}
	}
}

// driveOne issues one protocol-appropriate request on the session.
func driveOne(server string, s *workload.Session, i int) error {
	var err error
	switch server {
	case "httpd", "nginx":
		_, err = workload.KeepaliveRequest(s, fmt.Sprintf("GET /live-%d", i))
	case "vsftpd":
		_, err = workload.FTPCommand(s, "STAT")
	case "sshd":
		_, err = workload.SSHExec(s, "true")
	}
	return err
}

// TestRunOverheadLiveTraffic drives the threaded, process-per-connection
// and exec-helper servers with the warm daemon armed at four duty cycles:
// every window must serve, with no wrong response. A mid-traffic warm
// update must then commit on the warm path with a checksummed,
// shadow-verified transfer and keep serving the surviving sessions; on
// httpd, an update whose new version aborts at startup must roll back
// with the old version still serving every client correctly.
func TestRunOverheadLiveTraffic(t *testing.T) {
	for _, name := range []string{"httpd", "vsftpd", "sshd"} {
		t.Run(name, func(t *testing.T) {
			spec, err := servers.SpecByName(name)
			if err != nil {
				t.Fatal(err)
			}
			e, drv := serveLive(t, spec, core.Options{Audit: true})
			if base := window(drv, liveWindow); base.Requests == 0 {
				t.Fatalf("baseline served nothing (last err %v)", drv.LastError())
			}
			for _, duty := range []float64{0.05, 0.15, 0.30, 0.60} {
				armWarm(t, e, 200*time.Microsecond, duty)
				e.WarmWait(liveWindow)
				w := window(drv, liveWindow)
				e.DisarmWarm()
				if w.Requests == 0 || w.BadResponses > 0 {
					t.Fatalf("duty %.2f: %d requests, %d wrong responses", duty, w.Requests, w.BadResponses)
				}
			}

			update := func(expectRollback bool) {
				armWarm(t, e, 200*time.Microsecond, 0.25)
				defer e.DisarmWarm()
				e.WarmWait(liveWindow)
				before := drv.Snapshot()
				rep, err := e.Update(nextVersion(e, spec))
				during := drv.Snapshot().Delta(before)
				if expectRollback {
					if err == nil || rep == nil || !rep.RolledBack {
						t.Fatalf("expected a rollback, got err=%v", err)
					}
				} else {
					if err != nil {
						t.Fatal(err)
					}
					if !rep.Warm || rep.Transfer.Checksum == 0 {
						t.Fatalf("warm path %v, transfer checksum %#x", rep.Warm, rep.Transfer.Checksum)
					}
				}
				after := window(drv, liveWindow)
				if after.Requests == 0 {
					t.Fatalf("no responses after the update (last err %v)", drv.LastError())
				}
				if during.BadResponses > 0 || after.BadResponses > 0 {
					t.Fatalf("wrong responses through the update: %d during, %d after",
						during.BadResponses, after.BadResponses)
				}
			}
			update(false)
			if name == "httpd" {
				// The violating-assumptions toggle (§7) makes the new
				// version abort at startup.
				prev := servers.SetHttpdHonorMCRAnnotation(false)
				update(true)
				servers.SetHttpdHonorMCRAnnotation(prev)
			}
			if bad := drv.Stop().BadResponses; bad > 0 {
				t.Fatalf("%d wrong responses across the run", bad)
			}
		})
	}
}

// TestRunCanary runs a canary window after a live update under live
// traffic, each scenario on a fresh engine. On httpd a plain warm commit
// commits, a healthy update rides through its SLO window to finalization,
// and a forced regression — state transferred perfectly, every request
// served slower than the gate allows — is caught on p99 and reverted by a
// live update back, with no failed response and the old version serving
// after. On sshd a healthy update finalizes. No scenario may see a wrong
// response, and every committed transfer carries a checksum.
func TestRunCanary(t *testing.T) {
	cases := []struct{ server, scenario, outcome string }{
		{"httpd", "plain", "committed"},
		{"httpd", "healthy", "finalized"},
		{"httpd", "regression", "reverted"},
		{"sshd", "healthy", "finalized"},
	}
	for _, tc := range cases {
		t.Run(tc.server+"/"+tc.scenario, func(t *testing.T) {
			spec, err := servers.SpecByName(tc.server)
			if err != nil {
				t.Fatal(err)
			}
			e, drv := serveLive(t, spec, core.Options{Audit: true})
			base := window(drv, liveWindow)
			if base.Requests == 0 {
				t.Fatalf("baseline served nothing (last err %v)", drv.LastError())
			}
			armWarm(t, e, 200*time.Microsecond, 0.25)
			e.WarmWait(liveWindow)
			v := nextVersion(e, spec)
			src := workload.CanarySource(drv)
			watch := canary.Config{Source: src, Recorder: e.Recorder()}
			switch tc.scenario {
			case "healthy":
				// Gates a healthy update cannot plausibly trip, even with
				// one scheduler stall in an interval's tail.
				watch.SLO = canary.SLO{MaxP99: 100*base.P99() + time.Second, MaxErrorRate: 0.25}
				watch.Window = liveWindow
			case "regression":
				maxP99 := 2*base.P99() + 5*time.Millisecond
				delay := 4 * maxP99
				if delay < 20*time.Millisecond {
					delay = 20 * time.Millisecond
				}
				watch.SLO = canary.SLO{MaxP99: maxP99}
				watch.Window = 8 * delay
				defer servers.SetHttpdDegrade(delay, v.Seq)()
			}
			defer e.DisarmWarm()

			back := e.Current().Version()
			baseRPS := src().Throughput()
			before := drv.Snapshot()
			rep, err := e.Update(v)
			if err != nil {
				t.Fatal(err)
			}
			if rep.Transfer.Checksum == 0 {
				t.Error("no transfer checksum")
			}
			outcome := "committed"
			if tc.scenario != "plain" {
				verdict := canary.Watch(watch, baseRPS, func() error {
					_, err := e.Update(back)
					return err
				})
				outcome = verdict.Outcome
				if tc.scenario == "regression" && (verdict.Breach == nil || verdict.Breach.Metric != "p99") {
					t.Errorf("breach %v, want p99", verdict.Breach)
				}
			}
			during := drv.Snapshot().Delta(before)
			if outcome != tc.outcome {
				t.Fatalf("outcome %q, want %q", outcome, tc.outcome)
			}
			win := window(drv, liveWindow)
			if tc.scenario == "regression" {
				// The old version must still be serving after the revert.
				if cur := e.Current().Version(); cur != back {
					t.Errorf("%s serving after the revert, want %s", cur, back)
				}
				if win.Requests == 0 {
					t.Errorf("old version served nothing after the revert (last err %v)", drv.LastError())
				}
				if errs := base.Errors + during.Errors + win.Errors; errs > 0 {
					t.Errorf("%d failed responses through breach and revert", errs)
				}
			}
			if bad := base.BadResponses + during.BadResponses + win.BadResponses; bad > 0 {
				t.Errorf("%d wrong responses", bad)
			}
		})
	}
}

// TestFaultCampaignSmoke fires faults through a real server under
// sustained, validated traffic: httpd with four pool threads, four
// closed-loop clients, one cell per recovery path — a loud crash, both
// watchdog deadlines and a double fault. Every cell asserts the survival
// contract: the classified cause (and secondary), the point fired,
// recovery within budget, a verified and identical rollback digest, the
// old version serving after, zero failed or wrong responses, every
// consumed soft-dirty bit handed back, and no leaked goroutine or pid
// reservation.
func TestFaultCampaignSmoke(t *testing.T) {
	cases := []struct {
		name          string
		point         faultinject.Point
		secondary     faultinject.Point
		deadlinePhase string
		wantCause     string
		wantSecondary string
		budget        time.Duration
	}{
		{name: "restart-crash", point: faultinject.PointRestartCrash,
			wantCause: "fault:restart-crash", budget: 15 * time.Second},
		{name: "restart-hang", point: faultinject.PointRestartHang, deadlinePhase: core.WDRestart,
			wantCause: "deadline:restart", budget: 5 * time.Second},
		{name: "transfer-stall", point: faultinject.PointTransferStall, deadlinePhase: core.WDTransfer,
			wantCause: "deadline:transfer", budget: 5 * time.Second},
		{name: "double-fault", point: faultinject.PointRestartCrash, secondary: faultinject.PointRollbackRestore,
			wantCause: "fault:restart-crash", wantSecondary: "fault:rollback-restore", budget: 15 * time.Second},
	}
	old := servers.SetHttpdPoolThreads(4)
	defer servers.SetHttpdPoolThreads(old)
	spec := servers.HttpdSpec()
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			plane := faultinject.New(1)
			rec := obs.New(1 << 14)
			plane.AttachRecorder(rec)
			opts := core.Options{
				Audit:          true,
				Faults:         plane,
				QuiesceTimeout: 30 * time.Second,
				StartupTimeout: 30 * time.Second,
				Recorder:       rec,
			}
			if tc.point == faultinject.PointRestartHang {
				// Only the watchdog may recover the hang.
				opts.StartupTimeout = 5 * time.Minute
			}
			k := kernel.New()
			servers.SeedFiles(k)
			e, err := core.NewEngine(k, opts)
			if err != nil {
				t.Fatal(err)
			}
			defer e.Shutdown()
			if tc.deadlinePhase != "" {
				if err := e.SetPhaseDeadlines(map[string]time.Duration{tc.deadlinePhase: 250 * time.Millisecond}); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := e.Launch(spec.Version(0)); err != nil {
				t.Fatal(err)
			}
			drv, err := workload.StartSustained(k, workload.SustainedOptions{
				Server: spec.Name, Port: spec.Port, Clients: 4,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer drv.Stop()
			time.Sleep(liveWindow / 4) // session setup
			base := window(drv, liveWindow)
			if base.Requests == 0 {
				t.Fatalf("baseline served nothing (last err %v)", drv.LastError())
			}
			plane.Arm(tc.point)
			if tc.secondary != "" {
				plane.Arm(tc.secondary)
			}

			g0 := leakcheck.Goroutines()
			t0 := time.Now()
			rep, err := e.Update(spec.Version(1))
			if !errors.Is(err, core.ErrUpdateFailed) {
				t.Fatalf("Update err = %v, want ErrUpdateFailed", err)
			}
			if d := time.Since(t0); d > tc.budget {
				t.Fatalf("recovery took %v, budget %v", d, tc.budget)
			}
			if !rep.RolledBack || rep.RollbackCause != tc.wantCause || rep.RollbackSecondary != tc.wantSecondary {
				t.Fatalf("RolledBack=%v cause=%q secondary=%q, want true/%q/%q (reason %v)",
					rep.RolledBack, rep.RollbackCause, rep.RollbackSecondary, tc.wantCause, tc.wantSecondary, rep.Reason)
			}
			if !plane.Fired(tc.point) {
				t.Fatalf("armed point %s never fired", tc.point)
			}
			if !rep.RollbackVerified || !rep.RollbackIdentical {
				t.Fatalf("rollback audit: verified=%v identical=%v", rep.RollbackVerified, rep.RollbackIdentical)
			}

			after := window(drv, liveWindow)
			if after.Requests == 0 {
				t.Fatalf("old instance served nothing after the rollback (last err %v)", drv.LastError())
			}
			if errs, bad := base.Errors+after.Errors, base.BadResponses+after.BadResponses; errs > 0 || bad > 0 {
				t.Fatalf("%d failed / %d wrong responses through the fault", errs, bad)
			}

			cur := e.Current()
			if n := consumedPages(cur); n != 0 {
				t.Fatalf("%d consumed soft-dirty pages not restored", n)
			}
			if err := leakcheck.CheckGoroutines(g0, 5*time.Second); err != nil {
				t.Fatal(err)
			}
			if err := leakcheck.CheckReservedPids(cur); err != nil {
				t.Fatal(err)
			}
		})
	}
}
