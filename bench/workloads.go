package main

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/obs"
	"repro/internal/program"
	"repro/internal/servers"
)

// workloadDef is one traffic-and-update mix. Every workload runs the
// same cycle (see run.cycle); the fields say what differs.
type workloadDef struct {
	name   string
	why    string
	server string
	// idle is the number of logged-in sessions held open, unused, across
	// the updates (a forked process each on vsftpd and sshd).
	idle int
	// preload is P: validated closed-loop requests, split over the two
	// load connections, served before anything else. It fixes the size of
	// the state every later step works on.
	preload int
	// armed is A: closed-loop requests served with the warm daemon armed.
	armed int
	// base is the number of unmeasured updates that take the preloaded
	// state to the version pair the measured update runs on.
	base int
	// warm keeps the daemon armed into the measured update.
	warm bool
	// quiet sends nothing between the last base update and the instant
	// the measured update has quiesced the server; the paced traffic
	// starts there. nginx adopts page frames only then: one request
	// served by the version being replaced moves its heap top, the
	// start-up objects after it pair at new addresses, and the one big
	// object — sharing its last page with them — falls back to the copy
	// path whole.
	quiet bool
	// cycleSeconds is the nominal wall time of one cycle on the 2-CPU
	// reference machine; a run of s seconds makes s/cycleSeconds cycles.
	cycleSeconds float64
}

var workloads = []workloadDef{
	{
		name: "httpd-cold", server: "httpd", preload: 200000, armed: 40000, cycleSeconds: 2.0,
		why: "nested region allocators, largest likely-pointer census: in-window conservative analysis under traffic owns the downtime, copy/adopt move 5 objects",
	},
	{
		name: "nginx-copy", server: "nginx", preload: 100000, armed: 20000, base: 1, cycleSeconds: 2.2,
		why: "one 15.7 MB heap object across a type change, under traffic: every byte is copied through mem.ReadAt/WriteAt, and the copy owns the downtime",
	},
	{
		name: "nginx-adopt", server: "nginx", preload: 100000, armed: 20000, base: 2, quiet: true, cycleSeconds: 2.4,
		why: "the same object across a layout-identical update, no traffic before it: the same bytes move as donated page frames after the pre-donation digest",
	},
	{
		name: "vsftpd-warm", server: "vsftpd", idle: 32, preload: 50000, armed: 20000, warm: true, cycleSeconds: 1.0,
		why: "35 processes, 5 KB moved, daemon armed: per-process revalidation, discovery and replay own the downtime, analysis and shadows are prepaid",
	},
	{
		name: "sshd-steady", server: "sshd", preload: 100000, armed: 100000, cycleSeconds: 1.2,
		why: "state that does not grow and a 2 ms update: the cycle is closed-loop serving, so a read-path change must not move it and a write-path cost shows",
	},
}

func workloadByName(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

const (
	loadConns   = 2                      // never more load goroutines than CPUs here
	pacedPeriod = time.Millisecond       // per connection: 2 000 req/s offered in total
	pacedWindow = 200 * time.Millisecond // paced traffic before and after each update
	genLateCap  = 5000.0                 // us; beyond this the stall numbers are the generator's
	minPasses   = 20                     // daemon passes an armed window must see (sshd-steady)
	warmTimeout = 30 * time.Second
)

var errForcedRollback = errors.New("bench: forced startup failure")

// failing returns v with a main that fails at once: the new version's
// RESTART dies, and the engine must roll the update back.
func failing(v *program.Version) *program.Version {
	f := *v
	f.Main = func(*program.Thread) error { return errForcedRollback }
	return &f
}

// run accumulates one workload's measurements over its cycles.
type run struct {
	def   workloadDef
	spec  *servers.Spec
	seed  int64
	smoke bool // a twentieth of the requests, no timing-dependent gates

	samples map[string][]float64
	// tracedDowntime is downtime_ms of the traced cycles, the numerator
	// of obs.traced_overhead_frac.
	tracedDowntime []float64
	attempted      int // requests + updates
	failed         int
	violations     []string
	tracer         *tracer // the run's spans (traced pass only)
	tr             *tracer // tracer while a traced or probe cycle runs, else nil
}

func newRun(def workloadDef, seed int64, smoke bool) (*run, error) {
	spec, err := servers.SpecByName(def.server)
	if err != nil {
		return nil, err
	}
	return &run{def: def, spec: spec, seed: seed, smoke: smoke, samples: map[string][]float64{}}, nil
}

// perConn scales a workload's request count to this run and splits it
// over the load connections.
func (r *run) perConn(requests int) int {
	if r.smoke {
		requests /= 20
	}
	return requests / loadConns
}

func (r *run) violate(format string, args ...any) {
	r.violations = append(r.violations, fmt.Sprintf(format, args...))
}

func (r *run) count(st *loadStats) {
	req, bad := st.total()
	r.attempted += req
	r.failed += bad
}

// server is one launched model server with its client sessions.
type server struct {
	k    *kernel.Kernel
	e    *core.Engine
	rec  *obs.Recorder
	load []*conn
	idle []*conn
}

func (s *server) close() {
	for _, c := range append(s.load, s.idle...) {
		c.close()
	}
	s.e.Shutdown()
}

// setUp launches version 0 on a fresh kernel, opens the idle and load
// sessions and serves the preload. vals receives setup_s, serve_rps and
// the driver's own per-layer numbers.
func (r *run) setUp(cycle int, traced bool, vals map[string]float64) (*server, error) {
	t0 := time.Now()
	s := &server{k: kernel.New()}
	servers.SeedFiles(s.k)
	opts := core.DefaultOptions()
	if traced {
		opts = core.AuditOptions()
		s.rec = obs.New(8 * obs.DefaultCapacity)
		opts.Recorder = s.rec
	}
	var err error
	if s.e, err = core.NewEngine(s.k, opts); err != nil {
		return nil, err
	}
	r.tr.span("core.Launch", func() { _, err = s.e.Launch(r.spec.Version(0)) })
	if err != nil {
		return nil, err
	}

	// The seed names the idle users and pads the request paths; the
	// servers see nothing else of it.
	seed := r.seed + int64(cycle)<<20
	names := rand.New(rand.NewSource(seed))
	var connectUs []float64
	open := func(user string, i int) (*conn, error) {
		t := time.Now()
		c, err := dial(s.k, r.def.server, r.spec.Port, user, seed+int64(i))
		connectUs = append(connectUs, us(time.Since(t)))
		return c, err
	}
	r.tr.span("workload.open", func() {
		for i := 0; i < r.def.idle && err == nil; i++ {
			var c *conn
			if c, err = open(fmt.Sprintf("u%06x%d", names.Intn(1<<24), i), loadConns+i); err == nil {
				s.idle = append(s.idle, c)
			}
		}
		for i := 0; i < loadConns && err == nil; i++ {
			var c *conn
			if c, err = r.openLoad(s, i, open); err == nil {
				s.load = append(s.load, c)
			}
		}
	})
	if err != nil {
		s.close()
		return nil, err
	}

	var pre *loadStats
	r.tr.span("workload.preload", func() { pre = closedLoop(s.load, r.perConn(r.def.preload)) })
	r.count(pre)
	vals["setup_s"] = time.Since(t0).Seconds()
	req, _ := pre.total()
	vals["serve_rps"] = float64(req) / pre.elapsed.Seconds()
	vals["kernel.rtt_us"] = percentile(merged(pre.latencyUs), 50)
	vals["kernel.connect_us"] = median(connectUs)
	return s, nil
}

// openLoad opens load connection i. httpd runs two worker processes and
// whichever wins the accept race serves the connection for good; both
// connections in one worker is a different server (one process holds all
// the state, one address-space lock serialises both clients) from one
// each, and a coin toss per cycle between the two made every httpd metric
// bimodal. So the benchmark looks where the connection landed and
// re-dials until each worker has one.
func (r *run) openLoad(s *server, i int, open func(string, int) (*conn, error)) (*conn, error) {
	for try := 0; ; try++ {
		c, err := open(fmt.Sprintf("load%d", i), i)
		if err != nil || r.def.server != "httpd" {
			return c, err
		}
		workers, err := keepaliveWorkers(s.e.Current())
		if err != nil {
			return nil, err
		}
		if workers == i+1 {
			return c, nil
		}
		c.close()
		if try == 64 {
			return nil, errors.New("bench: httpd never spread the load connections over its workers")
		}
	}
}

// keepaliveWorkers counts the httpd worker processes that host a
// keepalive handler thread. It looks with the server quiesced: the thread
// table may only be read then, and the pool thread that has just answered
// a new session cannot park before it has spawned the session's handler.
func keepaliveWorkers(inst *program.Instance) (int, error) {
	if _, err := inst.Quiesce(10 * time.Second); err != nil {
		return 0, err
	}
	defer inst.Resume()
	seen := map[program.ProcKey]bool{}
	for _, ti := range inst.ThreadsInfo() {
		if ti.Class == "httpd_keepalive" {
			seen[ti.Key] = true
		}
	}
	return len(seen), nil
}

// checkUpdate counts one update attempt and records a violation unless it
// ended as expected: committed (with a nonzero transfer checksum when the
// audit is on) or rolled back (bit-identically, when the audit is on).
func (r *run) checkUpdate(what string, rep *core.UpdateReport, err error, wantRollback, audited bool) bool {
	r.attempted++
	var why string
	switch {
	case rep == nil:
		why = fmt.Sprintf("no report: %v", err)
	case wantRollback && !(rep.RolledBack && errors.Is(err, core.ErrUpdateFailed)):
		why = fmt.Sprintf("expected a rollback, got err=%v rolledback=%v", err, rep.RolledBack)
	case wantRollback && audited && !(rep.RollbackVerified && rep.RollbackIdentical):
		why = fmt.Sprintf("rollback not bit-identical (verified=%v identical=%v)", rep.RollbackVerified, rep.RollbackIdentical)
	case !wantRollback && (err != nil || rep.RolledBack):
		why = fmt.Sprintf("expected a commit, got err=%v cause=%q", err, rep.RollbackCause)
	case !wantRollback && audited && rep.Transfer.Checksum == 0:
		why = "committed with a zero transfer checksum"
	}
	if why != "" {
		r.failed++
		r.violate("%s: %s: %s", r.def.name, what, why)
		return false
	}
	return true
}

// cycle runs the workload once on a fresh server and returns its
// measurements, one value per metric:
//
//	set-up: launch, open the sessions, P requests closed loop
//	-> arm the warm daemon, A requests closed loop, disarm unless the
//	   workload updates warm (then: wait until the daemon is current)
//	-> the unmeasured base updates
//	-> paced open loop on the same connections for a window (a quiet
//	   workload starts it the moment the update has quiesced the server)
//	-> the measured update -> a window more
//	-> an update that must roll back -> half a window more
//	-> every session, idle ones included, must answer from the committed version.
func (r *run) cycle(cycle int, traced bool) (map[string]float64, error) {
	vals := map[string]float64{}
	var (
		s   *server
		err error
	)
	r.tr.span("setup", func() { s, err = r.setUp(cycle, traced, vals) })
	if err != nil {
		return nil, err
	}
	defer s.close()
	e := s.e

	// Armed serving, from the moment the operator turns warm standby on:
	// on a large state the window overlaps the daemon's catch-up pass, on
	// a small one it sees hundreds of steady-state passes.
	r.tr.span("armed", func() {
		r.tr.span("core.ArmWarm", func() { err = e.ArmWarm() })
		if err != nil {
			return
		}
		var armed *loadStats
		w0 := e.WarmStatus()
		r.tr.span("workload.armed", func() { armed = closedLoop(s.load, r.perConn(r.def.armed)) })
		w1 := e.WarmStatus()
		r.count(armed)
		r.armedMetrics(vals, armed, w0, w1)
		if !r.def.warm {
			r.tr.span("core.DisarmWarm", e.DisarmWarm)
			return
		}
		var ok bool
		vals["checkpoint.warm_wait_ms"] = ms(r.tr.span("core.WarmWait", func() { ok = e.WarmWait(warmTimeout) }))
		if !ok {
			err = errors.New("bench: warm daemon never became current")
		}
	})
	if err != nil {
		return nil, err
	}

	if !r.baseUpdates(s, traced) {
		return nil, errors.New("bench: a base update did not commit")
	}

	// Paced traffic across the measured update and the forced rollback.
	target := r.spec.Version(r.def.base + 1)
	var (
		rep, rb    *core.UpdateReport
		uerr, rerr error
		u0, u1     time.Duration
		traffic    *loadStats
	)
	r.tr.span("paced", func() {
		var p *pacer
		if !r.def.quiet {
			p = startPaced(s.load, pacedPeriod)
			time.Sleep(pacedWindow)
		}
		runtime.GC()
		called := time.Now()
		if r.def.quiet {
			started := startPacedAtQuiescence(e.Current(), s.load)
			r.tr.span("core.Update", func() { rep, uerr = e.Update(target) })
			p = started()
		} else {
			r.tr.span("core.Update", func() { rep, uerr = e.Update(target) })
		}
		u0, u1 = max(0, called.Sub(p.start)), p.since()
		time.Sleep(pacedWindow)
		r.tr.span("core.Update(rollback)", func() { rb, rerr = e.Update(failing(r.spec.Version(r.def.base + 2))) })
		time.Sleep(pacedWindow / 2)
		traffic = p.finish()
	})
	r.count(traffic)
	if !r.checkUpdate("measured update", rep, uerr, false, traced) ||
		!r.checkUpdate("forced rollback", rb, rerr, true, traced) {
		return nil, errors.New("bench: update outcome differs from the expected one")
	}
	if rep.Warm != r.def.warm {
		r.violate("%s: measured update reports Warm=%v", r.def.name, rep.Warm)
	}

	// The clients' view of the outcome: the commit is visible, the
	// rollback is not, and no session lost its place.
	for _, c := range append(s.load, s.idle...) {
		c.release = target.Release
		r.attempted++
		if !c.request() {
			r.failed++
		}
	}

	vals["downtime_ms"] = ms(rep.Downtime)
	vals["update_ms"] = ms(rep.TotalTime)
	vals["stall_ms"] = traffic.worstBetween(u0-pacedPeriod, u1) / 1000
	vals["rollback_ms"] = ms(rb.Downtime)
	r.reportMetrics(vals, rep)
	req, _ := traffic.total()
	vals["workload.offered_rps"] = float64(req) / traffic.elapsed.Seconds()
	late := merged(traffic.lateUs)
	vals["workload.gen_late_p50_us"] = percentile(late, 50)
	vals["workload.gen_late_p99_us"] = tailAtMost(late, 99)
	if s.rec != nil {
		vals["obs.events"] = float64(len(s.rec.Events()))
		vals["obs.dropped"] = float64(s.rec.Dropped())
	}
	return vals, nil
}

// baseUpdates applies the workload's unmeasured updates.
func (r *run) baseUpdates(s *server, traced bool) bool {
	for i := 1; i <= r.def.base; i++ {
		var (
			rep *core.UpdateReport
			err error
		)
		r.tr.span("core.Update(base)", func() { rep, err = s.e.Update(r.spec.Version(i)) })
		if !r.checkUpdate(fmt.Sprintf("base update %d", i), rep, err, false, traced) {
			return false
		}
	}
	return true
}

// startPacedAtQuiescence watches the running instance's barrier and
// starts the paced senders the moment every server thread is parked, so
// that no request reaches the version being replaced. The returned
// function, called once the update has returned, hands over the pacer.
func startPacedAtQuiescence(old *program.Instance, conns []*conn) func() *pacer {
	var done atomic.Bool
	started := make(chan *pacer, 1)
	go func() {
		for !old.Barrier().Quiesced() && !done.Load() {
			time.Sleep(20 * time.Microsecond)
		}
		started <- startPaced(conns, pacedPeriod)
	}()
	return func() *pacer {
		done.Store(true)
		return <-started
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// armedMetrics derives armed_rps and the checkpoint layer's numbers from
// an armed closed-loop window and the daemon status either side of it.
func (r *run) armedMetrics(vals map[string]float64, st *loadStats, w0, w1 core.WarmStatus) {
	req, _ := st.total()
	secs := st.elapsed.Seconds()
	vals["armed_rps"] = float64(req) / secs
	passes := w1.Passes - w0.Passes
	work, pause := w1.WorkTime-w0.WorkTime, w1.PauseTime-w0.PauseTime
	vals["checkpoint.daemon_passes_per_s"] = float64(passes) / secs
	if passes > 0 {
		vals["checkpoint.daemon_pass_ms"] = ms(work) / float64(passes)
	}
	if work+pause > 0 {
		vals["checkpoint.duty_measured"] = float64(work) / float64(work+pause)
	}
	vals["checkpoint.yields_per_s"] = float64(w1.Yields-w0.Yields) / secs
	lat := merged(st.latencyUs)
	vals["checkpoint.armed_p99_us"] = tailAtMost(lat, 99)
	vals["checkpoint.armed_p999_us"] = tailAtMost(lat, 99.9)
	if r.def.name == "sshd-steady" && !r.smoke && passes < minPasses {
		r.violate("%s: armed window saw %d daemon passes, need %d", r.def.name, passes, minPasses)
	}
}

// reportMetrics reads the per-layer numbers the engine's public report
// of the measured update carries.
func (r *run) reportMetrics(vals map[string]float64, rep *core.UpdateReport) {
	t := rep.Transfer
	vals["core.prequiesce_ms"] = ms(rep.TotalTime - rep.Downtime)
	vals["core.analysis_ms"] = ms(rep.AnalysisTime)
	vals["core.discovery_ms"] = ms(rep.DiscoveryTime)
	vals["core.transfer_ms"] = ms(rep.StateTransferTime)
	vals["core.unattributed_ms"] = ms(rep.Downtime - rep.QuiesceTime - rep.AnalysisTime -
		rep.ControlMigrationTime - rep.StateTransferTime)
	if n := rep.AnalysesReused + rep.ProcsReanalyzed; n > 0 {
		vals["core.analyses_reused_frac"] = float64(rep.AnalysesReused) / float64(n)
	}
	vals["quiesce.converge_ms"] = ms(rep.QuiesceTime)
	vals["reinit.restart_ms"] = ms(rep.ControlMigrationTime)
	vals["reinit.fds_collected"] = float64(rep.FDsCollected)
	vals["replaylog.replayed"] = float64(rep.Replayed)
	vals["replaylog.live"] = float64(rep.LiveExecuted)
	vals["replaylog.conflicted"] = float64(rep.Conflicted)
	vals["trace.objects_discovered"] = float64(t.ObjectsDiscovered)
	vals["trace.objects_transferred"] = float64(t.ObjectsTransferred)
	vals["trace.bytes_transferred"] = float64(t.BytesTransferred)
	vals["trace.bytes_live"] = float64(t.BytesLive)
	vals["trace.bytes_shadow"] = float64(t.BytesFromShadow)
	vals["trace.bytes_adopted"] = float64(t.BytesAdopted)
	vals["trace.pages_adopted"] = float64(t.PagesAdopted)
	vals["trace.adoption_frac"] = t.AdoptionFraction()
	vals["trace.shadow_frac"] = t.ShadowFraction()
	vals["trace.type_cache_hits"] = float64(t.TypeCacheHits)
	if rep.StateTransferTime > 0 {
		vals["trace.copy_mbps"] = float64(t.BytesTransferred) / 1e6 / rep.StateTransferTime.Seconds()
	}
	vals["checkpoint.shadow_lag_pages"] = float64(rep.WarmLagAtRequest)
	if r.def.name == "nginx-adopt" && t.AdoptionFraction() < 0.5 {
		r.violate("%s: adoption fraction %.3f < 0.5: the workload no longer measures adoption", r.def.name, t.AdoptionFraction())
	}
}
