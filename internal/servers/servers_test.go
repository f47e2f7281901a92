package servers

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/mem"
	"repro/internal/quiesce"
	"repro/internal/workload"
)

func launch(t *testing.T, spec *Spec, opts core.Options) (*core.Engine, *kernel.Kernel) {
	t.Helper()
	k := kernel.New()
	SeedFiles(k)
	e, err := core.NewEngine(k, opts)
	if err != nil {
		t.Fatalf("engine %s: %v", spec.Name, err)
	}
	if _, err := e.Launch(spec.Version(0)); err != nil {
		t.Fatalf("launch %s: %v", spec.Name, err)
	}
	return e, k
}

// TestProfileMatchesTable1 runs the quiescence profiler under each
// server's profiling workload and checks the thread-class census against
// the paper's Table 1.
func TestProfileMatchesTable1(t *testing.T) {
	for _, spec := range Catalog() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			prof := quiesce.NewProfiler()
			prof.Start()
			e, k := launch(t, spec, core.Options{Profiler: prof})
			defer e.Shutdown()

			sessions, err := workload.ProfileWorkload(k, spec.Name, spec.Port)
			if err != nil {
				t.Fatalf("profile workload: %v", err)
			}
			defer workload.CloseSessions(sessions)
			// Let residency accumulate at the quiescent points. Poll
			// rather than sleep a fixed window: under a loaded machine
			// (race detector, other package tests in parallel) a slow
			// thread may not have parked at its QP yet.
			var rep quiesce.Report
			deadline := time.Now().Add(5 * time.Second)
			for {
				time.Sleep(10 * time.Millisecond)
				rep = prof.Report()
				if rep.QuiescentPoints() == spec.Paper.QP || time.Now().After(deadline) {
					break
				}
			}

			if got, want := rep.ShortLived(), spec.Paper.SL; got != want {
				t.Errorf("short-lived classes = %d, want %d (classes %+v)", got, want, rep.Classes)
			}
			if got, want := rep.LongLived(), spec.Paper.LL; got != want {
				t.Errorf("long-lived classes = %d, want %d (classes %+v)", got, want, rep.Classes)
			}
			if got, want := rep.QuiescentPoints(), spec.Paper.QP; got != want {
				t.Errorf("quiescent points = %d, want %d", got, want)
			}
			if got, want := rep.Persistent(), spec.Paper.Per; got != want {
				t.Errorf("persistent QPs = %d, want %d", got, want)
			}
			if got, want := rep.Volatile(), spec.Paper.Vol; got != want {
				t.Errorf("volatile QPs = %d, want %d", got, want)
			}
		})
	}
}

func TestNginxServesAndCounts(t *testing.T) {
	e, k := launch(t, NginxSpec(), core.Options{})
	defer e.Shutdown()
	s, err := workload.OpenKeepalive(k, NginxPort, true)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	resp, err := workload.KeepaliveRequest(s, "GET / HTTP/1.1")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(resp, "nginx/0.8.54") || !strings.Contains(resp, "req=2") {
		t.Errorf("resp = %q", resp)
	}
}

func TestNginxLiveUpdateKeepsConnections(t *testing.T) {
	e, k := launch(t, NginxSpec(), core.Options{})
	defer e.Shutdown()
	s, err := workload.OpenKeepalive(k, NginxPort, true)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := workload.KeepaliveRequest(s, "GET /a"); err != nil {
		t.Fatal(err)
	}

	rep, err := e.Update(NginxVersion(1))
	if err != nil {
		t.Fatalf("update: %v", err)
	}
	if rep.RolledBack {
		t.Fatalf("rolled back: %v", rep.Reason)
	}
	resp, err := workload.KeepaliveRequest(s, "GET /b")
	if err != nil {
		t.Fatalf("post-update request: %v", err)
	}
	// Same connection, counter continued (this is request 3), new banner.
	if !strings.Contains(resp, "nginx/0.8.54+u1") || !strings.Contains(resp, "req=3") {
		t.Errorf("post-update resp = %q", resp)
	}
	// New connections work too.
	s2, err := workload.OpenKeepalive(k, NginxPort, true)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
}

func TestNginxFullUpdateStream(t *testing.T) {
	// The paper's 25 sequential nginx updates (v0.8.54 -> v1.0.15),
	// applied live under one persistent client connection.
	if testing.Short() {
		t.Skip("long")
	}
	spec := NginxSpec()
	e, k := launch(t, spec, core.Options{})
	defer e.Shutdown()
	s, err := workload.OpenKeepalive(k, NginxPort, true)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	reqs := 1 // OpenKeepalive issued the first request
	for i := 1; i < spec.NumVersions; i++ {
		rep, err := e.Update(spec.Version(i))
		if err != nil {
			t.Fatalf("update %d: %v", i, err)
		}
		if rep.RolledBack {
			t.Fatalf("update %d rolled back: %v", i, rep.Reason)
		}
		resp, err := workload.KeepaliveRequest(s, fmt.Sprintf("GET /u%d", i))
		if err != nil {
			t.Fatalf("request after update %d: %v", i, err)
		}
		reqs++
		wantBanner := "nginx/" + release("0.8.54", i)
		if !strings.Contains(resp, wantBanner) {
			t.Fatalf("update %d: resp %q missing %q", i, resp, wantBanner)
		}
		if !strings.Contains(resp, fmt.Sprintf("req=%d ", reqs)) {
			t.Fatalf("update %d: counter lost: %q (want req=%d)", i, resp, reqs)
		}
	}
}

func TestVsftpdSessionSurvivesUpdate(t *testing.T) {
	e, k := launch(t, VsftpdSpec(), core.Options{})
	defer e.Shutdown()
	s, err := workload.OpenFTP(k, VsftpdPort, "alice")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if resp, err := workload.FTPCommand(s, "LIST"); err != nil || !strings.Contains(resp, "readme.txt") {
		t.Fatalf("LIST = %q, %v", resp, err)
	}

	rep, err := e.Update(VsftpdVersion(1))
	if err != nil {
		t.Fatalf("update: %v", err)
	}
	if rep.RolledBack {
		t.Fatalf("rolled back: %v", rep.Reason)
	}
	// The session process was re-forked with the same pid and its state
	// (auth, user, counters) transferred: STAT reflects the old counters
	// and the new banner, without re-authenticating.
	resp, err := workload.FTPCommand(s, "STAT")
	if err != nil {
		t.Fatalf("post-update STAT: %v", err)
	}
	if !strings.Contains(resp, "vsftpd 1.1.0+u1") {
		t.Errorf("STAT = %q, want new banner", resp)
	}
	if !strings.Contains(resp, "cmds=4") { // USER, PASS, LIST + this STAT
		t.Errorf("STAT = %q, want cmds=4 (state transferred)", resp)
	}
	// New sessions against the new version.
	s2, err := workload.OpenFTP(k, VsftpdPort, "bob")
	if err != nil {
		t.Fatalf("new session after update: %v", err)
	}
	defer s2.Close()
}

func TestVsftpdInFlightTransferResumes(t *testing.T) {
	e, k := launch(t, VsftpdSpec(), core.Options{})
	defer e.Shutdown()
	s, err := workload.OpenFTP(k, VsftpdPort, "carol")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := workload.EnterPassive(k, s); err != nil {
		t.Fatal(err)
	}
	cc := s.Conns[0]
	dc := s.Conns[1]
	if err := cc.Send([]byte("RETR big.dat")); err != nil {
		t.Fatal(err)
	}
	if _, err := cc.Recv(2 * time.Second); err != nil { // 150 opening
		t.Fatal(err)
	}
	// Pull a few chunks, then update mid-transfer.
	var got int
	for i := 0; i < 3; i++ {
		chunk, err := dc.Recv(2 * time.Second)
		if err != nil {
			t.Fatal(err)
		}
		got += len(chunk)
		if err := dc.Send([]byte("ACK")); err != nil {
			t.Fatal(err)
		}
	}
	// The server sends the next chunk on our last ACK and then waits.
	// Drain it, then hold the next ACK during the update.
	chunk, err := dc.Recv(2 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	got += len(chunk)

	rep, err := e.Update(VsftpdVersion(1))
	if err != nil {
		t.Fatalf("update mid-transfer: %v", err)
	}
	if rep.RolledBack {
		t.Fatalf("rolled back: %v", rep.Reason)
	}
	// Resume the transfer: ACK and keep reading to completion.
	if err := dc.Send([]byte("ACK")); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	done := false
	for !done {
		if time.Now().After(deadline) {
			t.Fatalf("transfer did not finish; got %d bytes", got)
		}
		msg, err := dc.Recv(2 * time.Second)
		if err != nil {
			t.Fatalf("mid-transfer recv: %v (got %d)", err, got)
		}
		if strings.HasPrefix(string(msg), "226 ") {
			done = true
			break
		}
		got += len(msg)
		if err := dc.Send([]byte("ACK")); err != nil {
			t.Fatal(err)
		}
	}
	if got != 1<<20 {
		t.Errorf("transferred %d bytes, want %d (no loss, no duplication)", got, 1<<20)
	}
}

func TestSshdSessionSurvivesUpdate(t *testing.T) {
	e, k := launch(t, SshdSpec(), core.Options{})
	defer e.Shutdown()
	s, err := workload.OpenSSH(k, SshdPort, "root", true)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if out, err := workload.SSHExec(s, "ls"); err != nil || !strings.Contains(out, "req 1") {
		t.Fatalf("exec = %q, %v", out, err)
	}

	rep, err := e.Update(SshdVersion(1))
	if err != nil {
		t.Fatalf("update: %v", err)
	}
	if rep.RolledBack {
		t.Fatalf("rolled back: %v", rep.Reason)
	}
	out, err := workload.SSHExec(s, "uname")
	if err != nil {
		t.Fatalf("post-update exec: %v", err)
	}
	if !strings.Contains(out, "OpenSSH_3.5p1+u1") || !strings.Contains(out, "req 2") ||
		!strings.Contains(out, "as root") {
		t.Errorf("post-update exec = %q", out)
	}
	// A pre-auth session also survives and can authenticate afterwards.
	pre, err := workload.OpenSSH(k, SshdPort, "dave", false)
	if err != nil {
		t.Fatal(err)
	}
	defer pre.Close()
	if _, err := e.Update(SshdVersion(2)); err != nil {
		t.Fatalf("second update with pre-auth session: %v", err)
	}
	if resp, err := workload.SSHExec(pre, "x"); err == nil && resp == "AUTH_FAIL" {
		t.Log("pre-auth session correctly still unauthenticated")
	}
}

func TestHttpdServesAllRequestKinds(t *testing.T) {
	old := SetHttpdPoolThreads(4)
	defer SetHttpdPoolThreads(old)
	e, k := launch(t, HttpdSpec(), core.Options{})
	defer e.Shutdown()

	ka, err := workload.OpenKeepalive(k, HttpdPort, false)
	if err != nil {
		t.Fatal(err)
	}
	defer ka.Close()
	if resp, err := workload.KeepaliveRequest(ka, "GET /x"); err != nil || !strings.Contains(resp, "ka-req") {
		t.Fatalf("keepalive = %q, %v", resp, err)
	}
	cgi, err := workload.OpenCGI(k, HttpdPort)
	if err != nil {
		t.Fatal(err)
	}
	defer cgi.Close()
}

func TestHttpdLiveUpdateKeepsKeepalives(t *testing.T) {
	old := SetHttpdPoolThreads(4)
	defer SetHttpdPoolThreads(old)
	e, k := launch(t, HttpdSpec(), core.Options{})
	defer e.Shutdown()

	ka, err := workload.OpenKeepalive(k, HttpdPort, false)
	if err != nil {
		t.Fatal(err)
	}
	defer ka.Close()
	if _, err := workload.KeepaliveRequest(ka, "GET /pre"); err != nil {
		t.Fatal(err)
	}

	rep, err := e.Update(HttpdVersion(1))
	if err != nil {
		t.Fatalf("update: %v", err)
	}
	if rep.RolledBack {
		t.Fatalf("rolled back: %v", rep.Reason)
	}
	resp, err := workload.KeepaliveRequest(ka, "GET /post")
	if err != nil {
		t.Fatalf("post-update keepalive: %v", err)
	}
	if !strings.Contains(resp, "Apache/2.2.23+u1") {
		t.Errorf("post-update resp = %q", resp)
	}
	// Fresh plain requests are served by v2 pool threads.
	s2, err := workload.OpenKeepalive(k, HttpdPort, false)
	if err != nil {
		t.Fatalf("new conn after update: %v", err)
	}
	defer s2.Close()
}

func TestHttpdWithoutAnnotationRollsBack(t *testing.T) {
	// §7 violating assumption: without the 8-LOC annotation httpd detects
	// its own running instance at replayed startup and aborts — MCR rolls
	// the update back and v1 keeps serving.
	old := SetHttpdPoolThreads(2)
	defer SetHttpdPoolThreads(old)
	prev := SetHttpdHonorMCRAnnotation(false)
	defer SetHttpdHonorMCRAnnotation(prev)

	e, k := launch(t, HttpdSpec(), core.Options{})
	defer e.Shutdown()
	_, err := e.Update(HttpdVersion(1))
	if !errors.Is(err, core.ErrUpdateFailed) {
		t.Fatalf("update err = %v, want ErrUpdateFailed", err)
	}
	// v1 still serves.
	s, err := workload.OpenKeepalive(k, HttpdPort, false)
	if err != nil {
		t.Fatalf("v1 dead after rollback: %v", err)
	}
	defer s.Close()
	if cur := e.Current().Version().Release; cur != "2.2.23" {
		t.Errorf("current = %s", cur)
	}
}

func TestAllServersFullUpdateStreams(t *testing.T) {
	// Every server walks its whole update stream (the paper's 40 updates
	// in total) under a live session.
	if testing.Short() {
		t.Skip("long")
	}
	old := SetHttpdPoolThreads(2)
	defer SetHttpdPoolThreads(old)
	for _, spec := range Catalog() {
		spec := spec
		if spec.Name == "nginx" {
			continue // covered by TestNginxFullUpdateStream
		}
		t.Run(spec.Name, func(t *testing.T) {
			e, k := launch(t, spec, core.Options{})
			defer e.Shutdown()
			sessions, err := workload.OpenSessions(k, spec.Name, spec.Port, 2)
			if err != nil {
				t.Fatal(err)
			}
			defer workload.CloseSessions(sessions)
			for i := 1; i < spec.NumVersions; i++ {
				rep, err := e.Update(spec.Version(i))
				if err != nil {
					t.Fatalf("update %d: %v", i, err)
				}
				if rep.RolledBack {
					t.Fatalf("update %d rolled back: %v", i, rep.Reason)
				}
			}
			// Sessions still answer after the full stream.
			switch spec.Name {
			case "httpd":
				if _, err := workload.KeepaliveRequest(sessions[0], "GET /end"); err != nil {
					t.Errorf("session dead after stream: %v", err)
				}
			case "vsftpd":
				if _, err := workload.FTPCommand(sessions[0], "STAT"); err != nil {
					t.Errorf("session dead after stream: %v", err)
				}
			case "sshd":
				if _, err := workload.SSHExec(sessions[0], "final"); err != nil {
					t.Errorf("session dead after stream: %v", err)
				}
			}
		})
	}
}

func TestCatalogAndSpecLookup(t *testing.T) {
	if len(Catalog()) != 4 {
		t.Fatalf("catalog size = %d", len(Catalog()))
	}
	for _, name := range []string{"httpd", "nginx", "vsftpd", "sshd"} {
		spec, err := SpecByName(name)
		if err != nil || spec.Name != name {
			t.Errorf("SpecByName(%s) = %v, %v", name, spec, err)
		}
		// Every version in the stream validates.
		for i := 0; i < spec.NumVersions; i += spec.NumVersions - 1 {
			if err := spec.Version(i).Validate(); err != nil {
				t.Errorf("%s version %d invalid: %v", name, i, err)
			}
		}
	}
	if _, err := SpecByName("iis"); err == nil {
		t.Error("SpecByName(iis) succeeded")
	}
}

// TestHttpdTidPinningUnderParallelism is the regression test for the
// RESTART replay flake at GOMAXPROCS >= 4: a forked worker's main-thread
// tid is allocated naturally (fork records only the child pid), and
// before the reservation fix that natural scan raced the pinned
// pool-thread thread_create replays in the shared namespace —
// intermittently rolling updates back with "thread id: pid already in
// use". With reinit.ReserveIDs in the restart path, 20/20 mid-traffic
// updates must commit. (On the pre-fix tree this failed 20/20.)
func TestHttpdTidPinningUnderParallelism(t *testing.T) {
	prev := runtime.GOMAXPROCS(0)
	if prev < 4 {
		runtime.GOMAXPROCS(4)
		defer runtime.GOMAXPROCS(prev)
	}
	old := SetHttpdPoolThreads(4)
	defer SetHttpdPoolThreads(old)
	for i := 0; i < 20; i++ {
		e, k := launch(t, HttpdSpec(), core.Options{})
		ka, err := workload.OpenKeepalive(k, HttpdPort, false)
		if err != nil {
			e.Shutdown()
			t.Fatalf("iter %d: keepalive: %v", i, err)
		}
		rep, err := e.Update(HttpdVersion(1))
		if err != nil {
			ka.Close()
			e.Shutdown()
			t.Fatalf("iter %d: update: %v", i, err)
		}
		if rep.RolledBack {
			ka.Close()
			e.Shutdown()
			t.Fatalf("iter %d: rolled back: %v", i, rep.Reason)
		}
		if _, err := workload.KeepaliveRequest(ka, "GET /post"); err != nil {
			ka.Close()
			e.Shutdown()
			t.Fatalf("iter %d: post-update keepalive: %v", i, err)
		}
		ka.Close()
		e.Shutdown()
	}
}

// TestHttpdCyclesRetainNoProcess: launch / serve / update / terminate
// cycles must leave nothing behind that pins a process's memory — the
// queue mutex used to live in a package-level map keyed by *program.Proc,
// which kept every httpd process (and its whole address space) alive for
// good. A finalizer on each address space — acyclic, unlike the Proc,
// which points at its Instance and back — proves the collector can
// reclaim all of them once the engine is shut down.
func TestHttpdCyclesRetainNoProcess(t *testing.T) {
	old := SetHttpdPoolThreads(4)
	defer SetHttpdPoolThreads(old)
	var tracked, reclaimed atomic.Int32
	track := func(e *core.Engine) {
		for _, p := range e.Current().Procs() {
			tracked.Add(1)
			runtime.SetFinalizer(p.Space(), func(*mem.AddressSpace) { reclaimed.Add(1) })
		}
	}
	for cycle := 0; cycle < 3; cycle++ {
		func() {
			e, k := launch(t, HttpdSpec(), core.Options{})
			defer e.Shutdown()
			ka, err := workload.OpenKeepalive(k, HttpdPort, false)
			if err != nil {
				t.Fatal(err)
			}
			defer ka.Close()
			// A served request goes through the connection queue, and so
			// through the per-process mutex.
			if _, err := workload.KeepaliveRequest(ka, "GET /pre"); err != nil {
				t.Fatal(err)
			}
			track(e)
			if rep, err := e.Update(HttpdVersion(1)); err != nil || rep.RolledBack {
				t.Fatalf("update: %v (rolled back: %v)", err, rep != nil && rep.RolledBack)
			}
			if _, err := workload.KeepaliveRequest(ka, "GET /post"); err != nil {
				t.Fatal(err)
			}
			track(e)
		}()
	}
	deadline := time.Now().Add(10 * time.Second)
	for reclaimed.Load() < tracked.Load() && time.Now().Before(deadline) {
		runtime.GC()
		time.Sleep(5 * time.Millisecond) // finalizers run on their own goroutine
	}
	if got, want := reclaimed.Load(), tracked.Load(); got != want {
		t.Fatalf("%d of %d httpd address spaces are still reachable after shutdown", want-got, want)
	}
}

// TestEveryServerSurvivesItsUpdateStream: every catalog server takes five
// live updates under one client session. After each commit the session
// still answers, the new instance has recorded no error, and no process
// that existed past startup is left with every resident page soft-dirty —
// the sign of a process whose startup never completed (a session process
// a reinitialization handler re-forked keeps its startup-mode heap, its
// deferred frees and its bits until the instance completes startup).
func TestEveryServerSurvivesItsUpdateStream(t *testing.T) {
	const updates = 5
	for _, spec := range Catalog() {
		t.Run(spec.Name, func(t *testing.T) {
			e, k := launch(t, spec, core.Options{})
			defer e.Shutdown()
			sessions, err := workload.OpenSessions(k, spec.Name, spec.Port, 1)
			if err != nil {
				t.Fatal(err)
			}
			defer workload.CloseSessions(sessions)
			for i := 1; i <= updates; i++ {
				rep, err := e.Update(spec.Version(i))
				if err != nil {
					t.Fatalf("update %d: %v", i, err)
				}
				if rep.RolledBack {
					t.Fatalf("update %d rolled back: %v", i, rep.Reason)
				}
				if _, err := workload.ProbeSession(spec.Name, sessions[0]); err != nil {
					t.Fatalf("session died after update %d: %v", i, err)
				}
				inst := e.Current()
				if errs := inst.Errors(); len(errs) > 0 {
					t.Fatalf("update %d: instance errors: %v", i, errs)
				}
				for _, p := range inst.Procs() {
					dirty, resident := len(p.Space().SoftDirtyPages()), int(p.Space().RSSBytes()/mem.PageSize)
					if resident > 0 && dirty == resident {
						t.Errorf("update %d: %s (%s): all %d resident pages soft-dirty", i, p.Key(), p.MainClass(), resident)
					}
				}
			}
		})
	}
}
