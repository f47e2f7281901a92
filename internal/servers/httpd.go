package servers

import (
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/kernel"
	"repro/internal/mem"
	"repro/internal/program"
	"repro/internal/types"
)

// The Apache httpd model (worker MPM): a master process forking two
// worker processes, each running one listener thread and a pool of worker
// threads fed through an in-memory connection queue, plus maintenance and
// logger threads. Per-connection request state comes from *uninstrumented
// nested region allocators* — the source of httpd's enormous likely-
// pointer population in Table 2.
//
// Thread classes: httpd-daemonizer and httpd-init-task (short-lived, from
// daemonification and startup initialization tasks); httpd_master,
// httpd_listener, httpd_pool, httpd_maint, httpd_logger (5 persistent
// quiescent points); httpd_keepalive, httpd_cgi, httpd_stream (3 volatile
// per-connection classes). SL=2, LL=8, QP=8, Per=5, Vol=3 as in Table 1.
//
// Annotation cases reproduced from §8: the 8-LOC change that stops httpd
// from aborting when it detects its own running instance (the pidfile
// check below honors Thread.UnderMCR), the 10-LOC deterministic custom
// allocation tweak, and the 163-LOC reinitialization handler restoring
// the volatile thread classes.

const (
	httpdWorkers    = 2
	httpdPidfile    = "/var/run/httpd.pid"
	httpdQueueSlots = 16
	// httpdRequestTimeout bounds a pool thread's wait for the request on a
	// connection it has just dequeued (Apache's request read timeout).
	httpdRequestTimeout = 50 * time.Millisecond
)

// httpdPoolThreads is a variable so tests can shrink the pool (the paper
// configuration uses 50 threads per worker).
var httpdPoolThreads = 8

// httpdHonorMCRAnnotation gates the paper's 8-LOC annotation that makes
// the running-instance check MCR-aware. Disabling it reproduces the
// §7 violating-assumptions case: every live update aborts and rolls back
// because the new version detects the old one and refuses to start.
var httpdHonorMCRAnnotation = true

// SetHttpdHonorMCRAnnotation toggles the running-instance annotation
// (ablation/negative tests). Returns the previous value.
func SetHttpdHonorMCRAnnotation(on bool) bool {
	old := httpdHonorMCRAnnotation
	httpdHonorMCRAnnotation = on
	return old
}

// SetHttpdPoolThreads configures the per-worker pool size (benchmarks use
// the paper's 50; unit tests a smaller pool). Returns the previous value.
func SetHttpdPoolThreads(n int) int {
	old := httpdPoolThreads
	if n > 0 {
		httpdPoolThreads = n
	}
	return old
}

// httpdDegrade injects a per-request serving delay into keepalive
// handlers of versions whose update sequence is >= httpdDegradeFrom.
// This is the canary experiment's forced-bad update: the new version
// transfers state perfectly but serves every request slower, the exact
// regression a transfer-correctness check cannot see and the post-commit
// SLO window must. Atomics, not a mutex: the knob is flipped by the
// harness while handler threads are serving.
var (
	httpdDegradeNanos atomic.Int64
	httpdDegradeFrom  atomic.Int64
)

// SetHttpdDegrade arms (delay > 0) or clears (delay <= 0) the forced
// latency regression for versions with Seq >= fromSeq, returning a
// restore function.
func SetHttpdDegrade(delay time.Duration, fromSeq int) func() {
	prevD, prevF := httpdDegradeNanos.Load(), httpdDegradeFrom.Load()
	if delay <= 0 {
		delay = 0
	}
	httpdDegradeNanos.Store(int64(delay))
	httpdDegradeFrom.Store(int64(fromSeq))
	return func() {
		httpdDegradeNanos.Store(prevD)
		httpdDegradeFrom.Store(prevF)
	}
}

func httpdDegradeFor(seq int) time.Duration {
	d := httpdDegradeNanos.Load()
	if d > 0 && int64(seq) >= httpdDegradeFrom.Load() {
		return time.Duration(d)
	}
	return 0
}

func httpdTypes(i int) *types.Registry {
	reg := types.NewRegistry()
	confFields := []types.Field{
		{Name: "workers", Type: types.Scalar(types.KindInt64)},
		{Name: "threads_per_worker", Type: types.Scalar(types.KindInt64)},
		{Name: "keepalive_timeout", Type: types.Scalar(types.KindInt64)},
		{Name: "docroot", Type: types.ArrayOf(32, types.Scalar(types.KindUint8))},
		// The mime table loaded by the init task (clean after startup).
		{Name: "mime_table", Type: types.PointerTo(nil)},
	}
	for g := 1; g*2-1 <= i; g++ { // updates 1,3,5 extend conf
		confFields = append(confFields, types.Field{
			Name: fmt.Sprintf("conf_ext%d", g), Type: types.Scalar(types.KindInt64)})
	}
	reg.Define(types.StructOf("httpd_conf_t", confFields...))

	slotFields := []types.Field{
		{Name: "pid", Type: types.Scalar(types.KindInt64)},
		{Name: "served", Type: types.Scalar(types.KindInt64)},
		{Name: "keepalives", Type: types.Scalar(types.KindInt64)},
	}
	for g := 1; g*2 <= i; g++ { // updates 2,4 extend the scoreboard slot
		slotFields = append(slotFields, types.Field{
			Name: fmt.Sprintf("sb_ext%d", g), Type: types.Scalar(types.KindInt64)})
	}
	slot := types.StructOf("sb_slot_t", slotFields...)
	reg.Define(slot)
	sb := types.ArrayOf(httpdWorkers, slot)
	sb.Name = "scoreboard_t"
	reg.Define(sb)

	reg.Define(types.StructOf("conn_queue_t",
		types.Field{Name: "head", Type: types.Scalar(types.KindInt64)},
		types.Field{Name: "tail", Type: types.Scalar(types.KindInt64)},
		types.Field{Name: "slots", Type: types.ArrayOf(httpdQueueSlots, types.Scalar(types.KindInt64))},
	))
	reg.Define(&types.Type{Name: "voidptr", Kind: types.KindPtr,
		Size: types.WordSize, Align: types.WordSize})
	return reg
}

// HttpdVersion builds release i of the httpd model.
func HttpdVersion(i int) *program.Version {
	banner := "Apache/" + release("2.2.23", i)
	ann := program.NewAnnotations()
	// 8 LOC: skip the running-instance pidfile abort under MCR.
	ann.AddAnnotationLOC(8)
	// 10 LOC: deterministic custom allocation behaviour.
	ann.AddAnnotationLOC(10)
	// 163 LOC: restore volatile per-connection threads after restart.
	ann.AddReinitHandler(163, httpdReinitHandler)
	// Request records in the uninstrumented regions point at the config's
	// docroot string, so httpd_conf is pinned and nonupdatable; growing
	// it across releases needs a state-transfer handler (part of httpd's
	// 302 ST LOC in the paper).
	ann.AddObjHandler("httpd_conf", 40, fieldwiseCopyHandler)

	return &program.Version{
		Program: "httpd",
		Release: release("2.2.23", i),
		Seq:     i,
		Types:   httpdTypes(i),
		Globals: []program.GlobalSpec{
			{Name: "httpd_conf", Type: "httpd_conf_t"},
			{Name: "scoreboard", Type: "scoreboard_t"},
			{Name: "conn_queue", Type: "conn_queue_t"},
			{Name: "listen_fd_g", Type: "voidptr"},
			{Name: "worker_index", Type: "voidptr"},
		},
		Libs: []program.LibSpec{
			{Name: "libaprutil", StateSize: 8192},
		},
		Annotations: ann,
		Main:        httpdMain(banner),
	}
}

// HttpdSpec returns the httpd evaluation spec.
func HttpdSpec() *Spec {
	return &Spec{
		Name:        "httpd",
		Port:        HttpdPort,
		NumVersions: 6, // base + 5 updates (v2.2.23 - v2.3.8)
		Version:     HttpdVersion,
		Paper: Table1Row{
			SL: 2, LL: 8, QP: 8, Per: 5, Vol: 3,
			Updates: 5, ChangedLOC: 10844, Fun: 829, Var: 28, Typ: 48,
			AnnLOC: 181, STLOC: 302,
		},
	}
}

func httpdMain(banner string) func(*program.Thread) error {
	return func(t *program.Thread) error {
		t.Enter("main")
		defer t.Exit()
		if err := t.Daemonize(); err != nil {
			return err
		}
		if _, err := t.SpawnThread("httpd-daemonizer", func(*program.Thread) error {
			return nil
		}); err != nil {
			return err
		}

		var lfd int
		err := t.Call("ap_mpm_run_setup", func() error {
			p := t.Proc()
			// Running-instance detection: without the 8-LOC MCR
			// annotation, a second instance aborts here — which would
			// make every live update roll back.
			if pid, ok := t.Proc().Instance().Kernel().ReadFileDirect(httpdPidfile); ok && len(pid) > 0 {
				if !(httpdHonorMCRAnnotation && t.UnderMCR()) {
					return fmt.Errorf("httpd: already running (pid %s)", pid)
				}
			}
			pfd, err := t.Proc().KProc().Create(httpdPidfile)
			if err != nil {
				return err
			}
			if err := t.Proc().KProc().WriteFileFD(pfd, []byte(fmt.Sprintf("%d", t.GetPid()))); err != nil {
				return err
			}
			if err := t.Proc().KProc().Close(pfd); err != nil {
				return err
			}
			cfd, err := t.Open("/etc/httpd/httpd.conf")
			if err != nil {
				return err
			}
			if _, err := t.ReadFile(cfd, 4096); err != nil {
				return err
			}
			if err := t.CloseFD(cfd); err != nil {
				return err
			}
			conf := p.MustGlobal("httpd_conf")
			if err := p.WriteField(conf, "workers", httpdWorkers); err != nil {
				return err
			}
			if err := p.WriteField(conf, "threads_per_worker", uint64(httpdPoolThreads)); err != nil {
				return err
			}
			if err := p.WriteBytes(conf, mustFieldOffset(conf.Type, "docroot"),
				append([]byte("/var/www"), 0)); err != nil {
				return err
			}
			mime, err := t.MallocBytes(24576)
			if err != nil {
				return err
			}
			if err := p.WriteBytes(mime, 0, []byte("text/html html;text/css css;")); err != nil {
				return err
			}
			if err := p.SetPtr(conf, "mime_table", mime); err != nil {
				return err
			}
			lfd, err = t.Socket()
			if err != nil {
				return err
			}
			if err := t.Bind(lfd, HttpdPort); err != nil {
				return err
			}
			if err := t.Listen(lfd, 511); err != nil {
				return err
			}
			return p.WriteField(p.MustGlobal("listen_fd_g"), "", uint64(lfd))
		})
		if err != nil {
			return err
		}
		// Startup initialization task (short-lived thread class).
		if _, err := t.SpawnThread("httpd-init-task", func(it *program.Thread) error {
			return nil // pre-opens log files, loads modules, exits
		}); err != nil {
			return err
		}
		// Logger thread in the master (persistent).
		if _, err := t.SpawnThread("httpd_logger", httpdLoggerMain); err != nil {
			return err
		}
		// Fork the worker processes.
		err = t.Call("make_child", func() error {
			for w := 0; w < httpdWorkers; w++ {
				if _, err := t.ForkProc("httpd_worker", httpdWorkerMain(banner, lfd, w)); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
		return t.Loop("ap_mpm_run", func() error {
			if err := t.WaitQP("sigwait@httpd_master"); err != nil {
				if errors.Is(err, program.ErrStopped) {
					return program.ErrLoopExit
				}
				return err
			}
			return nil
		})
	}
}

func httpdLoggerMain(t *program.Thread) error {
	t.Enter("ap_log_loop")
	defer t.Exit()
	return t.Loop("logger_loop", func() error {
		if err := t.IdleQP("condwait@httpd_logger"); err != nil {
			if errors.Is(err, program.ErrStopped) {
				return program.ErrLoopExit
			}
			return err
		}
		return nil
	})
}

// httpdWorkerMain is a worker process: a listener thread feeding an
// in-memory fd queue, a pool of worker threads, and a maintenance thread.
func httpdWorkerMain(banner string, lfd, widx int) func(*program.Thread) error {
	return func(t *program.Thread) error {
		t.Enter("child_main")
		defer t.Exit()
		p := t.Proc()
		if err := p.WriteField(p.MustGlobal("worker_index"), "", uint64(widx)); err != nil {
			return err
		}
		sb := p.MustGlobal("scoreboard")
		slotT := sb.Type.Elem
		slotOff := uint64(widx) * slotT.Size
		if err := p.WriteWordAt(sb, slotOff, uint64(t.GetPid())); err != nil {
			return err
		}

		// The nested region allocators: a per-process root region with a
		// per-connection subregion carved from it (uninstrumented).
		root := mem.NewRegionAllocator(p.Heap(), fmt.Sprintf("pchild%d", widx),
			16384, p.Instance().Options().RegionInstrumented)

		// Pool threads.
		for i := 0; i < httpdPoolThreads; i++ {
			if _, err := t.SpawnThread("httpd_pool", httpdPoolMain(banner, root)); err != nil {
				return err
			}
		}
		// Maintenance thread.
		if _, err := t.SpawnThread("httpd_maint", httpdMaintMain); err != nil {
			return err
		}
		// This (main) thread is the listener.
		t.Enter("listener_thread")
		defer t.Exit()
		return t.Loop("listener_loop", func() error {
			cfd, _, err := t.AcceptQP("accept@httpd_listener", lfd)
			if err != nil {
				if errors.Is(err, program.ErrStopped) {
					return program.ErrLoopExit
				}
				return err
			}
			return httpdEnqueue(t, cfd)
		})
	}
}

func httpdMaintMain(t *program.Thread) error {
	t.Enter("ap_maintenance")
	defer t.Exit()
	return t.Loop("maint_loop", func() error {
		if err := t.IdleQP("sleep@httpd_maint"); err != nil {
			if errors.Is(err, program.ErrStopped) {
				return program.ErrLoopExit
			}
			return err
		}
		return nil
	})
}

// httpdEnqueue pushes an fd into the in-memory connection queue (state in
// simulated memory: a queued-but-unserved connection survives an update).
func httpdEnqueue(t *program.Thread, cfd int) error {
	p := t.Proc()
	// The worker MPM's queue mutex.
	p.RuntimeLock().Lock()
	defer p.RuntimeLock().Unlock()
	q := p.MustGlobal("conn_queue")
	head, _ := p.ReadField(q, "head")
	tail, _ := p.ReadField(q, "tail")
	if head-tail >= httpdQueueSlots {
		_ = p.KProc().Close(cfd) // queue full: drop
		return nil
	}
	slotOff := mustFieldOffset(q.Type, "slots") + (head%httpdQueueSlots)*8
	if err := p.WriteWordAt(q, slotOff, uint64(cfd)); err != nil {
		return err
	}
	if err := p.WriteField(q, "head", head+1); err != nil {
		return err
	}
	p.Notify() // wake a pool thread (pthread_cond_signal)
	return nil
}

// httpdDequeue pops an fd, or returns -1.
func httpdDequeue(p *program.Proc) (int, error) {
	// The worker MPM's queue mutex.
	p.RuntimeLock().Lock()
	defer p.RuntimeLock().Unlock()
	q := p.MustGlobal("conn_queue")
	head, _ := p.ReadField(q, "head")
	tail, _ := p.ReadField(q, "tail")
	if tail >= head {
		return -1, nil
	}
	slotOff := mustFieldOffset(q.Type, "slots") + (tail%httpdQueueSlots)*8
	fd, err := p.ReadWordAt(q, slotOff)
	if err != nil {
		return -1, err
	}
	if err := p.WriteField(q, "tail", tail+1); err != nil {
		return -1, err
	}
	return int(fd), nil
}

// httpdPoolMain is one pool thread: wait on the connection queue, serve
// the request, dispatch long-lived handler threads for keepalive, CGI and
// streaming requests.
func httpdPoolMain(banner string, root *mem.RegionAllocator) func(*program.Thread) error {
	return func(t *program.Thread) error {
		t.Enter("worker_thread")
		defer t.Exit()
		p := t.Proc()
		return t.Loop("worker_loop", func() error {
			var cfd int
			err := t.CondQP("condwait@httpd_pool", func() (bool, error) {
				fd, err := httpdDequeue(p)
				if err != nil {
					return false, err
				}
				cfd = fd
				return fd >= 0, nil
			})
			if err != nil {
				if errors.Is(err, program.ErrStopped) {
					return program.ErrLoopExit
				}
				return err
			}
			return httpdServe(t, banner, root, cfd)
		})
	}
}

// httpdServe reads one request and answers it, spawning volatile handler
// threads for the long-lived request kinds.
func httpdServe(t *program.Thread, banner string, root *mem.RegionAllocator, cfd int) error {
	p := t.Proc()
	expired := make(chan struct{})
	timer := time.AfterFunc(httpdRequestTimeout, func() { close(expired) })
	msg, err := p.KProc().Read(cfd, expired)
	timer.Stop()
	if err != nil {
		_ = p.KProc().Close(cfd)
		return nil
	}
	req := string(msg)
	// Per-request nested subregion holding the request record: raw
	// pointers into config strings and buffers — uninstrumented, hence
	// conservative likely-pointer material.
	sub := root.NewSubRegion("prequest")
	rec, err := sub.Alloc(64, nil, t.StackID())
	if err != nil {
		return err
	}
	as := p.Space()
	conf := p.MustGlobal("httpd_conf")
	if err := as.WriteWord(rec, uint64(conf.Addr)+mustFieldOffset(conf.Type, "docroot")); err != nil {
		return err
	}
	body, err := t.MallocBytes(uint64(len(req)) + 16)
	if err != nil {
		return err
	}
	if err := p.WriteBytes(body, 0, msg); err != nil {
		return err
	}
	if err := as.WriteWord(rec+8, uint64(body.Addr)); err != nil {
		return err
	}
	if err := as.WriteWord(rec+16, uint64(cfd)); err != nil {
		return err
	}

	// Scoreboard accounting.
	widx, _ := p.ReadField(p.MustGlobal("worker_index"), "")
	sb := p.MustGlobal("scoreboard")
	slotT := sb.Type.Elem
	servedOff := widx*slotT.Size + mustFieldOffset(slotT, "served")
	n, _ := p.ReadWordAt(sb, servedOff)
	if err := p.WriteWordAt(sb, servedOff, n+1); err != nil {
		return err
	}

	reply := func(s string) error {
		if err := t.Write(cfd, []byte(s)); err != nil && !errors.Is(err, kernel.ErrClosed) {
			return err
		}
		return nil
	}
	switch {
	case strings.HasPrefix(req, "GET /keepalive"):
		kaOff := widx*slotT.Size + mustFieldOffset(slotT, "keepalives")
		k, _ := p.ReadWordAt(sb, kaOff)
		if err := p.WriteWordAt(sb, kaOff, k+1); err != nil {
			return err
		}
		if err := reply(fmt.Sprintf("HTTP/1.1 200 OK Server: %s keepalive", banner)); err != nil {
			return err
		}
		// The keepalive handler gets its own nested subregion for
		// per-request records (destroyed with the connection).
		_, err := t.SpawnThread("httpd_keepalive",
			httpdKeepaliveMain(banner, cfd, root.NewSubRegion("pconn"), false))
		return err
	case strings.HasPrefix(req, "GET /cgi"):
		if err := reply(fmt.Sprintf("HTTP/1.1 200 OK Server: %s cgi-start", banner)); err != nil {
			return err
		}
		_, err := t.SpawnThread("httpd_cgi", httpdCgiMain(banner, cfd, false))
		return err
	case strings.HasPrefix(req, "GET /stream"):
		if err := reply(fmt.Sprintf("HTTP/1.1 200 OK Server: %s stream-start", banner)); err != nil {
			return err
		}
		_, err := t.SpawnThread("httpd_stream", httpdStreamMain(banner, cfd, false))
		return err
	default:
		path := strings.TrimPrefix(strings.Fields(req + " /")[1], "")
		content, ok := t.Proc().Instance().Kernel().ReadFileDirect("/var/www" + path)
		if !ok {
			content = []byte("<html>404</html>")
		}
		if err := reply(fmt.Sprintf("HTTP/1.1 200 OK Server: %s len=%d", banner, len(content))); err != nil {
			return err
		}
		_ = p.KProc().Close(cfd)
		// The subregion is returned to the parent pool, not released:
		// Apache pools retain and recycle request memory, so the request
		// records (and their raw pointers) stay resident — the behaviour
		// behind httpd's likely-pointer census in Table 2 and the
		// liveness-accuracy caveat of §6.
		return nil
	}
}

// httpdKeepaliveMain serves follow-up requests on a persistent
// connection (volatile class). Every request allocates a record from the
// (uninstrumented) connection subregion holding raw pointers into config
// strings, the previous record and the request body — the request-brigade
// idiom behind httpd's enormous likely-pointer population in Table 2. A
// reconstructed handler (nil region) opens a fresh subregion: the old
// records were transferred as pinned opaque chunks.
func httpdKeepaliveMain(banner string, cfd int, region *mem.RegionAllocator, reconstructed bool) func(*program.Thread) error {
	return func(t *program.Thread) error {
		t.Enter("keepalive_handler")
		defer t.Exit()
		t.SetNote(cfd)
		if reconstructed {
			if err := t.IdleQP("read@httpd_keepalive"); err != nil {
				return nil
			}
		}
		p := t.Proc()
		if region == nil {
			region = mem.NewRegionAllocator(p.Heap(), "pconn-reinit", 8192,
				p.Instance().Options().RegionInstrumented)
		}
		var prevRec mem.Addr
		return t.Loop("keepalive_loop", func() error {
			msg, err := t.ReadQP("read@httpd_keepalive", cfd)
			if err != nil {
				if errors.Is(err, kernel.ErrClosed) {
					_ = t.CloseFD(cfd)
					_ = region.Destroy()
					return program.ErrLoopExit
				}
				if errors.Is(err, program.ErrStopped) {
					return program.ErrLoopExit
				}
				return err
			}
			if d := httpdDegradeFor(p.Instance().Version().Seq); d > 0 {
				time.Sleep(d)
			}
			as := p.Space()
			conf := p.MustGlobal("httpd_conf")
			rec, err := region.Alloc(32+uint64(len(msg)), nil, t.StackID())
			if err != nil {
				return err
			}
			if err := as.WriteWord(rec, uint64(conf.Addr)+mustFieldOffset(conf.Type, "docroot")); err != nil {
				return err
			}
			if err := as.WriteWord(rec+8, uint64(prevRec)); err != nil {
				return err
			}
			if err := as.WriteWord(rec+16, uint64(rec)+32); err != nil {
				return err
			}
			if err := as.WriteAt(rec+32, msg); err != nil {
				return err
			}
			prevRec = rec
			if err := t.Write(cfd, []byte(fmt.Sprintf(
				"HTTP/1.1 200 OK Server: %s ka-req=%s", banner, msg))); err != nil && !errors.Is(err, kernel.ErrClosed) {
				return err
			}
			return nil
		})
	}
}

// httpdCgiMain reads CGI input lines and echoes processed output
// (volatile class).
func httpdCgiMain(banner string, cfd int, reconstructed bool) func(*program.Thread) error {
	return func(t *program.Thread) error {
		t.Enter("cgi_handler")
		defer t.Exit()
		t.SetNote(cfd)
		if reconstructed {
			if err := t.IdleQP("read@httpd_cgi"); err != nil {
				return nil
			}
		}
		return t.Loop("cgi_loop", func() error {
			msg, err := t.ReadQP("read@httpd_cgi", cfd)
			if err != nil {
				if errors.Is(err, kernel.ErrClosed) {
					_ = t.CloseFD(cfd)
					return program.ErrLoopExit
				}
				if errors.Is(err, program.ErrStopped) {
					return program.ErrLoopExit
				}
				return err
			}
			if err := t.Write(cfd, []byte(fmt.Sprintf("cgi[%s]: %s", banner, msg))); err != nil && !errors.Is(err, kernel.ErrClosed) {
				return err
			}
			return nil
		})
	}
}

// httpdStreamMain streams chunks on client acknowledgements (volatile
// class).
func httpdStreamMain(banner string, cfd int, reconstructed bool) func(*program.Thread) error {
	return func(t *program.Thread) error {
		t.Enter("stream_handler")
		defer t.Exit()
		t.SetNote(cfd)
		if reconstructed {
			if err := t.IdleQP("read@httpd_stream"); err != nil {
				return nil
			}
		}
		chunk := 0
		return t.Loop("stream_loop", func() error {
			if err := t.Write(cfd, []byte(fmt.Sprintf("chunk %d from %s", chunk, banner))); err != nil {
				if errors.Is(err, kernel.ErrClosed) {
					return program.ErrLoopExit
				}
				return err
			}
			chunk++
			_, err := t.ReadQP("read@httpd_stream", cfd)
			if err != nil {
				if errors.Is(err, kernel.ErrClosed) {
					_ = t.CloseFD(cfd)
					return program.ErrLoopExit
				}
				if errors.Is(err, program.ErrStopped) {
					return program.ErrLoopExit
				}
				return err
			}
			return nil
		})
	}
}

// httpdReinitHandler restores the volatile handler threads inside the
// recreated worker processes (the paper's 163-LOC httpd annotation for
// nonpersistent quiescent points).
func httpdReinitHandler(ri *program.ReinitInfo) error {
	banner := "Apache/" + ri.New.Version().Release
	for _, ti := range ri.OldThreads {
		var mk func(string, int, bool) func(*program.Thread) error
		switch ti.Class {
		case "httpd_keepalive":
			mk = func(b string, fd int, rec bool) func(*program.Thread) error {
				return httpdKeepaliveMain(b, fd, nil, rec)
			}
		case "httpd_cgi":
			mk = httpdCgiMain
		case "httpd_stream":
			mk = httpdStreamMain
		default:
			continue
		}
		fd, ok := ti.Note.(int)
		if !ok {
			continue
		}
		proc, ok := ri.New.ProcByKey(ti.Key)
		if !ok {
			return fmt.Errorf("httpd reinit: no new process for %v", ti.Key)
		}
		proc.KProc().PinNextPid(kernel.Pid(ti.TID))
		if _, err := ri.New.SpawnThreadIn(proc, ti.Class, mk(banner, fd, true)); err != nil {
			return fmt.Errorf("httpd reinit: respawn %s: %w", ti.Class, err)
		}
	}
	return nil
}
