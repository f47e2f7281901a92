package program

import (
	"errors"
	"math/rand"
	"testing"
	"time"

	"repro/internal/kernel"
	"repro/internal/mem"
	"repro/internal/quiesce"
	"repro/internal/replaylog"
	"repro/internal/types"
)

// listing1Version builds the sample MCR-enabled server of Listing 1: a
// global conf pointer, a char buffer b, a linked list head, and an
// event-driven main loop accepting connections on port 80.
func listing1Version(seq int) *Version {
	reg := types.NewRegistry()
	lt := &types.Type{Name: "l_t", Kind: types.KindStruct}
	lt.Fields = []types.Field{
		{Name: "value", Offset: 0, Type: types.Scalar(types.KindInt32)},
		{Name: "next", Offset: 8, Type: types.PointerTo(lt)},
	}
	lt.Size, lt.Align = 16, 8
	reg.Define(lt)
	reg.Define(types.StructOf("conf_s",
		types.Field{Name: "port", Type: types.Scalar(types.KindInt32)},
		types.Field{Name: "workers", Type: types.Scalar(types.KindInt32)},
	))

	return &Version{
		Program: "sample",
		Release: "1.0",
		Seq:     seq,
		Types:   reg,
		Globals: []GlobalSpec{
			{Name: "b", Size: 8},
			{Name: "list", Type: "l_t"},
			{Name: "conf", Type: "ptr"},
		},
		Main: sampleMain,
	}
}

func init() {
	// "ptr" is used as a global conf pointer type in tests.
}

func sampleMain(t *Thread) error {
	t.Enter("main")
	defer t.Exit()
	var lfd int
	err := t.Call("server_init", func() error {
		var err error
		lfd, err = t.Socket()
		if err != nil {
			return err
		}
		if err := t.Bind(lfd, 80); err != nil {
			return err
		}
		if err := t.Listen(lfd, 64); err != nil {
			return err
		}
		// conf = malloc(conf_s); conf->port = 80
		conf, err := t.Malloc("conf_s")
		if err != nil {
			return err
		}
		p := t.Proc()
		if err := p.WriteField(conf, "port", 80); err != nil {
			return err
		}
		return p.SetPtr(p.MustGlobal("conf"), "", conf)
	})
	if err != nil {
		return err
	}
	return t.Loop("main_loop", func() error {
		cfd, _, err := t.AcceptQP("accept@server_get_event", lfd)
		if err != nil {
			if errors.Is(err, ErrStopped) {
				return ErrLoopExit
			}
			return err
		}
		// handle event: append a list node, touch b, reply.
		p := t.Proc()
		node, err := t.Malloc("l_t")
		if err != nil {
			return err
		}
		if err := p.WriteField(node, "value", 5); err != nil {
			return err
		}
		head := p.MustGlobal("list")
		old, _ := p.ReadField(head, "next")
		if err := p.WriteField(node, "next", old); err != nil {
			return err
		}
		if err := p.WriteField(head, "next", uint64(node.Addr)); err != nil {
			return err
		}
		if err := p.WriteWordAt(p.MustGlobal("b"), 0, uint64(node.Addr)); err != nil {
			return err
		}
		if err := t.Write(cfd, []byte("welcome")); err != nil && !errors.Is(err, kernel.ErrClosed) {
			return err
		}
		return nil
	})
}

func startSample(t *testing.T, opts Options) (*Instance, *kernel.Kernel) {
	t.Helper()
	k := kernel.New()
	// "ptr" global type registration happens per version; patch in a
	// pointer type for conf.
	v := listing1Version(0)
	v.Types.Define(&types.Type{Name: "ptr", Kind: types.KindPtr,
		Size: types.WordSize, Align: types.WordSize})
	inst, err := NewInstance(v, k, opts)
	if err != nil {
		t.Fatalf("NewInstance: %v", err)
	}
	if err := inst.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	if err := inst.WaitStartup(5 * time.Second); err != nil {
		t.Fatalf("WaitStartup: %v", err)
	}
	return inst, k
}

func TestStartupReachesQuiescence(t *testing.T) {
	inst, _ := startSample(t, Options{})
	defer inst.Terminate()
	if !inst.Barrier().Quiesced() {
		t.Error("instance not quiescent after WaitStartup")
	}
	sites := inst.Barrier().ParkedSites()
	for _, s := range sites {
		if s != "accept@server_get_event" {
			t.Errorf("parked at %q", s)
		}
	}
	if inst.StartupDuration() <= 0 {
		t.Error("startup duration not measured")
	}
}

func TestStartupLogRecordsInit(t *testing.T) {
	inst, _ := startSample(t, Options{})
	defer inst.Terminate()
	inst.CompleteStartup()
	recs := inst.Root().Log().Records()
	var names []string
	for _, r := range recs {
		names = append(names, r.Call)
	}
	want := []string{"socket", "bind", "listen"}
	if len(recs) != 3 {
		t.Fatalf("log = %v, want %v", names, want)
	}
	for i, w := range want {
		if names[i] != w {
			t.Errorf("log[%d] = %s, want %s", i, names[i], w)
		}
	}
	// The socket record carries the fd and a call-stack ID covering
	// main>server_init.
	if recs[0].Result.(int) == 0 || len(recs[0].FDs) != 1 {
		t.Errorf("socket record = %+v", recs[0])
	}
	wantStack := []string{"main", "server_init"}
	if recs[0].StackID != StackIDOf(wantStack) {
		t.Errorf("stack id mismatch: stack %v", recs[0].Stack)
	}
}

// StackIDOf is a test helper: the StackID of a thread that entered the
// frames of stack in order.
func StackIDOf(stack []string) uint64 {
	th := &Thread{}
	for _, fn := range stack {
		th.Enter(fn)
	}
	return th.StackID()
}

// TestStackIDKeptPerFrame drives threads through seeded random Enter and
// Exit sequences, now and then seeding a new thread with the current stack
// (as a spawn or fork does), and checks after every step that the ID the
// thread keeps per frame is the hash of its stack.
func TestStackIDKeptPerFrame(t *testing.T) {
	inst, _ := startSample(t, Options{})
	defer inst.Terminate()
	names := []string{"", "main", "server_init", "ngx_palloc", "vsf_sysutil_malloc", "x"}
	rnd := rand.New(rand.NewSource(1))
	th, err := inst.newThread(inst.Root(), "probe", nil)
	if err != nil {
		t.Fatal(err)
	}
	for step := 0; step < 5000; step++ {
		switch op := rnd.Intn(10); {
		case op < 5:
			th.Enter(names[rnd.Intn(len(names))])
		case op < 9:
			if len(th.Stack()) > 0 {
				th.Exit()
			}
		default:
			if th, err = inst.newThread(inst.Root(), "probe", th.Stack()); err != nil {
				t.Fatal(err)
			}
		}
		if got, want := th.StackID(), replaylog.StackID(th.Stack()); got != want {
			t.Fatalf("step %d: StackID() = %#x for %q, want %#x", step, got, th.Stack(), want)
		}
	}
}

func TestServeAfterResume(t *testing.T) {
	inst, k := startSample(t, Options{})
	defer inst.Terminate()
	inst.CompleteStartup()
	inst.Resume()

	cc, err := k.Connect(80)
	if err != nil {
		t.Fatalf("Connect: %v", err)
	}
	msg, err := cc.Recv(2 * time.Second)
	if err != nil || string(msg) != "welcome" {
		t.Fatalf("Recv = %q, %v", msg, err)
	}
	// The handled event dirtied state: list.next points at a node.
	p := inst.Root()
	node, ok := p.ReadPtr(p.MustGlobal("list"), "next")
	if !ok {
		t.Fatal("list.next not set after event")
	}
	if v, _ := p.ReadField(node, "value"); v != 5 {
		t.Errorf("node.value = %d, want 5", v)
	}
}

func TestDirtyTrackingAfterStartup(t *testing.T) {
	inst, k := startSample(t, Options{})
	defer inst.Terminate()
	inst.CompleteStartup()

	p := inst.Root()
	if n := len(p.Space().SoftDirtyPages()); n != 0 {
		t.Fatalf("%d dirty pages right after CompleteStartup, want 0", n)
	}
	inst.Resume()
	cc, _ := k.Connect(80)
	if _, err := cc.Recv(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	// Handling the event dirtied heap (node) and static (list, b) pages;
	// the dirty object set derived from them contains the new node and
	// the modified list head.
	dirtyPages := p.Space().SoftDirtyPages()
	if len(dirtyPages) == 0 {
		t.Fatal("no dirty pages after handling an event")
	}
	dirtyObjs := p.Index().OnPages(dirtyPages)
	var sawList, sawNode bool
	for _, o := range dirtyObjs {
		if o.Name == "list" {
			sawList = true
		}
		if o.Kind == mem.ObjHeap && !o.Startup {
			sawNode = true
		}
	}
	if !sawList || !sawNode {
		t.Errorf("dirty objects %v missing list head or node", dirtyObjs)
	}
}

func TestQuiesceResumeCycle(t *testing.T) {
	inst, k := startSample(t, Options{})
	defer inst.Terminate()
	inst.CompleteStartup()
	inst.Resume()

	d, err := inst.Quiesce(2 * time.Second)
	if err != nil {
		t.Fatalf("Quiesce: %v", err)
	}
	if d > 150*time.Millisecond {
		t.Errorf("quiescence took %v, want well under 150ms", d)
	}
	// While quiesced, clients can connect but are not served.
	cc, err := k.Connect(80)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cc.Recv(50 * time.Millisecond); err == nil {
		t.Error("served while quiesced")
	}
	inst.Resume()
	if _, err := cc.Recv(2 * time.Second); err != nil {
		t.Errorf("not served after resume: %v", err)
	}
}

func TestTerminateStopsThreads(t *testing.T) {
	inst, _ := startSample(t, Options{})
	inst.CompleteStartup()
	inst.Resume()
	done := make(chan struct{})
	go func() {
		inst.Terminate()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Terminate hung")
	}
	if len(inst.Kernel().Procs()) != 0 {
		t.Errorf("kernel procs remain: %v", inst.Kernel().Procs())
	}
}

func TestStartupAllocationsFlaggedStartup(t *testing.T) {
	inst, k := startSample(t, Options{})
	defer inst.Terminate()
	inst.CompleteStartup()
	inst.Resume()
	cc, _ := k.Connect(80)
	cc.Recv(2 * time.Second)

	p := inst.Root()
	conf, _ := p.ReadPtr(p.MustGlobal("conf"), "")
	if !conf.Startup {
		t.Error("startup-time conf allocation not flagged")
	}
	node, _ := p.ReadPtr(p.MustGlobal("list"), "next")
	if node.Startup {
		t.Error("post-startup node allocation flagged startup")
	}
}

func TestProfilerIntegration(t *testing.T) {
	prof := quiesce.NewProfiler()
	prof.Start()
	inst, k := startSample(t, Options{Profiler: prof})
	defer inst.Terminate()
	inst.CompleteStartup()
	inst.Resume()
	// Drive a little traffic so residency accumulates.
	for i := 0; i < 3; i++ {
		cc, _ := k.Connect(80)
		cc.Recv(2 * time.Second)
	}
	time.Sleep(20 * time.Millisecond)
	rep := prof.Report()
	tc, ok := rep.Class("main")
	if !ok {
		t.Fatal("main class missing")
	}
	if !tc.LongLived || tc.QuiescentPoint != "accept@server_get_event" {
		t.Errorf("profile = %+v", tc)
	}
	if tc.Loop != "main_loop" {
		t.Errorf("loop = %q", tc.Loop)
	}
	if !tc.Persistent {
		t.Error("main QP not persistent")
	}
}

func TestForkProcessModel(t *testing.T) {
	// A master that forks one worker during startup; both quiesce.
	reg := types.NewRegistry()
	reg.Define(types.StructOf("state_s",
		types.Field{Name: "n", Type: types.Scalar(types.KindInt64)},
	))
	v := &Version{
		Program: "forker", Release: "1", Types: reg,
		Globals: []GlobalSpec{{Name: "state", Type: "state_s"}},
		Main: func(t *Thread) error {
			t.Enter("main")
			defer t.Exit()
			var lfd int
			err := t.Call("init", func() error {
				var err error
				lfd, err = t.Socket()
				if err != nil {
					return err
				}
				if err := t.Bind(lfd, 90); err != nil {
					return err
				}
				if err := t.Listen(lfd, 16); err != nil {
					return err
				}
				p := t.Proc()
				if err := p.WriteField(p.MustGlobal("state"), "n", 7); err != nil {
					return err
				}
				_, err = t.ForkProc("worker", func(w *Thread) error {
					// The worker sees the pre-fork state and serves.
					wp := w.Proc()
					if v, _ := wp.ReadField(wp.MustGlobal("state"), "n"); v != 7 {
						return errors.New("worker lost pre-fork state")
					}
					return w.Loop("worker_loop", func() error {
						cfd, _, err := w.AcceptQP("accept@worker", lfd)
						if err != nil {
							if errors.Is(err, ErrStopped) {
								return ErrLoopExit
							}
							return err
						}
						return w.Write(cfd, []byte("from-worker"))
					})
				})
				return err
			})
			if err != nil {
				return err
			}
			return t.Loop("master_loop", func() error {
				if err := t.WaitQP("sigwait@master"); err != nil {
					if errors.Is(err, ErrStopped) {
						return ErrLoopExit
					}
					return err
				}
				return nil
			})
		},
	}
	k := kernel.New()
	inst, err := NewInstance(v, k, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := inst.Start(); err != nil {
		t.Fatal(err)
	}
	if err := inst.WaitStartup(5 * time.Second); err != nil {
		t.Fatalf("WaitStartup: %v", err)
	}
	defer inst.Terminate()
	inst.CompleteStartup()

	procs := inst.Procs()
	if len(procs) != 2 {
		t.Fatalf("procs = %d, want master+worker", len(procs))
	}
	worker := procs[1]
	if worker.Key() == RootKey {
		t.Error("worker has root key")
	}
	// Worker memory is independent post-fork.
	wp := worker
	if err := wp.WriteField(wp.MustGlobal("state"), "n", 99); err != nil {
		t.Fatal(err)
	}
	mp := inst.Root()
	if v, _ := mp.ReadField(mp.MustGlobal("state"), "n"); v != 7 {
		t.Error("worker write leaked into master")
	}
	// The fork was recorded in the master's startup log.
	var sawFork bool
	for _, r := range inst.Root().Log().Records() {
		if r.Call == "fork" && r.Pid == int(worker.KProc().Pid()) {
			sawFork = true
		}
	}
	if !sawFork {
		t.Error("fork not recorded in startup log")
	}

	inst.Resume()
	cc, err := k.Connect(90)
	if err != nil {
		t.Fatal(err)
	}
	if msg, err := cc.Recv(2 * time.Second); err != nil || string(msg) != "from-worker" {
		t.Errorf("Recv = %q, %v", msg, err)
	}
}

func TestReplayInterceptorSkipsExecution(t *testing.T) {
	// An interceptor that replays the socket call with a canned fd: the
	// program must observe fd 42 and the kernel must never create a
	// socket for it.
	k := kernel.New()
	v := listing1Version(0)
	v.Types.Define(&types.Type{Name: "ptr", Kind: types.KindPtr,
		Size: types.WordSize, Align: types.WordSize})
	// Pre-install a listener at fd 42 (as inheritance would).
	var inst *Instance
	ic := interceptFunc(func(t *Thread, c *Call) (bool, error) {
		switch c.Name {
		case "socket":
			c.Result = 42
			c.FDs = []int{42}
			return true, nil
		case "bind", "listen":
			return true, nil
		}
		return false, nil
	})
	inst, err := NewInstance(v, k, Options{Interceptor: ic})
	if err != nil {
		t.Fatal(err)
	}
	// Simulate global inheritance: fd 42 is a listening socket.
	donor := k.NewProc()
	dfd := donor.Socket()
	donor.Bind(dfd, 80)
	donor.Listen(dfd, 16)
	obj, _ := donor.FD(dfd)
	if err := inst.Root().KProc().InstallFD(42, obj); err != nil {
		t.Fatal(err)
	}
	if err := inst.Start(); err != nil {
		t.Fatal(err)
	}
	if err := inst.WaitStartup(5 * time.Second); err != nil {
		t.Fatalf("WaitStartup: %v", err)
	}
	defer inst.Terminate()
	inst.CompleteStartup()
	inst.Resume()
	// The server accepts on the inherited fd 42.
	cc, err := k.Connect(80)
	if err != nil {
		t.Fatal(err)
	}
	if msg, err := cc.Recv(2 * time.Second); err != nil || string(msg) != "welcome" {
		t.Errorf("Recv = %q, %v", msg, err)
	}
}

type interceptFunc func(*Thread, *Call) (bool, error)

func (f interceptFunc) Before(t *Thread, c *Call) (bool, error) { return f(t, c) }

func TestInterceptorConflictAbortsStartup(t *testing.T) {
	k := kernel.New()
	v := listing1Version(0)
	v.Types.Define(&types.Type{Name: "ptr", Kind: types.KindPtr,
		Size: types.WordSize, Align: types.WordSize})
	ic := interceptFunc(func(t *Thread, c *Call) (bool, error) {
		if c.Name == "bind" {
			return false, errors.New("argument mismatch: port 80 vs 8080")
		}
		return false, nil
	})
	inst, err := NewInstance(v, k, Options{Interceptor: ic})
	if err != nil {
		t.Fatal(err)
	}
	if err := inst.Start(); err != nil {
		t.Fatal(err)
	}
	err = inst.WaitStartup(5 * time.Second)
	if !errors.Is(err, ErrConflict) {
		t.Fatalf("WaitStartup err = %v, want ErrConflict", err)
	}
	inst.Terminate()
}

// TestWaitStartupWokenByRecordedError: startup that cannot converge (main
// is stuck short of its first quiescent point) ends the moment an error is
// recorded against the instance — WaitStartup sleeps on the barrier and
// recordError wakes it; nothing polls, and the timeout is a minute away.
func TestWaitStartupWokenByRecordedError(t *testing.T) {
	v := listing1Version(0)
	v.Types.Define(&types.Type{Name: "ptr", Kind: types.KindPtr,
		Size: types.WordSize, Align: types.WordSize})
	release := make(chan struct{})
	v.Main = func(t *Thread) error {
		t.Enter("main")
		defer t.Exit()
		<-release
		return nil
	}
	inst, err := NewInstance(v, kernel.New(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := inst.Start(); err != nil {
		t.Fatal(err)
	}
	res := make(chan error, 1)
	go func() { res <- inst.WaitStartup(time.Minute) }()
	select {
	case err := <-res:
		t.Fatalf("WaitStartup returned with main still stuck: %v", err)
	case <-time.After(20 * time.Millisecond):
	}
	boom := errors.New("reinit handler failed")
	inst.Fail(boom)
	select {
	case err := <-res:
		if !errors.Is(err, boom) {
			t.Fatalf("WaitStartup err = %v, want the recorded error", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("a recorded error did not wake WaitStartup")
	}
	close(release)
	inst.Terminate()
}

func TestStackVars(t *testing.T) {
	inst, _ := startSample(t, Options{})
	defer inst.Terminate()
	// Stack vars registered by the main thread exist as stack objects.
	// (The sample server doesn't declare any; exercise the API directly
	// on a scratch thread.)
	th, err := inst.newThread(inst.Root(), "scratch", nil)
	if err != nil {
		t.Fatal(err)
	}
	o, err := th.StackVar("local_list", "l_t")
	if err != nil {
		t.Fatal(err)
	}
	if o.Kind.String() != "stack" {
		t.Errorf("kind = %v", o.Kind)
	}
	got, ok := inst.Root().Index().At(o.Addr)
	if !ok || got.Name != "scratch:local_list" {
		t.Errorf("stack var not indexed: %+v", got)
	}
	th.cleanup()
	if _, ok := inst.Root().Index().At(o.Addr); ok {
		t.Error("stack var survived thread exit")
	}
}

func TestInstrumentationLevels(t *testing.T) {
	for _, instr := range []Instr{InstrBaseline, InstrUnblock, InstrStatic, InstrDynamic, InstrQDet} {
		instr := instr
		t.Run(instr.String(), func(t *testing.T) {
			inst, k := startSample(t, Options{Instr: instr})
			defer inst.Terminate()
			inst.CompleteStartup()
			inst.Resume()
			cc, err := k.Connect(80)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := cc.Recv(2 * time.Second); err != nil {
				t.Fatalf("instr %v: not served: %v", instr, err)
			}
			// Metadata exists only at +SInstr and above.
			md := inst.Root().Heap().Stats().MetadataBytes
			if instr >= InstrStatic && md == 0 {
				t.Error("no metadata at static instrumentation")
			}
			if instr < InstrStatic && md != 0 {
				t.Errorf("metadata %d below static instrumentation", md)
			}
		})
	}
}

func TestVersionValidate(t *testing.T) {
	reg := types.NewRegistry()
	good := &Version{Program: "p", Release: "1", Types: reg, Main: func(*Thread) error { return nil }}
	if err := good.Validate(); err != nil {
		t.Errorf("valid version rejected: %v", err)
	}
	bad := []*Version{
		{Release: "1", Types: reg, Main: good.Main},
		{Program: "p", Types: reg, Main: good.Main},
		{Program: "p", Release: "1", Main: good.Main},
		{Program: "p", Release: "1", Types: reg},
		{Program: "p", Release: "1", Types: reg, Main: good.Main,
			Globals: []GlobalSpec{{Name: "g"}}},
		{Program: "p", Release: "1", Types: reg, Main: good.Main,
			Globals: []GlobalSpec{{Name: "g", Type: "nope"}}},
		{Program: "p", Release: "1", Types: reg, Main: good.Main,
			Globals: []GlobalSpec{{Name: "g", Size: 8}, {Name: "g", Size: 8}}},
	}
	for i, v := range bad {
		if err := v.Validate(); err == nil {
			t.Errorf("bad version %d accepted", i)
		}
	}
}

func TestAnnotations(t *testing.T) {
	a := NewAnnotations()
	a.AddObjHandler("b", 12, func(tc TransferContext, oldObj, newObj *mem.Object) error {
		return nil
	})
	a.AddReinitHandler(30, func(ri *ReinitInfo) error { return nil })
	a.AddAnnotationLOC(8)
	if a.TotalLOC() != 50 {
		t.Errorf("TotalLOC = %d, want 50", a.TotalLOC())
	}
	if a.Count() != 2 {
		t.Errorf("Count = %d, want 2", a.Count())
	}
	if _, ok := a.ObjHandler("b"); !ok {
		t.Error("ObjHandler(b) missing")
	}
	if _, ok := a.ObjHandler("zzz"); ok {
		t.Error("ObjHandler(zzz) found")
	}
	if len(a.ReinitHandlers()) != 1 {
		t.Error("ReinitHandlers missing")
	}
	// Nil receiver conveniences.
	var nilA *Annotations
	if nilA.TotalLOC() != 0 || nilA.Count() != 0 {
		t.Error("nil Annotations accessors broken")
	}
}
