package kernel

import (
	"errors"
	"testing"
	"time"
)

// within returns a cancel channel that closes after d: the deadline of a
// test call that must not block longer.
func within(d time.Duration) <-chan struct{} {
	ch := make(chan struct{})
	time.AfterFunc(d, func() { close(ch) })
	return ch
}

func TestSocketBindListenAcceptRoundtrip(t *testing.T) {
	k := New()
	p := k.NewProc()
	fd := p.Socket()
	if err := p.Bind(fd, 80); err != nil {
		t.Fatalf("Bind: %v", err)
	}
	if err := p.Listen(fd, 16); err != nil {
		t.Fatalf("Listen: %v", err)
	}

	cc, err := k.Connect(80)
	if err != nil {
		t.Fatalf("Connect: %v", err)
	}
	cfd, conn, err := p.Accept(fd, within(time.Second))
	if err != nil {
		t.Fatalf("Accept: %v", err)
	}
	if conn.ID != cc.ID() {
		t.Errorf("conn ids differ: %d vs %d", conn.ID, cc.ID())
	}

	if err := cc.Send([]byte("GET /")); err != nil {
		t.Fatal(err)
	}
	msg, err := p.Read(cfd, within(time.Second))
	if err != nil || string(msg) != "GET /" {
		t.Fatalf("Read = %q, %v", msg, err)
	}
	if err := p.Write(cfd, []byte("200 OK")); err != nil {
		t.Fatal(err)
	}
	resp, err := cc.Recv(time.Second)
	if err != nil || string(resp) != "200 OK" {
		t.Fatalf("Recv = %q, %v", resp, err)
	}
}

func TestBindPortClash(t *testing.T) {
	k := New()
	p := k.NewProc()
	fd1 := p.Socket()
	if err := p.Bind(fd1, 80); err != nil {
		t.Fatal(err)
	}
	fd2 := p.Socket()
	if err := p.Bind(fd2, 80); !errors.Is(err, ErrAddrInUse) {
		t.Errorf("rebind err = %v, want ErrAddrInUse", err)
	}
	// A second process cannot bind it either (the re-execution error).
	p2 := k.NewProc()
	fd3 := p2.Socket()
	if err := p2.Bind(fd3, 80); !errors.Is(err, ErrAddrInUse) {
		t.Errorf("cross-process rebind err = %v, want ErrAddrInUse", err)
	}
}

func TestAcceptTimeout(t *testing.T) {
	k := New()
	p := k.NewProc()
	fd := p.Socket()
	p.Bind(fd, 80)
	p.Listen(fd, 16)
	if _, _, err := p.Accept(fd, within(5*time.Millisecond)); !errors.Is(err, ErrTimeout) {
		t.Errorf("Accept err = %v, want ErrTimeout", err)
	}
	// Non-blocking poll form.
	if _, _, err := p.Accept(fd, NoWait); !errors.Is(err, ErrTimeout) {
		t.Errorf("Accept(NoWait) err = %v, want ErrTimeout", err)
	}
}

func TestAcceptOnNonListenerFails(t *testing.T) {
	k := New()
	p := k.NewProc()
	fd := p.Socket()
	if _, _, err := p.Accept(fd, within(time.Millisecond)); !errors.Is(err, ErrNotListening) {
		t.Errorf("err = %v, want ErrNotListening", err)
	}
	if _, _, err := p.Accept(99, within(time.Millisecond)); !errors.Is(err, ErrBadFD) {
		t.Errorf("err = %v, want ErrBadFD", err)
	}
}

func TestForkInheritsFDs(t *testing.T) {
	k := New()
	p := k.NewProc()
	fd := p.Socket()
	p.Bind(fd, 80)
	p.Listen(fd, 16)

	child, err := p.Fork()
	if err != nil {
		t.Fatalf("Fork: %v", err)
	}
	if child.Parent() != p.Pid() {
		t.Errorf("child parent = %d, want %d", child.Parent(), p.Pid())
	}
	// Same fd number resolves to the same kernel object in the child.
	obj, err := child.FD(fd)
	if err != nil {
		t.Fatalf("child FD: %v", err)
	}
	pobj, _ := p.FD(fd)
	if obj != pobj {
		t.Error("forked fd does not share the kernel object")
	}
	// Child can accept connections on the inherited listener.
	k.Connect(80)
	if _, _, err := child.Accept(fd, within(time.Second)); err != nil {
		t.Errorf("child Accept: %v", err)
	}
}

func TestPidPinning(t *testing.T) {
	k := New()
	p := k.NewProc()
	p.PinNextPid(4242)
	child, err := p.Fork()
	if err != nil {
		t.Fatalf("Fork: %v", err)
	}
	if child.Pid() != 4242 {
		t.Errorf("pinned child pid = %d, want 4242", child.Pid())
	}
	// Pinning an in-use pid fails (reinitialization conflict).
	p.PinNextPid(4242)
	if _, err := p.Fork(); !errors.Is(err, ErrPidInUse) {
		t.Errorf("err = %v, want ErrPidInUse", err)
	}
	// Unpinned fork gets a fresh pid.
	c2, err := p.Fork()
	if err != nil {
		t.Fatal(err)
	}
	if c2.Pid() == 4242 || c2.Pid() == p.Pid() {
		t.Errorf("unpinned child pid = %d", c2.Pid())
	}
}

func TestThreadIDPinning(t *testing.T) {
	k := New()
	p := k.NewProc()
	p.PinNextPid(777)
	tid, err := p.NewThreadID()
	if err != nil || tid != 777 {
		t.Fatalf("NewThreadID = %d, %v; want 777", tid, err)
	}
	tid2, err := p.NewThreadID()
	if err != nil || tid2 == 777 {
		t.Fatalf("second NewThreadID = %d, %v", tid2, err)
	}
}

func TestExitReleasesPidsAndFDs(t *testing.T) {
	k := New()
	p := k.NewProc()
	fd := p.Socket()
	p.Bind(fd, 80)
	p.Listen(fd, 16)
	pid := p.Pid()
	p.Exit()
	if _, ok := k.Proc(pid); ok {
		t.Error("exited pid still registered")
	}
	// Listener refcount dropped to zero: the port is free again.
	p2 := k.NewProc()
	fd2 := p2.Socket()
	if err := p2.Bind(fd2, 80); err != nil {
		t.Errorf("rebind after exit: %v", err)
	}
	if !p.Exited() {
		t.Error("Exited() = false")
	}
}

func TestListenerSurvivesOldVersionExit(t *testing.T) {
	// The live-update property: v1 binds, v2 inherits the fd, v1 exits,
	// the listener and its queued connections remain usable by v2.
	k := New()
	v1 := k.NewProc()
	fd := v1.Socket()
	v1.Bind(fd, 80)
	v1.Listen(fd, 16)

	v2 := k.NewProc()
	if err := v1.PassFDs(v2, []int{fd}); err != nil {
		t.Fatalf("PassFDs: %v", err)
	}
	// A client connects while neither version is accepting.
	cc, err := k.Connect(80)
	if err != nil {
		t.Fatal(err)
	}
	v1.Exit()
	// v2 accepts the connection queued before v1 died.
	cfd, conn, err := v2.Accept(fd, within(time.Second))
	if err != nil {
		t.Fatalf("v2 Accept after v1 exit: %v", err)
	}
	if conn.ID != cc.ID() {
		t.Error("wrong connection delivered")
	}
	if err := v2.Write(cfd, []byte("hi")); err != nil {
		t.Errorf("v2 Write: %v", err)
	}
	if msg, err := cc.Recv(time.Second); err != nil || string(msg) != "hi" {
		t.Errorf("client Recv = %q, %v", msg, err)
	}
}

func TestPassFDsPreservesNumbers(t *testing.T) {
	k := New()
	src := k.NewProc()
	a := src.Socket()
	b := src.Socket()
	dst := k.NewProc()
	if err := src.PassFDs(dst, []int{a, b}); err != nil {
		t.Fatalf("PassFDs: %v", err)
	}
	for _, n := range []int{a, b} {
		so, _ := src.FD(n)
		do, err := dst.FD(n)
		if err != nil || so != do {
			t.Errorf("fd %d: not shared (err %v)", n, err)
		}
	}
	// Installing over a busy number fails.
	obj, _ := src.FD(a)
	if err := dst.InstallFD(a, obj); !errors.Is(err, ErrAddrInUse) {
		t.Errorf("InstallFD clash err = %v, want ErrAddrInUse", err)
	}
}

func TestReservedFDRange(t *testing.T) {
	k := New()
	p := k.NewProc()
	normal := p.Socket()
	if normal >= ReservedFDBase {
		t.Fatalf("normal fd %d in reserved range", normal)
	}
	p.SetReserveMode(true)
	r1 := p.Socket()
	r2 := p.Socket()
	if r1 != ReservedFDBase || r2 != ReservedFDBase+1 {
		t.Errorf("reserved fds = %d, %d; want %d, %d", r1, r2, ReservedFDBase, ReservedFDBase+1)
	}
	// Closing a reserved fd never recycles its number.
	p.Close(r1)
	r3 := p.Socket()
	if r3 == r1 {
		t.Error("reserved fd number reused after close")
	}
	p.SetReserveMode(false)
	n2 := p.Socket()
	if n2 >= ReservedFDBase {
		t.Errorf("post-reserve fd %d in reserved range", n2)
	}
}

func TestDup2(t *testing.T) {
	k := New()
	p := k.NewProc()
	fd := p.Socket()
	if err := p.Dup2(fd, 50); err != nil {
		t.Fatalf("Dup2: %v", err)
	}
	a, _ := p.FD(fd)
	b, err := p.FD(50)
	if err != nil || a != b {
		t.Error("dup'd fd does not share object")
	}
	if err := p.Dup2(999, 51); !errors.Is(err, ErrBadFD) {
		t.Errorf("Dup2 bad fd err = %v", err)
	}
}

func TestCloseRefcounting(t *testing.T) {
	k := New()
	p := k.NewProc()
	fd := p.Socket()
	p.Bind(fd, 80)
	p.Listen(fd, 1)
	p.Dup2(fd, 60)
	// Closing one reference keeps the listener alive.
	p.Close(fd)
	if _, err := k.Connect(80); err != nil {
		t.Errorf("listener died after closing one of two refs: %v", err)
	}
	p.Close(60)
	if _, err := k.Connect(80); err == nil {
		t.Error("listener alive after all refs closed")
	}
	if err := p.Close(60); !errors.Is(err, ErrBadFD) {
		t.Errorf("double close err = %v", err)
	}
}

func TestConnCloseSemantics(t *testing.T) {
	k := New()
	p := k.NewProc()
	fd := p.Socket()
	p.Bind(fd, 80)
	p.Listen(fd, 1)
	cc, _ := k.Connect(80)
	cfd, _, _ := p.Accept(fd, within(time.Second))

	cc.Send([]byte("last words"))
	cc.Close()
	// Buffered data is still readable after close.
	if msg, err := p.Read(cfd, within(time.Second)); err != nil || string(msg) != "last words" {
		t.Fatalf("Read after close = %q, %v", msg, err)
	}
	if _, err := p.Read(cfd, within(10*time.Millisecond)); !errors.Is(err, ErrClosed) {
		t.Errorf("Read on drained closed conn err = %v, want ErrClosed", err)
	}
	if err := p.Write(cfd, []byte("x")); !errors.Is(err, ErrClosed) {
		t.Errorf("Write on closed conn err = %v, want ErrClosed", err)
	}
}

func TestPoll(t *testing.T) {
	k := New()
	p := k.NewProc()
	lfd := p.Socket()
	p.Bind(lfd, 80)
	p.Listen(lfd, 16)

	// Timeout with nothing ready.
	if _, err := p.Poll([]int{lfd}, within(10*time.Millisecond)); !errors.Is(err, ErrTimeout) {
		t.Fatalf("Poll err = %v, want ErrTimeout", err)
	}

	// Wakes on a new connection.
	done := make(chan struct{})
	go func() {
		defer close(done)
		fd, err := p.Poll([]int{lfd}, within(2*time.Second))
		if err != nil || fd != lfd {
			t.Errorf("Poll = %d, %v; want %d", fd, err, lfd)
		}
	}()
	time.Sleep(5 * time.Millisecond)
	if _, err := k.Connect(80); err != nil {
		t.Fatal(err)
	}
	<-done
	// Drain the connection queued by the wake test.
	if _, _, err := p.Accept(lfd, within(time.Second)); err != nil {
		t.Fatal(err)
	}

	// Wakes on data on an accepted connection.
	cc, _ := k.Connect(80)
	_ = cc
	cfd, _, _ := p.Accept(lfd, within(time.Second))
	cc2, _ := k.Connect(80)
	cfd2, _, _ := p.Accept(lfd, within(time.Second))
	go func() {
		time.Sleep(5 * time.Millisecond)
		cc2.Send([]byte("ping"))
	}()
	fd, err := p.Poll([]int{cfd, cfd2}, within(2*time.Second))
	if err != nil || fd != cfd2 {
		t.Errorf("Poll = %d, %v; want %d", fd, err, cfd2)
	}
}

func TestFiles(t *testing.T) {
	k := New()
	k.WriteFile("/etc/server.conf", []byte("workers=2\n"))
	p := k.NewProc()
	fd, err := p.Open("/etc/server.conf")
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	data, err := p.ReadFile(fd, 1024)
	if err != nil || string(data) != "workers=2\n" {
		t.Fatalf("ReadFile = %q, %v", data, err)
	}
	// EOF returns nil.
	data, err = p.ReadFile(fd, 1024)
	if err != nil || data != nil {
		t.Errorf("ReadFile at EOF = %q, %v", data, err)
	}
	if _, err := p.Open("/missing"); !errors.Is(err, ErrNoFile) {
		t.Errorf("Open missing err = %v", err)
	}
	// Create + write + direct read.
	wfd, err := p.Create("/var/log/server.log")
	if err != nil {
		t.Fatal(err)
	}
	p.WriteFileFD(wfd, []byte("started\n"))
	got, ok := k.ReadFileDirect("/var/log/server.log")
	if !ok || string(got) != "started\n" {
		t.Errorf("log = %q, %v", got, ok)
	}
}

func TestUnixSockets(t *testing.T) {
	k := New()
	p := k.NewProc()
	fd := p.Socket()
	if err := p.BindUnix(fd, "/run/mcr.sock"); err != nil {
		t.Fatal(err)
	}
	p.Listen(fd, 4)
	cc, err := k.ConnectUnix("/run/mcr.sock")
	if err != nil {
		t.Fatalf("ConnectUnix: %v", err)
	}
	cc.Send([]byte("update"))
	cfd, _, err := p.Accept(fd, within(time.Second))
	if err != nil {
		t.Fatal(err)
	}
	msg, err := p.Read(cfd, within(time.Second))
	if err != nil || string(msg) != "update" {
		t.Errorf("Read = %q, %v", msg, err)
	}
	if _, err := k.ConnectUnix("/nope"); err == nil {
		t.Error("ConnectUnix to unbound path succeeded")
	}
}

func TestListenerBacklogCount(t *testing.T) {
	k := New()
	p := k.NewProc()
	fd := p.Socket()
	p.Bind(fd, 8080)
	p.Listen(fd, 8)
	for i := 0; i < 3; i++ {
		if _, err := k.Connect(8080); err != nil {
			t.Fatal(err)
		}
	}
	if n := k.ListenerBacklog(8080); n != 3 {
		t.Errorf("backlog = %d, want 3", n)
	}
}

func TestPidNamespacesCoexist(t *testing.T) {
	// Old and new versions live in separate namespaces: the new version
	// can pin the exact numeric pids of the still-running old version.
	k := New()
	oldRoot := k.NewProc()
	oldChild, err := oldRoot.Fork()
	if err != nil {
		t.Fatal(err)
	}

	newRoot := k.NewProc()
	if newRoot.Namespace() == oldRoot.Namespace() {
		t.Fatal("new root shares old namespace")
	}
	newRoot.PinNextPid(oldChild.Pid())
	newChild, err := newRoot.Fork()
	if err != nil {
		t.Fatalf("pinning an old-namespace pid failed: %v", err)
	}
	if newChild.Pid() != oldChild.Pid() {
		t.Errorf("pids differ: %d vs %d", newChild.Pid(), oldChild.Pid())
	}
	if newChild.Namespace() != newRoot.Namespace() {
		t.Error("fork escaped its namespace")
	}
	// Within one namespace the pin still conflicts.
	newRoot.PinNextPid(newChild.Pid())
	if _, err := newRoot.Fork(); !errors.Is(err, ErrPidInUse) {
		t.Errorf("same-namespace pin err = %v, want ErrPidInUse", err)
	}
}

func TestNamespaceCleanupOnExit(t *testing.T) {
	k := New()
	p := k.NewProc()
	c, _ := p.Fork()
	c.Exit()
	p.Exit()
	if n := len(k.Procs()); n != 0 {
		t.Errorf("%d procs remain", n)
	}
}

func TestPidReservation(t *testing.T) {
	k := New()
	p := k.NewProc()
	p.ReservePids([]Pid{3, 4, 5})
	// Natural allocation skips the reserved range.
	tid, err := p.NewThreadID()
	if err != nil {
		t.Fatal(err)
	}
	if tid >= 3 && tid <= 5 {
		t.Fatalf("natural tid %d stole a reserved pid", tid)
	}
	child, err := p.Fork()
	if err != nil {
		t.Fatal(err)
	}
	if cp := child.Pid(); cp >= 3 && cp <= 5 {
		t.Fatalf("natural fork pid %d stole a reserved pid", cp)
	}
	// A pin consumes its reservation.
	p.PinNextPid(4)
	tid, err = p.NewThreadID()
	if err != nil || tid != 4 {
		t.Fatalf("pinned NewThreadID = %d, %v; want 4", tid, err)
	}
	// Reserving an id that is already live is a no-op (it cannot be
	// stolen), and does not block a later natural allocation scan.
	p.ReservePids([]Pid{p.Pid()})
	if _, err := p.NewThreadID(); err != nil {
		t.Fatal(err)
	}
}

func TestReleaseReservedPids(t *testing.T) {
	k := New()
	p := k.NewProc()
	p.ReservePids([]Pid{3, 4, 5})
	// One reservation consumed by a pin, two still outstanding.
	p.PinNextPid(4)
	if tid, err := p.NewThreadID(); err != nil || tid != 4 {
		t.Fatalf("pinned tid = %d, %v; want 4", tid, err)
	}
	if got := p.ReservedPids(); len(got) != 2 || got[0] != 3 || got[1] != 5 {
		t.Fatalf("ReservedPids = %v, want [3 5]", got)
	}
	if n := p.ReleaseReservedPids(); n != 2 {
		t.Fatalf("released %d reservations, want 2", n)
	}
	if got := p.ReservedPids(); len(got) != 0 {
		t.Fatalf("reservations survive release: %v", got)
	}
	// Released ids are fair game for natural allocation again: with 3 and
	// 5 free, the next two allocations from a fresh scan must be able to
	// land on them. (Allocation scans ascend from the last handed-out id,
	// so just check no error and no reserved-skip panic.)
	if _, err := p.NewThreadID(); err != nil {
		t.Fatal(err)
	}
	// Idempotent.
	if n := p.ReleaseReservedPids(); n != 0 {
		t.Fatalf("second release freed %d", n)
	}
}

func TestNamespacePidsListsThreadsAndProcs(t *testing.T) {
	k := New()
	p := k.NewProc()
	tid, err := p.NewThreadID()
	if err != nil {
		t.Fatal(err)
	}
	child, err := p.Fork()
	if err != nil {
		t.Fatal(err)
	}
	pids := p.NamespacePids()
	want := map[Pid]bool{p.Pid(): true, tid: true, child.Pid(): true}
	for _, pid := range pids {
		delete(want, pid)
	}
	if len(want) != 0 {
		t.Fatalf("NamespacePids %v missing %v", pids, want)
	}
	// A second root lives in a different namespace: reservations and
	// listings do not leak across.
	other := k.NewProc()
	for _, pid := range other.NamespacePids() {
		if pid == tid || pid == child.Pid() {
			t.Fatalf("namespace leak: %d visible from other root", pid)
		}
	}
}
