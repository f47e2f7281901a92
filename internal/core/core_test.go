package core

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/kernel"
	"repro/internal/program"
	"repro/internal/types"
)

// echodVersion builds "echod": an event-driven server that keeps one
// session object per connection (fd + message counter) in a linked list.
// Live update must carry the sessions — open connections and their
// counters — to the new version. The v2 update adds a field to the
// session type and changes the reply banner.
func echodVersion(release string, seq int, banner string, withNew bool, port int) *program.Version {
	reg := types.NewRegistry()
	sess := &types.Type{Name: "session_s", Kind: types.KindStruct}
	sess.Fields = []types.Field{
		{Name: "fd", Offset: 0, Type: types.Scalar(types.KindInt64)},
		{Name: "count", Offset: 8, Type: types.Scalar(types.KindInt64)},
		{Name: "next", Offset: 16, Type: types.PointerTo(sess)},
	}
	sess.Size, sess.Align = 24, 8
	if withNew {
		sess.Fields = append(sess.Fields, types.Field{
			Name: "new", Offset: 24, Type: types.Scalar(types.KindInt64)})
		sess.Size = 32
	}
	reg.Define(sess)
	reg.Define(types.StructOf("conf_s",
		types.Field{Name: "port", Type: types.Scalar(types.KindInt64)},
	))
	reg.Define(&types.Type{Name: "voidptr", Kind: types.KindPtr,
		Size: types.WordSize, Align: types.WordSize})

	return &program.Version{
		Program: "echod",
		Release: release,
		Seq:     seq,
		Types:   reg,
		Globals: []program.GlobalSpec{
			{Name: "sessions", Type: "voidptr"},
			{Name: "conf", Type: "voidptr"},
			{Name: "listen_fd", Type: "voidptr"}, // fd stored as a word
			{Name: "epoll_fd", Type: "voidptr"},
		},
		Annotations: program.NewAnnotations(),
		Main:        echodMain(banner, port),
	}
}

func echodMain(banner string, port int) func(*program.Thread) error {
	return func(t *program.Thread) error {
		t.Enter("main")
		defer t.Exit()
		err := t.Call("server_init", func() error {
			lfd, err := t.Socket()
			if err != nil {
				return err
			}
			if err := t.Bind(lfd, port); err != nil {
				return err
			}
			if err := t.Listen(lfd, 128); err != nil {
				return err
			}
			p := t.Proc()
			if err := p.WriteField(p.MustGlobal("listen_fd"), "", uint64(lfd)); err != nil {
				return err
			}
			epfd, err := t.EpollCreate()
			if err != nil {
				return err
			}
			if err := t.EpollAdd(epfd, lfd); err != nil {
				return err
			}
			if err := p.WriteField(p.MustGlobal("epoll_fd"), "", uint64(epfd)); err != nil {
				return err
			}
			conf, err := t.Malloc("conf_s")
			if err != nil {
				return err
			}
			if err := p.WriteField(conf, "port", uint64(port)); err != nil {
				return err
			}
			return p.SetPtr(p.MustGlobal("conf"), "", conf)
		})
		if err != nil {
			return err
		}
		return t.Loop("event_loop", func() error {
			return echodIterate(t, banner)
		})
	}
}

// echodIterate runs one event-loop iteration: wait on the epoll instance
// (listener and every session fd live in its in-kernel interest set), then
// handle whichever fd became ready.
func echodIterate(t *program.Thread, banner string) error {
	p := t.Proc()
	lfd, err := p.ReadField(p.MustGlobal("listen_fd"), "")
	if err != nil {
		return err
	}
	epfd, err := p.ReadField(p.MustGlobal("epoll_fd"), "")
	if err != nil {
		return err
	}
	ready, err := t.EpollWaitQP("epoll_wait@event_loop", int(epfd))
	if err != nil {
		if errors.Is(err, program.ErrStopped) {
			return program.ErrLoopExit
		}
		return err
	}
	if ready == int(lfd) {
		cfd, _, err := t.Proc().KProc().Accept(int(lfd), kernel.NoWait)
		if err != nil {
			return nil // raced away; poll again
		}
		if err := t.EpollAdd(int(epfd), cfd); err != nil {
			return err
		}
		node, err := t.Malloc("session_s")
		if err != nil {
			return err
		}
		if err := p.WriteField(node, "fd", uint64(cfd)); err != nil {
			return err
		}
		head, _ := p.ReadField(p.MustGlobal("sessions"), "")
		if err := p.WriteField(node, "next", head); err != nil {
			return err
		}
		return p.WriteField(p.MustGlobal("sessions"), "", uint64(node.Addr))
	}
	// Data on a session connection.
	for node, ok := p.ReadPtr(p.MustGlobal("sessions"), ""); ok; node, ok = p.ReadPtr(node, "next") {
		fd, _ := p.ReadField(node, "fd")
		if int(fd) != ready {
			continue
		}
		msg, err := t.Proc().KProc().Read(ready, kernel.NoWait)
		if err != nil {
			if errors.Is(err, kernel.ErrClosed) {
				// Drop the session: deregister and mark fd -1.
				epfd, _ := p.ReadField(p.MustGlobal("epoll_fd"), "")
				_ = t.EpollDel(int(epfd), ready)
				_ = t.CloseFD(ready)
				return p.WriteField(node, "fd", ^uint64(0))
			}
			return nil
		}
		cnt, _ := p.ReadField(node, "count")
		cnt++
		if err := p.WriteField(node, "count", cnt); err != nil {
			return err
		}
		reply := fmt.Sprintf("%s:%s:%d", banner, msg, cnt)
		if err := t.Write(ready, []byte(reply)); err != nil && !errors.Is(err, kernel.ErrClosed) {
			return err
		}
		return nil
	}
	return nil
}

func launchEchod(t *testing.T, opts Options) (*Engine, *kernel.Kernel) {
	t.Helper()
	k := kernel.New()
	e, err := NewEngine(k, opts)
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	if _, err := e.Launch(echodVersion("1.0", 0, "v1", false, 7000)); err != nil {
		t.Fatalf("Launch: %v", err)
	}
	return e, k
}

func sendRecv(t *testing.T, cc *kernel.ClientConn, msg string) string {
	t.Helper()
	if err := cc.Send([]byte(msg)); err != nil {
		t.Fatalf("Send: %v", err)
	}
	resp, err := cc.Recv(3 * time.Second)
	if err != nil {
		t.Fatalf("Recv(%q): %v", msg, err)
	}
	return string(resp)
}

func TestLiveUpdateEndToEnd(t *testing.T) {
	e, k := launchEchod(t, Options{})
	defer e.Shutdown()

	// Two clients with session state.
	c1, err := k.Connect(7000)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := k.Connect(7000)
	if err != nil {
		t.Fatal(err)
	}
	if got := sendRecv(t, c1, "hello"); got != "v1:hello:1" {
		t.Fatalf("pre-update reply = %q", got)
	}
	if got := sendRecv(t, c1, "again"); got != "v1:again:2" {
		t.Fatalf("pre-update reply = %q", got)
	}
	if got := sendRecv(t, c2, "hi"); got != "v1:hi:1" {
		t.Fatalf("pre-update c2 reply = %q", got)
	}

	// Live update to v2 (grown session type, new banner).
	rep, err := e.Update(echodVersion("2.0", 1, "v2", true, 7000))
	if err != nil {
		t.Fatalf("Update: %v", err)
	}
	if rep.RolledBack {
		t.Fatalf("update rolled back: %v", rep.Reason)
	}
	// The same connections keep working, with counters intact.
	if got := sendRecv(t, c1, "post"); got != "v2:post:3" {
		t.Errorf("post-update c1 reply = %q, want v2:post:3", got)
	}
	if got := sendRecv(t, c2, "post"); got != "v2:post:2" {
		t.Errorf("post-update c2 reply = %q, want v2:post:2", got)
	}
	// New connections are served by v2.
	c3, err := k.Connect(7000)
	if err != nil {
		t.Fatal(err)
	}
	if got := sendRecv(t, c3, "fresh"); got != "v2:fresh:1" {
		t.Errorf("new-conn reply = %q", got)
	}
	// Old instance is gone: exactly one instance's processes remain.
	if cur := e.Current().Version().Release; cur != "2.0" {
		t.Errorf("current release = %s", cur)
	}
}

func TestUpdateReportTimings(t *testing.T) {
	e, k := launchEchod(t, Options{})
	defer e.Shutdown()
	cc, _ := k.Connect(7000)
	sendRecv(t, cc, "x")

	rep, err := e.Update(echodVersion("2.0", 1, "v2", true, 7000))
	if err != nil {
		t.Fatal(err)
	}
	if rep.QuiesceTime <= 0 || rep.ControlMigrationTime <= 0 || rep.StateTransferTime < 0 {
		t.Errorf("timings = %+v", rep)
	}
	if rep.QuiesceTime > 150*time.Millisecond {
		t.Errorf("quiescence %v exceeds the <100ms ballpark", rep.QuiesceTime)
	}
	if rep.TotalTime > time.Second {
		t.Errorf("total update time %v exceeds the <1s target", rep.TotalTime)
	}
	if rep.Replayed == 0 {
		t.Error("no operations replayed")
	}
	if rep.Transfer.ObjectsTransferred == 0 {
		t.Error("no objects transferred")
	}
	if len(e.History()) != 1 {
		t.Error("history not recorded")
	}
}

func TestUpdateConflictRollsBack(t *testing.T) {
	e, k := launchEchod(t, Options{})
	defer e.Shutdown()
	cc, _ := k.Connect(7000)
	if got := sendRecv(t, cc, "a"); got != "v1:a:1" {
		t.Fatal(got)
	}

	// v2 binds a different port: the bind record's arguments mismatch ->
	// replay conflict -> rollback.
	rep, err := e.Update(echodVersion("2.0", 1, "v2", true, 7001))
	if !errors.Is(err, ErrUpdateFailed) {
		t.Fatalf("err = %v, want ErrUpdateFailed", err)
	}
	if !rep.RolledBack || rep.Reason == nil {
		t.Errorf("report = %+v", rep)
	}
	// v1 is still serving, with state intact.
	if cur := e.Current().Version().Release; cur != "1.0" {
		t.Fatalf("current release = %s after rollback", cur)
	}
	if got := sendRecv(t, cc, "b"); got != "v1:b:2" {
		t.Errorf("post-rollback reply = %q, want v1:b:2 (state intact)", got)
	}
	// A later good update still succeeds.
	if _, err := e.Update(echodVersion("2.1", 1, "v2", true, 7000)); err != nil {
		t.Fatalf("follow-up update: %v", err)
	}
	if got := sendRecv(t, cc, "c"); got != "v2:c:3" {
		t.Errorf("post-update reply = %q", got)
	}
}

func TestSequentialUpdates(t *testing.T) {
	// v1 -> v2 -> v3: the second update replays the log recorded during
	// the first update's reinitialization.
	e, k := launchEchod(t, Options{})
	defer e.Shutdown()
	cc, _ := k.Connect(7000)
	sendRecv(t, cc, "one")

	if _, err := e.Update(echodVersion("2.0", 1, "v2", true, 7000)); err != nil {
		t.Fatalf("first update: %v", err)
	}
	if got := sendRecv(t, cc, "two"); got != "v2:two:2" {
		t.Fatalf("after first update: %q", got)
	}
	if _, err := e.Update(echodVersion("3.0", 2, "v3", true, 7000)); err != nil {
		t.Fatalf("second update: %v", err)
	}
	if got := sendRecv(t, cc, "three"); got != "v3:three:3" {
		t.Errorf("after second update: %q", got)
	}
}

func TestClientsConnectingDuringUpdateAreServedAfter(t *testing.T) {
	e, k := launchEchod(t, Options{})
	defer e.Shutdown()
	// Quiesce manually to widen the window, connect, then update.
	old := e.Current()
	if _, err := old.Quiesce(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	mid, err := k.Connect(7000)
	if err != nil {
		t.Fatalf("connect while quiesced: %v", err)
	}
	old.Resume()
	rep, err := e.Update(echodVersion("2.0", 1, "v2", true, 7000))
	if err != nil || rep.RolledBack {
		t.Fatalf("update: %v", err)
	}
	if got := sendRecv(t, mid, "queued"); got != "v2:queued:1" {
		t.Errorf("mid-update client reply = %q", got)
	}
}

func TestControllerProtocol(t *testing.T) {
	e, k := launchEchod(t, Options{})
	defer e.Shutdown()
	ctl := NewController(e, "/run/mcr.sock")
	ctl.Stage(echodVersion("2.0", 1, "v2", true, 7000))
	if err := ctl.Start(); err != nil {
		t.Fatal(err)
	}
	defer ctl.Stop()

	if resp, err := CtlRequest(k, "/run/mcr.sock", "ping"); err != nil || resp != "PONG" {
		t.Fatalf("ping = %q, %v", resp, err)
	}
	resp, err := CtlRequest(k, "/run/mcr.sock", "status")
	if err != nil || !strings.HasPrefix(resp, "OK echod-1.0") {
		t.Fatalf("status = %q, %v", resp, err)
	}
	cc, _ := k.Connect(7000)
	sendRecv(t, cc, "pre")

	resp, err = CtlRequest(k, "/run/mcr.sock", "update 2.0")
	if err != nil || !strings.HasPrefix(resp, "OK updated to echod-2.0") {
		t.Fatalf("update = %q, %v", resp, err)
	}
	if got := sendRecv(t, cc, "post"); got != "v2:post:2" {
		t.Errorf("post-ctl-update reply = %q", got)
	}
	// Error paths.
	if resp, _ := CtlRequest(k, "/run/mcr.sock", "update nope"); !strings.HasPrefix(resp, "ERR") {
		t.Errorf("unknown release = %q", resp)
	}
	if resp, _ := CtlRequest(k, "/run/mcr.sock", "bogus"); !strings.HasPrefix(resp, "ERR") {
		t.Errorf("unknown command = %q", resp)
	}
}

func TestUpdateWithoutLaunchFails(t *testing.T) {
	e, err := NewEngine(kernel.New(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Update(echodVersion("2.0", 1, "v2", true, 7000)); !errors.Is(err, ErrNotRunning) {
		t.Errorf("err = %v, want ErrNotRunning", err)
	}
}

func TestDoubleLaunchFails(t *testing.T) {
	e, _ := launchEchod(t, Options{})
	defer e.Shutdown()
	if _, err := e.Launch(echodVersion("x", 0, "x", false, 7009)); err == nil {
		t.Error("second Launch succeeded")
	}
}
