package servers

import (
	"errors"
	"fmt"
	"strings"

	"repro/internal/kernel"
	"repro/internal/program"
	"repro/internal/types"
)

// The vsftpd model: one master process accepting control connections and
// forking one handler process per session — the classic process-per-
// connection FTP design. vsftpd does not daemonize in our configuration
// (Table 1: SL=0) and exposes five long-lived thread classes: the master
// accept loop (the only persistent quiescent point) plus four volatile
// per-session classes — command loop, privileged helper, data transfer,
// passive-mode listener. Restoring those volatile quiescent states after
// restart is exactly what the paper's 82-LOC vsftpd reinitialization
// annotation does; our analog lives in vsftpdReinitHandler.

// vsftpdPasvPortBase is the base port for passive-mode data listeners.
const vsftpdPasvPortBase = 2100

func vsftpdTypes(i int) *types.Registry {
	reg := types.NewRegistry()
	sessFields := []types.Field{
		{Name: "cmd_fd", Type: types.Scalar(types.KindInt64)},
		{Name: "data_fd", Type: types.Scalar(types.KindInt64)},
		{Name: "pasv_fd", Type: types.Scalar(types.KindInt64)},
		{Name: "authed", Type: types.Scalar(types.KindInt64)},
		{Name: "quit", Type: types.Scalar(types.KindInt64)},
		{Name: "cmd_count", Type: types.Scalar(types.KindInt64)},
		{Name: "bytes_sent", Type: types.Scalar(types.KindInt64)},
		{Name: "user", Type: types.ArrayOf(16, types.Scalar(types.KindUint8))},
		// secret holds a pointer to the heap-allocated last-command
		// buffer, stored through a char array — the type-unsafe idiom
		// behind vsftpd's six likely pointers in Table 2.
		{Name: "secret", Type: types.ArrayOf(16, types.Scalar(types.KindUint8))},
	}
	// Updates grow the session struct one field per release.
	for g := 1; g <= i; g++ {
		sessFields = append(sessFields, types.Field{
			Name: fmt.Sprintf("sess_ext%d", g), Type: types.Scalar(types.KindInt64)})
	}
	sess := types.StructOf("vsf_session_t", sessFields...)
	reg.Define(sess)
	reg.Define(types.StructOf("vsf_config_t",
		types.Field{Name: "anonymous_enable", Type: types.Scalar(types.KindInt64)},
		types.Field{Name: "local_enable", Type: types.Scalar(types.KindInt64)},
		types.Field{Name: "listen_fd", Type: types.Scalar(types.KindInt64)},
		// The user database parsed at startup (page-spanning, never
		// touched afterwards: prime dirty-filter material).
		types.Field{Name: "userdb", Type: types.PointerTo(nil)},
	))
	reg.Define(&types.Type{Name: "voidptr", Kind: types.KindPtr,
		Size: types.WordSize, Align: types.WordSize})
	return reg
}

// VsftpdVersion builds release i of the vsftpd model.
func VsftpdVersion(i int) *program.Version {
	banner := "vsftpd " + release("1.1.0", i)
	ann := program.NewAnnotations()
	// The volatile-quiescent-point reinitialization annotation (82 LOC in
	// the paper): re-fork every live session process and respawn its
	// threads at their quiescent points.
	ann.AddReinitHandler(82, vsftpdReinitHandler)
	// The session struct hides a pointer in its secret char buffer, so
	// updates that grow it need a state-transfer handler (the paper's 21
	// vsftpd ST LOC).
	ann.AddObjHandler("vsf_session", 21, fieldwiseCopyHandler)

	return &program.Version{
		Program: "vsftpd",
		Release: release("1.1.0", i),
		Seq:     i,
		Types:   vsftpdTypes(i),
		Globals: []program.GlobalSpec{
			{Name: "vsf_config", Type: "vsf_config_t"},
			{Name: "vsf_session", Type: "vsf_session_t"},
			{Name: "active_sessions", Type: "voidptr"}, // counter word
		},
		Annotations: ann,
		Main:        vsftpdMain(banner),
	}
}

// VsftpdSpec returns the vsftpd evaluation spec.
func VsftpdSpec() *Spec {
	return &Spec{
		Name:        "vsftpd",
		Port:        VsftpdPort,
		NumVersions: 6, // base + 5 updates (v1.1.0 - v2.0.2)
		Version:     VsftpdVersion,
		Paper: Table1Row{
			SL: 0, LL: 5, QP: 5, Per: 1, Vol: 4,
			Updates: 5, ChangedLOC: 5830, Fun: 305, Var: 121, Typ: 35,
			AnnLOC: 82, STLOC: 21,
		},
	}
}

func vsftpdMain(banner string) func(*program.Thread) error {
	return func(t *program.Thread) error {
		t.Enter("main")
		defer t.Exit()
		var lfd int
		err := t.Call("vsf_standalone_main", func() error {
			p := t.Proc()
			cfd, err := t.Open("/etc/vsftpd.conf")
			if err != nil {
				return err
			}
			if _, err := t.ReadFile(cfd, 4096); err != nil {
				return err
			}
			if err := t.CloseFD(cfd); err != nil {
				return err
			}
			conf := p.MustGlobal("vsf_config")
			if err := p.WriteField(conf, "local_enable", 1); err != nil {
				return err
			}
			// Parse the user database into a page-spanning startup blob;
			// every version's own startup rebuilds it, so the dirty
			// filter exempts it from state transfer.
			userdb, err := t.MallocBytes(16384)
			if err != nil {
				return err
			}
			if err := p.WriteBytes(userdb, 0, []byte("alice:x:1000\nbob:x:1001\ncarol:x:1002\n")); err != nil {
				return err
			}
			if err := p.SetPtr(conf, "userdb", userdb); err != nil {
				return err
			}
			lfd, err = t.Socket()
			if err != nil {
				return err
			}
			if err := t.Bind(lfd, VsftpdPort); err != nil {
				return err
			}
			if err := t.Listen(lfd, 128); err != nil {
				return err
			}
			return p.WriteField(conf, "listen_fd", uint64(lfd))
		})
		if err != nil {
			return err
		}
		return t.Loop("vsf_standalone_accept_loop", func() error {
			cfd, _, err := t.AcceptQP("accept@vsf_standalone", lfd)
			if err != nil {
				if errors.Is(err, program.ErrStopped) {
					return program.ErrLoopExit
				}
				return err
			}
			p := t.Proc()
			n, _ := p.ReadField(p.MustGlobal("active_sessions"), "")
			if err := p.WriteField(p.MustGlobal("active_sessions"), "", n+1); err != nil {
				return err
			}
			// One handler process per session.
			_, err = t.ForkProc("ftp_cmd", vsftpdSessionMain(banner, cfd, true))
			if err != nil {
				return err
			}
			// The master closes its copy of the connection.
			return t.CloseFD(cfd)
		})
	}
}

// vsftpdSessionMain runs a session handler process. fresh distinguishes a
// real new session (send greeting) from a reinitialization-handler
// reconstruction (state arrives via transfer; no greeting).
func vsftpdSessionMain(banner string, cfd int, fresh bool) func(*program.Thread) error {
	return func(t *program.Thread) error {
		t.Enter("vsf_session_main")
		defer t.Exit()
		t.SetNote(cfd)
		p := t.Proc()
		sess := p.MustGlobal("vsf_session")
		if fresh {
			if err := p.WriteField(sess, "cmd_fd", uint64(cfd)); err != nil {
				return err
			}
			if err := t.Write(cfd, []byte("220 "+banner)); err != nil && !errors.Is(err, kernel.ErrClosed) {
				return err
			}
		}
		// The privileged helper thread (volatile class ftp_priv).
		if _, err := t.SpawnThread("ftp_priv", vsftpdPrivMain); err != nil {
			return err
		}
		err := t.Loop("vsf_cmd_loop", func() error {
			return vsftpdHandleCommand(t, banner, cfd)
		})
		// Session over: the handler process exits.
		return err
	}
}

// vsftpdPrivMain is the privileged helper: it waits for privileged
// requests (chown, port binds) and exits when the session sets quit.
func vsftpdPrivMain(t *program.Thread) error {
	t.Enter("vsf_priv_parent_main")
	defer t.Exit()
	p := t.Proc()
	sess := p.MustGlobal("vsf_session")
	return t.Loop("vsf_priv_loop", func() error {
		err := t.CondQP("privwait@vsf_priv", func() (bool, error) {
			q, _ := p.ReadField(sess, "quit")
			return q != 0, nil
		})
		if err != nil && !errors.Is(err, program.ErrStopped) {
			return err
		}
		return program.ErrLoopExit // the session quit, or the instance stops
	})
}

func vsftpdHandleCommand(t *program.Thread, banner string, cfd int) error {
	p := t.Proc()
	sess := p.MustGlobal("vsf_session")
	if q, _ := p.ReadField(sess, "quit"); q != 0 {
		return program.ErrLoopExit
	}
	msg, err := t.ReadQP("read@vsf_cmd", cfd)
	if err != nil {
		if errors.Is(err, program.ErrStopped) {
			return program.ErrLoopExit
		}
		if errors.Is(err, kernel.ErrClosed) {
			_ = setQuit(p, sess)
			return program.ErrLoopExit
		}
		return err
	}
	n, _ := p.ReadField(sess, "cmd_count")
	if err := p.WriteField(sess, "cmd_count", n+1); err != nil {
		return err
	}
	// Record the command in a heap buffer referenced only from the
	// type-unsafe secret char array.
	buf, err := t.MallocBytes(uint64(len(msg)) + 1)
	if err != nil {
		return err
	}
	if err := p.WriteBytes(buf, 0, msg); err != nil {
		return err
	}
	if err := p.WriteWordAt(p.MustGlobal("vsf_session"),
		mustFieldOffset(sess.Type, "secret"), uint64(buf.Addr)); err != nil {
		return err
	}

	cmd := string(msg)
	reply := func(s string) error {
		if err := t.Write(cfd, []byte(s)); err != nil && !errors.Is(err, kernel.ErrClosed) {
			return err
		}
		return nil
	}
	switch {
	case strings.HasPrefix(cmd, "USER "):
		user := strings.TrimPrefix(cmd, "USER ")
		if len(user) > 15 {
			user = user[:15]
		}
		if err := p.WriteBytes(sess, mustFieldOffset(sess.Type, "user"), append([]byte(user), 0)); err != nil {
			return err
		}
		return reply("331 Please specify the password.")
	case strings.HasPrefix(cmd, "PASS "):
		if err := p.WriteField(sess, "authed", 1); err != nil {
			return err
		}
		return reply("230 Login successful.")
	case cmd == "SYST":
		return reply("215 UNIX Type: L8 (" + banner + ")")
	case cmd == "STAT":
		cnt, _ := p.ReadField(sess, "cmd_count")
		sent, _ := p.ReadField(sess, "bytes_sent")
		return reply(fmt.Sprintf("211 %s cmds=%d sent=%d", banner, cnt, sent))
	case cmd == "LIST":
		if a, _ := p.ReadField(sess, "authed"); a == 0 {
			return reply("530 Please login.")
		}
		return reply("150 readme.txt big.dat\r\n226 Directory send OK.")
	case cmd == "PASV":
		if a, _ := p.ReadField(sess, "authed"); a == 0 {
			return reply("530 Please login.")
		}
		port := vsftpdPasvPortBase + int(t.Proc().KProc().Pid())
		pfd, err := t.Socket()
		if err != nil {
			return err
		}
		if err := t.Bind(pfd, port); err != nil {
			return reply("425 Can't open passive connection.")
		}
		if err := t.Listen(pfd, 4); err != nil {
			return err
		}
		if err := p.WriteField(sess, "pasv_fd", uint64(pfd)); err != nil {
			return err
		}
		if _, err := t.SpawnThread("ftp_pasv", vsftpdPasvMain(pfd)); err != nil {
			return err
		}
		return reply(fmt.Sprintf("227 Entering Passive Mode (port %d).", port))
	case strings.HasPrefix(cmd, "RETR "):
		if a, _ := p.ReadField(sess, "authed"); a == 0 {
			return reply("530 Please login.")
		}
		if dfd, _ := p.ReadField(sess, "data_fd"); dfd == 0 {
			return reply("425 Use PASV first.")
		}
		path := "/srv/ftp/" + strings.TrimPrefix(cmd, "RETR ")
		if err := reply("150 Opening BINARY mode data connection."); err != nil {
			return err
		}
		if _, err := t.SpawnThread("ftp_data", vsftpdDataMain(path, 0, false)); err != nil {
			return err
		}
		return nil
	case cmd == "QUIT":
		if err := reply("221 Goodbye."); err != nil {
			return err
		}
		if err := setQuit(p, sess); err != nil {
			return err
		}
		_ = t.CloseFD(cfd)
		return program.ErrLoopExit
	default:
		return reply("500 Unknown command.")
	}
}

// vsftpdPasvMain accepts data connections on the passive listener.
func vsftpdPasvMain(pfd int) func(*program.Thread) error {
	return func(t *program.Thread) error {
		t.Enter("vsf_pasv_accept")
		defer t.Exit()
		t.SetNote(pfd)
		p := t.Proc()
		sess := p.MustGlobal("vsf_session")
		return t.Loop("vsf_pasv_loop", func() error {
			if q, _ := p.ReadField(sess, "quit"); q != 0 {
				return program.ErrLoopExit
			}
			dfd, _, err := t.AcceptQP("accept@vsf_pasv", pfd)
			if err != nil {
				if errors.Is(err, program.ErrStopped) {
					return program.ErrLoopExit
				}
				return err
			}
			return p.WriteField(sess, "data_fd", uint64(dfd))
		})
	}
}

// vsftpdDataMain streams a file over the data (or control) connection in
// acknowledged chunks; a transfer in flight across a live update resumes
// from the transferred bytes_sent offset. A reconstructed thread (live
// update in progress) parks at its quiescent point first, so the real
// transfer offset has arrived via state transfer before anything is sent.
func vsftpdDataMain(path string, fdOverride int, reconstructed bool) func(*program.Thread) error {
	return func(t *program.Thread) error {
		t.Enter("vsf_xfer_file")
		defer t.Exit()
		p := t.Proc()
		sess := p.MustGlobal("vsf_session")
		var fd int
		if reconstructed {
			fd = fdOverride
			if err := t.IdleQP("read@vsf_xfer"); err != nil {
				if errors.Is(err, program.ErrStopped) {
					return nil
				}
				return err
			}
		} else {
			fd64, _ := p.ReadField(sess, "data_fd")
			fd = int(fd64)
		}
		t.SetNote(fd)
		data, ok := t.Proc().Instance().Kernel().ReadFileDirect(path)
		if !ok {
			_ = t.Write(fd, []byte("550 no such file"))
			return nil
		}
		const chunk = 4096
		return t.Loop("vsf_xfer_loop", func() error {
			if q, _ := p.ReadField(sess, "quit"); q != 0 {
				return program.ErrLoopExit
			}
			sent, _ := p.ReadField(sess, "bytes_sent")
			if sent >= uint64(len(data)) {
				_ = t.Write(fd, []byte("226 Transfer complete."))
				return program.ErrLoopExit
			}
			end := sent + chunk
			if end > uint64(len(data)) {
				end = uint64(len(data))
			}
			if err := t.Write(fd, data[sent:end]); err != nil {
				if errors.Is(err, kernel.ErrClosed) {
					return program.ErrLoopExit
				}
				return err
			}
			if err := p.WriteField(sess, "bytes_sent", end); err != nil {
				return err
			}
			// Wait for the client's acknowledgement (throttled transfer):
			// the volatile ftp_data quiescent point.
			_, err := t.ReadQP("read@vsf_xfer", fd)
			if err != nil {
				if errors.Is(err, program.ErrStopped) || errors.Is(err, kernel.ErrClosed) {
					return program.ErrLoopExit
				}
				return err
			}
			return nil
		})
	}
}

// vsftpdReinitHandler restores the volatile quiescent states after
// restart: one re-forked handler process per live session (same pid, same
// creation key) with its threads respawned at their quiescent points.
func vsftpdReinitHandler(ri *program.ReinitInfo) error {
	threadsByKey := make(map[program.ProcKey][]program.ThreadInfo)
	for _, ti := range ri.OldThreads {
		threadsByKey[ti.Key] = append(threadsByKey[ti.Key], ti)
	}
	banner := "vsftpd " + ri.New.Version().Release
	return ri.New.RunHandler(func(t *program.Thread) error {
		for _, s := range ri.Sessions {
			if s.Class != "ftp_cmd" {
				continue
			}
			cfd := 0
			if len(s.ConnFDs) > 0 {
				cfd = s.ConnFDs[0]
			}
			for _, ti := range threadsByKey[s.Key] {
				if ti.Class == "ftp_cmd" {
					if fd, ok := ti.Note.(int); ok {
						cfd = fd
					}
				}
			}
			mainTID := 0
			for _, ti := range threadsByKey[s.Key] {
				if ti.Class == "ftp_cmd" {
					mainTID = ti.TID
				}
			}
			t.Proc().KProc().PinNextPid(kernel.Pid(s.Pid))
			threads := threadsByKey[s.Key]
			child, err := t.ForkProcWithKey(s.Key, "ftp_cmd", mainTID,
				vsftpdReconstructedSession(banner, cfd, threads))
			if err != nil {
				return fmt.Errorf("vsftpd reinit: session %v: %w", s.Key, err)
			}
			_ = child
		}
		return nil
	})
}

// vsftpdReconstructedSession is the session main used by the
// reinitialization handler: no greeting, and the volatile data/passive
// threads of the old session are respawned from the old thread census.
func vsftpdReconstructedSession(banner string, cfd int, old []program.ThreadInfo) func(*program.Thread) error {
	return func(t *program.Thread) error {
		t.Enter("vsf_session_main")
		defer t.Exit()
		t.SetNote(cfd)
		for _, ti := range old {
			switch ti.Class {
			case "ftp_pasv":
				if pfd, ok := ti.Note.(int); ok {
					t.Proc().KProc().PinNextPid(kernel.Pid(ti.TID))
					if _, err := t.SpawnThread("ftp_pasv", vsftpdPasvMain(pfd)); err != nil {
						return err
					}
				}
			case "ftp_data":
				dfd, _ := ti.Note.(int)
				t.Proc().KProc().PinNextPid(kernel.Pid(ti.TID))
				if _, err := t.SpawnThread("ftp_data",
					vsftpdDataMain("/srv/ftp/big.dat", dfd, true)); err != nil {
					return err
				}
			}
		}
		for _, ti := range old {
			if ti.Class == "ftp_priv" {
				t.Proc().KProc().PinNextPid(kernel.Pid(ti.TID))
			}
		}
		if _, err := t.SpawnThread("ftp_priv", vsftpdPrivMain); err != nil {
			return err
		}
		return t.Loop("vsf_cmd_loop", func() error {
			return vsftpdHandleCommand(t, banner, cfd)
		})
	}
}

// mustFieldOffset returns a field's byte offset and panics on unknown
// names (server code referencing its own declared types).
func mustFieldOffset(t *types.Type, name string) uint64 {
	f, ok := t.FieldByName(name)
	if !ok {
		panic(fmt.Sprintf("servers: no field %q in %s", name, t))
	}
	return f.Offset
}
