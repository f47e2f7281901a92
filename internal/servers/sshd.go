package servers

import (
	"errors"
	"fmt"
	"strings"

	"repro/internal/kernel"
	"repro/internal/mem"
	"repro/internal/program"
	"repro/internal/types"
)

// The OpenSSH daemon model: one master process accepting connections and
// forking one handler process per session. Startup daemonizes and exec()s
// two helper programs (key regeneration, audit setup) — the three
// short-lived thread classes of Table 1. Long-lived classes: ssh_master
// (persistent accept quiescent point), ssh_auth (volatile: pre- and
// post-auth monitor loop) and ssh_session (volatile: the channel serving
// loop) — 1 persistent + 2 volatile quiescent points.
//
// sshd links against a crypto library whose opaque state the program
// points into (the program-pointers-into-library-state rows of Table 2),
// and keeps key material in char buffers that hide pointers from precise
// tracing (the ~56 likely pointers).

func sshdTypes(i int) *types.Registry {
	reg := types.NewRegistry()
	sessFields := []types.Field{
		{Name: "conn_fd", Type: types.Scalar(types.KindInt64)},
		{Name: "authed", Type: types.Scalar(types.KindInt64)},
		{Name: "quit", Type: types.Scalar(types.KindInt64)},
		{Name: "requests", Type: types.Scalar(types.KindInt64)},
		{Name: "user", Type: types.ArrayOf(16, types.Scalar(types.KindUint8))},
		// Key material buffers hiding pointers (type-unsafe idioms):
		// each holds a pointer to a heap-allocated key blob.
		{Name: "kex_buf", Type: types.ArrayOf(32, types.Scalar(types.KindUint8))},
		{Name: "mac_buf", Type: types.ArrayOf(32, types.Scalar(types.KindUint8))},
	}
	for g := 1; g <= i; g++ {
		sessFields = append(sessFields, types.Field{
			Name: fmt.Sprintf("sess_ext%d", g), Type: types.Scalar(types.KindInt64)})
	}
	reg.Define(types.StructOf("ssh_session_t", sessFields...))
	reg.Define(types.StructOf("sshd_options_t",
		types.Field{Name: "port", Type: types.Scalar(types.KindInt64)},
		types.Field{Name: "permit_root", Type: types.Scalar(types.KindInt64)},
		types.Field{Name: "listen_fd", Type: types.Scalar(types.KindInt64)},
		// A genuine program pointer into shared-library state (the
		// crypto context lives inside libcrypto's data).
		types.Field{Name: "crypto_ctx", Type: types.PointerTo(nil)},
		// The DH moduli table loaded at startup (clean afterwards).
		types.Field{Name: "moduli", Type: types.PointerTo(nil)},
	))
	reg.Define(&types.Type{Name: "voidptr", Kind: types.KindPtr,
		Size: types.WordSize, Align: types.WordSize})
	return reg
}

// SshdVersion builds release i of the sshd model.
func SshdVersion(i int) *program.Version {
	banner := "OpenSSH_" + release("3.5p1", i)
	ann := program.NewAnnotations()
	// Volatile quiescent points: 49 LOC in the paper.
	ann.AddReinitHandler(49, sshdReinitHandler)
	// The session struct hides key-material pointers in char buffers;
	// updates that grow it need a state-transfer handler (part of the
	// paper's 135 sshd ST LOC).
	ann.AddObjHandler("ssh_session", 30, fieldwiseCopyHandler)

	return &program.Version{
		Program: "sshd",
		Release: release("3.5p1", i),
		Seq:     i,
		Types:   sshdTypes(i),
		Globals: []program.GlobalSpec{
			{Name: "sshd_options", Type: "sshd_options_t"},
			{Name: "ssh_session", Type: "ssh_session_t"},
		},
		Libs: []program.LibSpec{
			{Name: "libcrypto", StateSize: 8192},
			{Name: "libutil", StateSize: 2048},
		},
		Annotations: ann,
		Main:        sshdMain(banner),
	}
}

// SshdSpec returns the sshd evaluation spec.
func SshdSpec() *Spec {
	return &Spec{
		Name:        "sshd",
		Port:        SshdPort,
		NumVersions: 6, // base + 5 updates (v3.5 - v3.8)
		Version:     SshdVersion,
		Paper: Table1Row{
			SL: 3, LL: 3, QP: 3, Per: 1, Vol: 2,
			Updates: 5, ChangedLOC: 14370, Fun: 894, Var: 84, Typ: 33,
			AnnLOC: 49, STLOC: 135,
		},
	}
}

func sshdMain(banner string) func(*program.Thread) error {
	return func(t *program.Thread) error {
		t.Enter("main")
		defer t.Exit()
		if err := t.Daemonize(); err != nil {
			return err
		}
		if _, err := t.SpawnThread("sshd-daemonizer", func(*program.Thread) error {
			return nil
		}); err != nil {
			return err
		}
		// exec()ed helper programs: two more short-lived classes.
		if err := t.Exec("sshd-keygen", func(h *program.Thread) error {
			return nil // regenerates the ephemeral server key and exits
		}); err != nil {
			return err
		}
		if err := t.Exec("sshd-audit", func(h *program.Thread) error {
			return nil // records the audit session and exits
		}); err != nil {
			return err
		}

		var lfd int
		err := t.Call("sshd_main_setup", func() error {
			p := t.Proc()
			cfd, err := t.Open("/etc/ssh/sshd_config")
			if err != nil {
				return err
			}
			if _, err := t.ReadFile(cfd, 4096); err != nil {
				return err
			}
			if err := t.CloseFD(cfd); err != nil {
				return err
			}
			kfd, err := t.Open("/etc/ssh/host_key")
			if err != nil {
				return err
			}
			if _, err := t.ReadFile(kfd, 4096); err != nil {
				return err
			}
			if err := t.CloseFD(kfd); err != nil {
				return err
			}
			opts := p.MustGlobal("sshd_options")
			if err := p.WriteField(opts, "port", SshdPort); err != nil {
				return err
			}
			moduli, err := t.MallocBytes(16384)
			if err != nil {
				return err
			}
			if err := p.WriteBytes(moduli, 0, []byte("dh-group14 prime material")); err != nil {
				return err
			}
			if err := p.SetPtr(opts, "moduli", moduli); err != nil {
				return err
			}
			// Point the crypto context into libcrypto's state blob.
			if lib, ok := p.Index().At(program.LibBase); ok {
				if err := p.WriteField(opts, "crypto_ctx", uint64(lib.Addr)+512); err != nil {
					return err
				}
			}
			lfd, err = t.Socket()
			if err != nil {
				return err
			}
			if err := t.Bind(lfd, SshdPort); err != nil {
				return err
			}
			if err := t.Listen(lfd, 128); err != nil {
				return err
			}
			return p.WriteField(opts, "listen_fd", uint64(lfd))
		})
		if err != nil {
			return err
		}
		return t.Loop("server_accept_loop", func() error {
			cfd, _, err := t.AcceptQP("accept@sshd_server", lfd)
			if err != nil {
				if errors.Is(err, program.ErrStopped) {
					return program.ErrLoopExit
				}
				return err
			}
			_, err = t.ForkProc("ssh_auth", sshdSessionMain(banner, cfd, true))
			if err != nil {
				return err
			}
			return t.CloseFD(cfd)
		})
	}
}

// sshdSessionMain runs one session handler process: the ssh_auth thread
// performs version exchange and authentication, then spawns the
// ssh_session channel thread and stays alive as the rekey monitor.
func sshdSessionMain(banner string, cfd int, fresh bool) func(*program.Thread) error {
	return func(t *program.Thread) error {
		t.Enter("sshd_session")
		defer t.Exit()
		t.SetNote(cfd)
		p := t.Proc()
		sess := p.MustGlobal("ssh_session")
		if fresh {
			if err := p.WriteField(sess, "conn_fd", uint64(cfd)); err != nil {
				return err
			}
			if err := t.Write(cfd, []byte("SSH-2.0-"+banner)); err != nil && !errors.Is(err, kernel.ErrClosed) {
				return err
			}
		}
		// Authentication phase: read until AUTH succeeds.
		err := t.Loop("sshd_auth_loop", func() error {
			if a, _ := p.ReadField(sess, "authed"); a != 0 {
				return program.ErrLoopExit
			}
			if q, _ := p.ReadField(sess, "quit"); q != 0 {
				return program.ErrLoopExit
			}
			msg, err := t.ReadQP("read@sshd_auth", cfd)
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
			return sshdHandleAuth(t, cfd, string(msg))
		})
		if err != nil {
			return err
		}
		if q, _ := p.ReadField(sess, "quit"); q != 0 {
			return nil
		}
		if a, _ := p.ReadField(sess, "authed"); a != 0 {
			// Post-auth: hand the channel to the session thread; this
			// thread becomes the rekey monitor.
			if _, err := t.SpawnThread("ssh_session", sshdChannelMain(banner, cfd, false)); err != nil {
				return err
			}
		}
		return sshdMonitor(t, sess)
	}
}

// sshdMonitor is the post-auth rekey monitor: it waits until the session
// sets quit.
func sshdMonitor(t *program.Thread, sess *mem.Object) error {
	p := t.Proc()
	return t.Loop("sshd_rekey_loop", func() error {
		err := t.CondQP("rekey@sshd_monitor", func() (bool, error) {
			q, _ := p.ReadField(sess, "quit")
			return q != 0, nil
		})
		if err != nil && !errors.Is(err, program.ErrStopped) {
			return err
		}
		return program.ErrLoopExit // the session quit, or the instance stops
	})
}

func sshdHandleAuth(t *program.Thread, cfd int, msg string) error {
	p := t.Proc()
	sess := p.MustGlobal("ssh_session")
	reply := func(s string) error {
		if err := t.Write(cfd, []byte(s)); err != nil && !errors.Is(err, kernel.ErrClosed) {
			return err
		}
		return nil
	}
	switch {
	case strings.HasPrefix(msg, "SSH-2.0-"):
		// Client hello: derive key material into heap blobs referenced
		// only from char buffers (hidden pointers).
		kex, err := t.MallocBytes(64)
		if err != nil {
			return err
		}
		if err := p.WriteBytes(kex, 0, []byte("kex-derived-key-material")); err != nil {
			return err
		}
		if err := p.WriteWordAt(sess, mustFieldOffset(sess.Type, "kex_buf"), uint64(kex.Addr)); err != nil {
			return err
		}
		mac, err := t.MallocBytes(64)
		if err != nil {
			return err
		}
		if err := p.WriteWordAt(sess, mustFieldOffset(sess.Type, "mac_buf"), uint64(mac.Addr)); err != nil {
			return err
		}
		return reply("KEXINIT ok")
	case strings.HasPrefix(msg, "AUTH "):
		parts := strings.Fields(msg)
		if len(parts) != 3 || parts[2] != "hunter2" {
			return reply("AUTH_FAIL")
		}
		user := parts[1]
		if len(user) > 15 {
			user = user[:15]
		}
		if err := p.WriteBytes(sess, mustFieldOffset(sess.Type, "user"), append([]byte(user), 0)); err != nil {
			return err
		}
		if err := p.WriteField(sess, "authed", 1); err != nil {
			return err
		}
		return reply("AUTH_OK")
	default:
		return reply("PROTO_ERROR")
	}
}

// sshdChannelMain serves post-auth channel requests (EXEC commands).
func sshdChannelMain(banner string, cfd int, reconstructed bool) func(*program.Thread) error {
	return func(t *program.Thread) error {
		t.Enter("sshd_channel")
		defer t.Exit()
		t.SetNote(cfd)
		p := t.Proc()
		sess := p.MustGlobal("ssh_session")
		if reconstructed {
			if err := t.IdleQP("read@sshd_channel"); err != nil {
				if errors.Is(err, program.ErrStopped) {
					return nil
				}
				return err
			}
		}
		return t.Loop("sshd_channel_loop", func() error {
			if q, _ := p.ReadField(sess, "quit"); q != 0 {
				return program.ErrLoopExit
			}
			msg, err := t.ReadQP("read@sshd_channel", cfd)
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
			cmd := string(msg)
			switch {
			case strings.HasPrefix(cmd, "EXEC "):
				n, _ := p.ReadField(sess, "requests")
				if err := p.WriteField(sess, "requests", n+1); err != nil {
					return err
				}
				user, _ := p.ReadBytes(sess, mustFieldOffset(sess.Type, "user"), 16)
				uname := strings.TrimRight(string(user), "\x00")
				out := fmt.Sprintf("%s ran %q as %s (req %d)", banner,
					strings.TrimPrefix(cmd, "EXEC "), uname, n+1)
				if err := t.Write(cfd, []byte(out)); err != nil && !errors.Is(err, kernel.ErrClosed) {
					return err
				}
				return nil
			case cmd == "EXIT":
				if err := setQuit(p, sess); err != nil {
					return err
				}
				_ = t.Write(cfd, []byte("bye"))
				_ = t.CloseFD(cfd)
				return program.ErrLoopExit
			default:
				if err := t.Write(cfd, []byte("unknown channel request")); err != nil && !errors.Is(err, kernel.ErrClosed) {
					return err
				}
				return nil
			}
		})
	}
}

// sshdReinitHandler restores the per-session processes and their volatile
// threads (the paper's 49-LOC OpenSSH annotation).
func sshdReinitHandler(ri *program.ReinitInfo) error {
	threadsByKey := make(map[program.ProcKey][]program.ThreadInfo)
	for _, ti := range ri.OldThreads {
		threadsByKey[ti.Key] = append(threadsByKey[ti.Key], ti)
	}
	banner := "OpenSSH_" + ri.New.Version().Release
	return ri.New.RunHandler(func(t *program.Thread) error {
		for _, s := range ri.Sessions {
			if s.Class != "ssh_auth" {
				continue
			}
			cfd := 0
			if len(s.ConnFDs) > 0 {
				cfd = s.ConnFDs[0]
			}
			for _, ti := range threadsByKey[s.Key] {
				if ti.Class == "ssh_auth" {
					if fd, ok := ti.Note.(int); ok {
						cfd = fd
					}
				}
			}
			mainTID := 0
			for _, ti := range threadsByKey[s.Key] {
				if ti.Class == "ssh_auth" {
					mainTID = ti.TID
				}
			}
			t.Proc().KProc().PinNextPid(kernel.Pid(s.Pid))
			_, err := t.ForkProcWithKey(s.Key, "ssh_auth", mainTID,
				sshdReconstructedSession(banner, cfd, threadsByKey[s.Key]))
			if err != nil {
				return fmt.Errorf("sshd reinit: session %v: %w", s.Key, err)
			}
		}
		return nil
	})
}

// sshdReconstructedSession rebuilds a session process during live update:
// the auth/monitor thread parks at its loop and the channel thread (if
// the old session had one) is respawned with its fd.
func sshdReconstructedSession(banner string, cfd int, old []program.ThreadInfo) func(*program.Thread) error {
	return func(t *program.Thread) error {
		t.Enter("sshd_session")
		defer t.Exit()
		t.SetNote(cfd)
		p := t.Proc()
		sess := p.MustGlobal("ssh_session")
		for _, ti := range old {
			if ti.Class != "ssh_session" {
				continue
			}
			fd, _ := ti.Note.(int)
			t.Proc().KProc().PinNextPid(kernel.Pid(ti.TID))
			if _, err := t.SpawnThread("ssh_session", sshdChannelMain(banner, fd, true)); err != nil {
				return err
			}
		}
		// Park first so transferred state decides which phase we are in.
		if err := t.IdleQP("read@sshd_auth"); err != nil {
			if errors.Is(err, program.ErrStopped) {
				return nil
			}
			return err
		}
		// After resume: still in auth phase if not authed.
		err := t.Loop("sshd_auth_loop", func() error {
			if a, _ := p.ReadField(sess, "authed"); a != 0 {
				return program.ErrLoopExit
			}
			if q, _ := p.ReadField(sess, "quit"); q != 0 {
				return program.ErrLoopExit
			}
			msg, err := t.ReadQP("read@sshd_auth", cfd)
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
			return sshdHandleAuth(t, cfd, string(msg))
		})
		if err != nil {
			return err
		}
		return sshdMonitor(t, sess)
	}
}
