package servers

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/leakcheck"
	"repro/internal/workload"
)

// TestClosedSessionsExit: a vsftpd or sshd session that ends — by the
// protocol's goodbye or by the peer closing — takes its handler process
// and every thread of it down with it. The session's threads that wait
// for the quit flag (vsftpd's privileged helper, sshd's rekey monitor)
// wake on the Notify that sets it; nothing polls for it.
func TestClosedSessionsExit(t *testing.T) {
	say := func(msg string) func(*workload.Session) error {
		return func(s *workload.Session) error {
			cc := s.Conns[0]
			if err := cc.Send([]byte(msg)); err != nil {
				return err
			}
			if _, err := cc.Recv(5 * time.Second); err != nil {
				return fmt.Errorf("%s: %w", msg, err)
			}
			return nil
		}
	}
	hangUp := func(*workload.Session) error { return nil }
	ftp := func(k *kernel.Kernel) (*workload.Session, error) {
		return workload.OpenFTP(k, VsftpdPort, "quitter")
	}
	ssh := func(authed bool) func(k *kernel.Kernel) (*workload.Session, error) {
		return func(k *kernel.Kernel) (*workload.Session, error) {
			s, err := workload.OpenSSH(k, SshdPort, "quitter", authed)
			if err == nil && authed {
				_, err = workload.SSHExec(s, "uptime")
			}
			return s, err
		}
	}
	for _, tc := range []struct {
		name string
		spec *Spec
		open func(*kernel.Kernel) (*workload.Session, error)
		end  func(*workload.Session) error // then the client closes
	}{
		{"vsftpd-quit", VsftpdSpec(), ftp, say("QUIT")},
		{"vsftpd-peer-close", VsftpdSpec(), ftp, hangUp},
		{"sshd-exit", SshdSpec(), ssh(true), say("EXIT")},
		{"sshd-peer-close", SshdSpec(), ssh(true), hangUp},
		{"sshd-preauth-peer-close", SshdSpec(), ssh(false), hangUp},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e, k := launch(t, tc.spec, core.Options{})
			defer e.Shutdown()
			inst := e.Current()
			procs, threads := len(inst.Procs()), len(inst.ThreadsInfo())
			g0 := leakcheck.Goroutines()

			s, err := tc.open(k)
			if err != nil {
				t.Fatal(err)
			}
			if n := len(inst.Procs()); n != procs+1 {
				t.Fatalf("%d processes with the session open, want %d", n, procs+1)
			}
			if err := tc.end(s); err != nil {
				t.Fatal(err)
			}
			s.Close()

			for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
				p, th := len(inst.Procs()), len(inst.ThreadsInfo())
				if p == procs && th == threads {
					break
				}
				if time.Now().After(deadline) {
					t.Fatalf("after the session closed: %d processes, %d threads; want %d, %d (threads %v)",
						p, th, procs, threads, inst.ThreadsInfo())
				}
			}
			if err := leakcheck.CheckGoroutines(g0, 5*time.Second); err != nil {
				t.Error(err)
			}
		})
	}
}
