package workload

import (
	"fmt"
	"time"

	"repro/internal/kernel"
)

// BenchResult summarizes one benchmark run.
type BenchResult struct {
	Requests int
	Errors   int
	Elapsed  time.Duration
}

// Throughput returns requests per second.
func (r BenchResult) Throughput() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Requests) / r.Elapsed.Seconds()
}

// RunWebBench is the AB stand-in: issue `requests` HTTP requests for a
// small file over `concurrency` sequentially-reused connections (nginx
// keeps connections open; httpd handles each on a pool thread).
func RunWebBench(k *kernel.Kernel, port, requests, concurrency int, nginxStyle bool) (BenchResult, error) {
	if concurrency < 1 {
		concurrency = 1
	}
	start := time.Now()
	res := BenchResult{}
	errCh := make(chan error, concurrency)
	per := requests / concurrency
	for c := 0; c < concurrency; c++ {
		go func() {
			if nginxStyle {
				cc, err := k.Connect(port)
				if err != nil {
					errCh <- err
					return
				}
				defer cc.Close()
				for i := 0; i < per; i++ {
					if _, err := roundTrip(cc, "GET /index.html HTTP/1.1", rtTimeout); err != nil {
						errCh <- err
						return
					}
				}
				errCh <- nil
				return
			}
			// httpd: AB's default is one connection per request (no -k):
			// every request exercises accept, the worker queue and a pool
			// thread, and leaves its request record in the worker's
			// retained pools.
			for i := 0; i < per; i++ {
				cc, err := k.Connect(port)
				if err != nil {
					errCh <- err
					return
				}
				_, err = roundTrip(cc, "GET /index.html HTTP/1.1", rtTimeout)
				cc.Close()
				if err != nil {
					errCh <- err
					return
				}
			}
			errCh <- nil
		}()
	}
	for c := 0; c < concurrency; c++ {
		if err := <-errCh; err != nil {
			res.Errors++
		}
	}
	res.Requests = per * concurrency
	res.Elapsed = time.Since(start)
	if res.Errors > 0 {
		return res, fmt.Errorf("workload: web bench: %d client errors", res.Errors)
	}
	return res, nil
}

// RunFTPBench is the pyftpdlib stand-in: `users` clients each log in and
// issue `cmds` STAT commands (file metadata round-trips).
func RunFTPBench(k *kernel.Kernel, port, users, cmds int) (BenchResult, error) {
	start := time.Now()
	res := BenchResult{}
	errCh := make(chan error, users)
	for u := 0; u < users; u++ {
		u := u
		go func() {
			s, err := OpenFTP(k, port, fmt.Sprintf("user%d", u))
			if err != nil {
				errCh <- err
				return
			}
			defer func() {
				_, _ = FTPCommand(s, "QUIT")
				s.Close()
			}()
			for i := 0; i < cmds; i++ {
				if _, err := FTPCommand(s, "STAT"); err != nil {
					errCh <- err
					return
				}
			}
			errCh <- nil
		}()
	}
	for u := 0; u < users; u++ {
		if err := <-errCh; err != nil {
			res.Errors++
		}
	}
	res.Requests = users * cmds
	res.Elapsed = time.Since(start)
	if res.Errors > 0 {
		return res, fmt.Errorf("workload: ftp bench: %d client errors", res.Errors)
	}
	return res, nil
}

// RunSSHBench is the OpenSSH-test-suite stand-in: sequential sessions
// each authenticating and running `cmds` EXEC round-trips.
func RunSSHBench(k *kernel.Kernel, port, sessions, cmds int) (BenchResult, error) {
	start := time.Now()
	res := BenchResult{}
	for n := 0; n < sessions; n++ {
		s, err := OpenSSH(k, port, fmt.Sprintf("tester%d", n), true)
		if err != nil {
			res.Errors++
			continue
		}
		for i := 0; i < cmds; i++ {
			if _, err := SSHExec(s, "true"); err != nil {
				res.Errors++
				break
			}
		}
		_, _ = roundTrip(s.Conns[0], "EXIT", rtTimeout)
		s.Close()
	}
	res.Requests = sessions * cmds
	res.Elapsed = time.Since(start)
	if res.Errors > 0 {
		return res, fmt.Errorf("workload: ssh bench: %d errors", res.Errors)
	}
	return res, nil
}

// OpenSessions opens n live sessions with in-server state against the
// named server (the Figure 3 experiment's independent variable).
func OpenSessions(k *kernel.Kernel, server string, port, n int) ([]*Session, error) {
	out := make([]*Session, 0, n)
	for i := 0; i < n; i++ {
		var s *Session
		var err error
		switch server {
		case "httpd":
			s, err = OpenKeepalive(k, port, false)
			if err == nil {
				_, err = KeepaliveRequest(s, fmt.Sprintf("GET /page%d HTTP/1.1", i))
			}
		case "nginx":
			s, err = OpenKeepalive(k, port, true)
			if err == nil {
				_, err = KeepaliveRequest(s, fmt.Sprintf("GET /page%d HTTP/1.1", i))
			}
		case "vsftpd":
			s, err = OpenFTP(k, port, fmt.Sprintf("user%d", i))
			if err == nil {
				_, err = FTPCommand(s, "LIST")
			}
		case "sshd":
			s, err = OpenSSH(k, port, fmt.Sprintf("user%d", i), true)
			if err == nil {
				_, err = SSHExec(s, "uptime")
			}
		default:
			return out, fmt.Errorf("workload: unknown server %q", server)
		}
		if err != nil {
			for _, c := range out {
				c.Close()
			}
			return nil, fmt.Errorf("workload: session %d: %w", i, err)
		}
		out = append(out, s)
	}
	return out, nil
}

// ProbeSession sends a session OpenSessions opened against the named
// server the request that shows it is still served, and returns the reply.
func ProbeSession(server string, s *Session) (string, error) {
	switch server {
	case "httpd", "nginx":
		return KeepaliveRequest(s, "GET /after-update")
	case "vsftpd":
		return FTPCommand(s, "STAT")
	case "sshd":
		return SSHExec(s, "uptime")
	}
	return "", fmt.Errorf("workload: unknown server %q", server)
}

// CloseSessions closes every session.
func CloseSessions(ss []*Session) {
	for _, s := range ss {
		s.Close()
	}
}

// ProfileWorkload drives the execution-stalling profiling workload for the
// named server (§8: long-lived connections plus one large parallel
// transfer; for httpd also the CGI and streaming classes). It returns the
// open sessions; close them when profiling is done.
func ProfileWorkload(k *kernel.Kernel, server string, port int) ([]*Session, error) {
	var out []*Session
	fail := func(err error) ([]*Session, error) {
		CloseSessions(out)
		return nil, err
	}
	switch server {
	case "httpd":
		for i := 0; i < 3; i++ {
			s, err := OpenKeepalive(k, port, false)
			if err != nil {
				return fail(err)
			}
			out = append(out, s)
		}
		cgi, err := OpenCGI(k, port)
		if err != nil {
			return fail(err)
		}
		out = append(out, cgi)
		st, err := StartStream(k, port)
		if err != nil {
			return fail(err)
		}
		out = append(out, st)
	case "nginx":
		for i := 0; i < 3; i++ {
			s, err := OpenKeepalive(k, port, true)
			if err != nil {
				return fail(err)
			}
			out = append(out, s)
		}
	case "vsftpd":
		for i := 0; i < 2; i++ {
			s, err := OpenFTP(k, port, fmt.Sprintf("prof%d", i))
			if err != nil {
				return fail(err)
			}
			out = append(out, s)
		}
		if _, err := FTPCommand(out[0], "PASV"); err != nil {
			return fail(err)
		}
		if err := EnterPassive(k, out[1]); err != nil {
			return fail(err)
		}
		if err := StartRetrieve(out[1], "big.dat"); err != nil {
			return fail(err)
		}
	case "sshd":
		pre, err := OpenSSH(k, port, "preauth", false)
		if err != nil {
			return fail(err)
		}
		out = append(out, pre)
		post, err := OpenSSH(k, port, "postauth", true)
		if err != nil {
			return fail(err)
		}
		out = append(out, post)
	default:
		return nil, fmt.Errorf("workload: unknown server %q", server)
	}
	return out, nil
}
