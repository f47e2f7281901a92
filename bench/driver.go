package main

import (
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/kernel"
	"repro/internal/workload"
)

// conn is one client connection to a model server. It builds request
// number seq, sends it, and checks that the reply answers exactly that
// request: the echo for httpd and sshd, and the per-session request
// counter the server keeps in its own memory for nginx, vsftpd and sshd
// — so a reply served from state that an update lost, duplicated or
// crossed with another session fails the check, not only a garbled one.
type conn struct {
	server string
	user   string // login and request tag; seeded for idle sessions
	sess   *workload.Session
	seq    int        // requests issued on this session so far
	pad    *rand.Rand // per-request path padding, 0..64 bytes
	buf    []byte

	// release, when set, must be named by every reply: the version the
	// client expects to be talking to. Set only while no update is in
	// flight.
	release string

	// roundTrip is the request/reply exchange; tests substitute a
	// stalled responder.
	roundTrip func(msg string) (string, error)
}

const padAlphabet = "abcdefghijklmnopqrstuvwxyz0123456789ABCDEFGHIJKLMNOPQRSTUVWXYZ01"

// dial opens an established session: keepalive registered (httpd), first
// request served (nginx), or logged in (vsftpd, sshd).
func dial(k *kernel.Kernel, server string, port int, user string, seed int64) (*conn, error) {
	c := &conn{server: server, user: user, pad: rand.New(rand.NewSource(seed))}
	var err error
	switch server {
	case "httpd":
		c.sess, err = workload.OpenKeepalive(k, port, false)
		c.roundTrip = func(m string) (string, error) { return workload.KeepaliveRequest(c.sess, m) }
	case "nginx":
		c.sess, err = workload.OpenKeepalive(k, port, true)
		c.roundTrip = func(m string) (string, error) { return workload.KeepaliveRequest(c.sess, m) }
	case "vsftpd":
		c.sess, err = workload.OpenFTP(k, port, user)
		c.roundTrip = func(m string) (string, error) { return workload.FTPCommand(c.sess, m) }
	case "sshd":
		c.sess, err = workload.OpenSSH(k, port, user, true)
		c.roundTrip = func(m string) (string, error) { return workload.SSHExec(c.sess, m) }
	default:
		err = fmt.Errorf("bench: unknown server %q", server)
	}
	if err != nil {
		return nil, err
	}
	return c, nil
}

func (c *conn) close() { c.sess.Close() }

// tag appends "<user>-<seq>-<padding>" to the request buffer.
func (c *conn) tag() {
	c.buf = append(c.buf, c.user...)
	c.buf = append(c.buf, '-')
	c.buf = strconv.AppendInt(c.buf, int64(c.seq), 10)
	c.buf = append(c.buf, '-')
	c.buf = append(c.buf, padAlphabet[:c.pad.Intn(len(padAlphabet)+1)]...)
}

// request issues the session's next request and reports whether the
// reply was the right one. An error (timeout, closed session) is a
// failed request too.
func (c *conn) request() bool {
	c.buf = c.buf[:0]
	switch c.server {
	case "httpd":
		c.buf = append(c.buf, "GET /"...)
		c.tag()
	case "nginx":
		c.buf = append(c.buf, "GET /"...)
		c.tag()
		c.buf = append(c.buf, " HTTP/1.1"...)
	case "vsftpd":
		c.buf = append(c.buf, "STAT"...)
	case "sshd":
		c.tag()
	}
	msg := string(c.buf)
	c.seq++
	resp, err := c.roundTrip(msg)
	return err == nil && c.answers(resp, msg) &&
		(c.release == "" || strings.Contains(resp, c.release+" "))
}

// answers checks resp against request msg, the session's c.seq-th.
func (c *conn) answers(resp, msg string) bool {
	switch c.server {
	case "httpd":
		return strings.HasPrefix(resp, "HTTP/1.1 200 OK Server: Apache/") &&
			strings.HasSuffix(resp, " ka-req="+msg)
	case "nginx":
		// Opening the session was its request 1.
		return strings.HasPrefix(resp, "HTTP/1.1 200 OK banner=nginx/") &&
			strings.Contains(resp, " req="+strconv.Itoa(c.seq+1)+" ") &&
			strings.HasSuffix(resp, "body=<html>hello from nginx</html>")
	case "vsftpd":
		// USER and PASS were the session's commands 1 and 2.
		return strings.HasPrefix(resp, "211 vsftpd ") &&
			strings.Contains(resp, " cmds="+strconv.Itoa(c.seq+2)+" ")
	case "sshd":
		// The tag is alphanumeric, so the server's %q only adds quotes.
		return strings.HasPrefix(resp, "OpenSSH_") &&
			strings.HasSuffix(resp, ` ran "`+msg+`" as `+c.user+" (req "+strconv.Itoa(c.seq)+")")
	}
	return false
}

// loadStats is what one load phase observed, per connection.
type loadStats struct {
	elapsed  time.Duration // common start to last reply
	requests []int         // issued, per connection
	failed   []int         // failed or wrong, per connection
	// latencyUs holds every request's latency in microseconds: round-trip
	// time in a closed loop, time from the intended send instant in a
	// paced one.
	latencyUs [][]float64
	// dueUs (paced only) is each request's intended send instant relative
	// to the phase start; lateUs the generator's lateness for the requests
	// it was free to send on time (the previous reply had arrived).
	dueUs  [][]float64
	lateUs [][]float64
}

func (s *loadStats) total() (requests, failed int) {
	for i := range s.requests {
		requests += s.requests[i]
		failed += s.failed[i]
	}
	return
}

// merged returns every connection's samples in one ascending slice.
func merged(perConn [][]float64) []float64 {
	var all []float64
	for _, l := range perConn {
		all = append(all, l...)
	}
	sort.Float64s(all)
	return all
}

func newLoadStats(conns int) *loadStats {
	return &loadStats{
		requests: make([]int, conns), failed: make([]int, conns),
		latencyUs: make([][]float64, conns), dueUs: make([][]float64, conns), lateUs: make([][]float64, conns),
	}
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// closedLoop issues exactly n requests on every connection, each sent
// the moment the previous reply arrives. A fixed count, not a fixed
// time: the state the server has accumulated when the loop returns does
// not depend on how fast the machine was.
func closedLoop(conns []*conn, n int) *loadStats {
	st := newLoadStats(len(conns))
	var wg sync.WaitGroup
	start := time.Now()
	for i, c := range conns {
		wg.Add(1)
		go func(i int, c *conn) {
			defer wg.Done()
			lat := make([]float64, 0, n)
			prev := time.Now()
			for j := 0; j < n; j++ {
				good := c.request()
				now := time.Now()
				lat = append(lat, us(now.Sub(prev)))
				prev = now
				st.requests[i]++
				if !good {
					st.failed[i]++
				}
			}
			st.latencyUs[i] = lat
		}(i, c)
	}
	wg.Wait()
	st.elapsed = time.Since(start)
	return st
}

// pacer drives the same connections open loop: each sends on a fixed
// schedule whatever the server does. A session carries one request at a
// time, so a request whose turn comes while the previous one is still
// outstanding goes out late — and its latency is still counted from the
// instant it was due, which charges a stall to every request the stall
// delayed rather than to the single one that happened to be in flight.
type pacer struct {
	start  time.Time
	period time.Duration
	stop   atomic.Bool
	wg     sync.WaitGroup
	st     *loadStats
}

// startPaced starts one sender per connection, each at one request per
// period, the connections staggered evenly across the period.
func startPaced(conns []*conn, period time.Duration) *pacer {
	p := &pacer{start: time.Now(), period: period, st: newLoadStats(len(conns))}
	for i, c := range conns {
		p.wg.Add(1)
		go p.run(i, c, period*time.Duration(i)/time.Duration(len(conns)))
	}
	return p
}

func (p *pacer) run(i int, c *conn, offset time.Duration) {
	defer p.wg.Done()
	prevDone := p.start
	for n := 0; ; n++ {
		due := p.start.Add(offset + time.Duration(n)*p.period)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		if p.stop.Load() {
			break
		}
		if !prevDone.After(due) {
			p.st.lateUs[i] = append(p.st.lateUs[i], us(time.Since(due)))
		}
		good := c.request()
		prevDone = time.Now()
		p.st.requests[i]++
		if !good {
			p.st.failed[i]++
		}
		p.st.dueUs[i] = append(p.st.dueUs[i], us(due.Sub(p.start)))
		p.st.latencyUs[i] = append(p.st.latencyUs[i], us(prevDone.Sub(due)))
	}
}

// since is the time elapsed on the pacer's clock, the time base of
// loadStats.dueUs.
func (p *pacer) since() time.Duration { return time.Since(p.start) }

// finish stops the senders after their current request and returns what
// they saw.
func (p *pacer) finish() *loadStats {
	p.stop.Store(true)
	p.wg.Wait()
	p.st.elapsed = time.Since(p.start)
	return p.st
}

// worstBetween returns the largest latency among the requests that were
// due in [from, to] on the pacer's clock: what the slowest client felt
// across that interval.
func (s *loadStats) worstBetween(from, to time.Duration) float64 {
	worst := 0.0
	for i := range s.dueUs {
		for j, due := range s.dueUs[i] {
			if due >= us(from) && due <= us(to) && s.latencyUs[i][j] > worst {
				worst = s.latencyUs[i][j]
			}
		}
	}
	return worst
}
