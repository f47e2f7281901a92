package main

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// responder stands in for a server: it echoes as httpd's keepalive
// handler does, holds every request that arrives while it is stalled
// until the stall ends, and can be told to answer one request wrongly.
type responder struct {
	mu       sync.Mutex
	stallEnd time.Time
	served   atomic.Int64
	garble   atomic.Int64 // answer this request (1-based) with the wrong echo
}

func (r *responder) stall(d time.Duration) {
	r.mu.Lock()
	r.stallEnd = time.Now().Add(d)
	r.mu.Unlock()
}

func (r *responder) roundTrip(msg string) (string, error) {
	r.mu.Lock()
	end := r.stallEnd
	r.mu.Unlock()
	if d := time.Until(end); d > 0 {
		time.Sleep(d)
	}
	if r.served.Add(1) == r.garble.Load() {
		msg = "GET /somebody-else"
	}
	return "HTTP/1.1 200 OK Server: Apache/test ka-req=" + msg, nil
}

func fakeConns(n int) ([]*conn, []*responder) {
	conns, rs := make([]*conn, n), make([]*responder, n)
	for i := range conns {
		rs[i] = &responder{}
		conns[i] = &conn{server: "httpd", user: "load", pad: rand.New(rand.NewSource(int64(i))), roundTrip: rs[i].roundTrip}
	}
	return conns, rs
}

func TestClosedLoopIssuesExactlyNPerConnection(t *testing.T) {
	conns, rs := fakeConns(2)
	rs[1].garble.Store(7)
	st := closedLoop(conns, 500)
	for i := range conns {
		if st.requests[i] != 500 || len(st.latencyUs[i]) != 500 || rs[i].served.Load() != 500 || conns[i].seq != 500 {
			t.Errorf("conn %d: issued %d, timed %d, served %d, seq %d; want 500 each",
				i, st.requests[i], len(st.latencyUs[i]), rs[i].served.Load(), conns[i].seq)
		}
	}
	if st.failed[0] != 0 || st.failed[1] != 1 {
		t.Errorf("failed = %v, want the one garbled reply on connection 1 and nothing else", st.failed)
	}
}

// A stall must be charged to every request that was due while it lasted,
// each from its own intended send time — not to the one request that
// happened to be in flight, which is what a closed loop (or an open loop
// that times from the actual send) would report.
func TestPacedLoopChargesAStallToEveryRequestDueDuringIt(t *testing.T) {
	const (
		period = time.Millisecond
		stall  = 100 * time.Millisecond
	)
	conns, rs := fakeConns(2)
	p := startPaced(conns, period)
	time.Sleep(30 * time.Millisecond)
	from := p.since()
	for _, r := range rs {
		r.stall(stall)
	}
	time.Sleep(stall)
	to := p.since()
	time.Sleep(50 * time.Millisecond)
	st := p.finish()

	for i := range conns {
		n := st.requests[i]
		if n != len(st.latencyUs[i]) || n != len(st.dueUs[i]) || int64(n) != rs[i].served.Load() {
			t.Fatalf("conn %d: issued %d, timed %d, scheduled %d, served %d", i, n, len(st.latencyUs[i]), len(st.dueUs[i]), rs[i].served.Load())
		}
		// The schedule has no holes: slot k was due at offset + k*period,
		// stall or no stall.
		offset := us(period) * float64(i) / float64(len(conns))
		for k, due := range st.dueUs[i] {
			if want := offset + float64(k)*us(period); due != want {
				t.Fatalf("conn %d slot %d due at %v us, want %v", i, k, due, want)
			}
		}
		// About stall/period requests were due during the stall; each
		// waited for what was left of it, so half of them waited at least
		// half of it. (A loaded machine only stretches the waits.)
		charged := 0
		for k, due := range st.dueUs[i] {
			if due >= us(from) && due <= us(to) && st.latencyUs[i][k] >= us(stall)/2 {
				charged++
			}
		}
		if want := int(stall/period) / 3; charged < want {
			t.Errorf("conn %d: %d requests charged with at least half the stall, want at least %d", i, charged, want)
		}
		if st.failed[i] != 0 {
			t.Errorf("conn %d: %d failed", i, st.failed[i])
		}
	}
	if worst := st.worstBetween(from-period, to); worst < 0.9*us(stall) {
		t.Errorf("worst latency across the stall %v us, want about %v", worst, us(stall))
	}
	// Requests due before the stall were not charged with it. (The median,
	// not the worst: a loaded machine may hiccup on its own.)
	var before []float64
	for i := range conns {
		for k, due := range st.dueUs[i] {
			if due < us(from-5*period) {
				before = append(before, st.latencyUs[i][k])
			}
		}
	}
	if m := median(before); len(before) == 0 || m > us(stall)/4 {
		t.Errorf("median latency before the stall %v us over %d requests: the stall leaked backwards", m, len(before))
	}
	// Lateness is the generator's own: requests delayed by the stall are
	// not counted against it.
	if late := merged(st.lateUs); len(late) == 0 || percentile(late, 50) > us(stall)/4 {
		t.Errorf("generator lateness p50 %v us over %d samples", percentile(late, 50), len(late))
	}
}

func TestRequestChecksTheRelease(t *testing.T) {
	conns, _ := fakeConns(1)
	c := conns[0]
	if !c.request() {
		t.Fatal("plain request failed")
	}
	c.release = "test"
	if !c.request() {
		t.Error("reply names Apache/test, release check failed")
	}
	c.release = "test+u1"
	if c.request() {
		t.Error("reply from Apache/test passed as release test+u1")
	}
}
