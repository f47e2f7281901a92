package workload

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/canary"
	"repro/internal/kernel"
)

// waitGoroutines polls until the goroutine count drops back to at most
// want (GC/scheduler stragglers settle asynchronously).
func waitGoroutines(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		if runtime.NumGoroutine() <= want {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutine leak: %d live, want <= %d\n%s",
				runtime.NumGoroutine(), want, buf[:n])
		}
		runtime.Gosched()
		time.Sleep(time.Millisecond)
	}
}

func TestSustainedDriverServesAndValidates(t *testing.T) {
	for _, name := range []string{"httpd", "nginx", "vsftpd", "sshd"} {
		t.Run(name, func(t *testing.T) {
			e, k, spec := launchServer(t, name)
			defer e.Shutdown()
			s, err := StartSustained(k, SustainedOptions{
				Server: name, Port: spec.Port, Clients: 3,
			})
			if err != nil {
				t.Fatal(err)
			}
			deadline := time.Now().Add(5 * time.Second)
			for s.Snapshot().Requests == 0 && time.Now().Before(deadline) {
				time.Sleep(2 * time.Millisecond)
			}
			stats := s.Stop()
			if stats.Requests == 0 {
				t.Fatalf("no requests completed: %+v (last err %v)", stats, s.LastError())
			}
			if stats.Errors != 0 || stats.BadResponses != 0 {
				t.Fatalf("errors=%d bad=%d (last err %v)", stats.Errors, stats.BadResponses, s.LastError())
			}
			if stats.MeanLatency() <= 0 {
				t.Error("no latency recorded")
			}
			// Every completed request lands in the latency histogram, and
			// the p99 never undercuts the mean's bucket.
			if stats.Hist.Count() != int64(stats.Requests) {
				t.Fatalf("hist count %d != requests %d", stats.Hist.Count(), stats.Requests)
			}
			if stats.P99() <= 0 {
				t.Error("no p99 recorded")
			}
		})
	}
}

// TestSustainedIntervalAccountingExact drives the httpd client with an
// injected slow response and checks the per-interval accounting is exact:
// every completed request lands in exactly one bucket (totals match), no
// bucket outruns the run, and the injected stall leaves its bucket span
// empty of that client's completions.
func TestSustainedIntervalAccountingExact(t *testing.T) {
	e, k, spec := launchServer(t, "httpd")
	defer e.Shutdown()
	const interval = 20 * time.Millisecond
	stall := make(chan struct{})
	s, err := StartSustained(k, SustainedOptions{
		Server: "httpd", Port: spec.Port, Clients: 1, Interval: interval,
		BeforeRequest: func(client, seq int) {
			if seq == 3 {
				close(stall)
				// Slow response: the client sits idle across several
				// whole buckets before its next completion.
				time.Sleep(3 * interval)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	<-stall
	time.Sleep(4 * interval)
	stats := s.Stop()

	sumReq, sumErr := 0, 0
	var sumLat time.Duration
	var sumHist canary.Histogram
	for i, iv := range stats.Intervals {
		if iv.Index != i {
			t.Fatalf("bucket %d carries index %d", i, iv.Index)
		}
		sumReq += iv.Requests
		sumErr += iv.Errors
		sumLat += iv.Latency
		for b, c := range iv.Hist.Counts {
			sumHist.Counts[b] += c
		}
	}
	if sumReq != stats.Requests || sumErr != stats.Errors || sumLat != stats.Latency {
		t.Fatalf("interval totals (%d req, %d err, %v lat) != cumulative (%d, %d, %v)",
			sumReq, sumErr, sumLat, stats.Requests, stats.Errors, stats.Latency)
	}
	if sumHist != stats.Hist {
		t.Fatalf("interval histograms do not sum to the cumulative histogram")
	}
	if stats.Errors != 0 {
		t.Fatalf("unexpected errors: %d (last %v)", stats.Errors, s.LastError())
	}
	// The stall spans >= 3 whole buckets with a single closed-loop
	// client, so at least one interior bucket must be empty — slow
	// responses show up as holes, not smeared counts.
	empty := 0
	for _, iv := range stats.Intervals[:len(stats.Intervals)-1] {
		if iv.Requests == 0 {
			empty++
		}
	}
	if empty == 0 {
		t.Fatalf("injected 3-bucket stall left no empty interval: %+v", stats.Intervals)
	}
}

// TestSustainedStopDrains checks shutdown semantics: Stop returns only
// after every client goroutine exits (no leak), in-flight requests are
// completed not abandoned, and a second Stop is a no-op.
func TestSustainedStopDrains(t *testing.T) {
	e, k, spec := launchServer(t, "httpd")
	base := runtime.NumGoroutine()
	s, err := StartSustained(k, SustainedOptions{
		Server: "httpd", Port: spec.Port, Clients: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for s.Snapshot().Requests == 0 && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	stats := s.Stop()
	if again := s.Stop(); again.Requests < stats.Requests {
		t.Fatalf("second Stop went backwards: %d < %d", again.Requests, stats.Requests)
	}
	if stats.Requests == 0 {
		t.Fatalf("no requests before Stop (last err %v)", s.LastError())
	}
	// All driver goroutines must be gone before the server shuts down —
	// Stop drains sessions, it does not abandon them.
	waitGoroutines(t, base)
	e.Shutdown()
}

// TestSustainedDelta covers the measurement-window primitive.
func TestSustainedDelta(t *testing.T) {
	e, k, spec := launchServer(t, "vsftpd")
	defer e.Shutdown()
	s, err := StartSustained(k, SustainedOptions{Server: "vsftpd", Port: spec.Port, Clients: 2})
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(15 * time.Millisecond)
	before := s.Snapshot()
	// Poll rather than sleep a fixed window: under -race on one CPU the
	// serving path can stall past any fixed budget.
	var after SustainedStats
	deadline := time.Now().Add(5 * time.Second)
	for {
		time.Sleep(5 * time.Millisecond)
		after = s.Snapshot()
		if after.Requests > before.Requests || time.Now().After(deadline) {
			break
		}
	}
	s.Stop()
	d := after.Delta(before)
	if d.Requests != after.Requests-before.Requests || d.Requests <= 0 {
		t.Fatalf("delta requests = %d (before %d, after %d)", d.Requests, before.Requests, after.Requests)
	}
	sum := 0
	for _, iv := range d.Intervals {
		sum += iv.Requests
	}
	if sum != d.Requests {
		t.Fatalf("delta interval sum %d != %d", sum, d.Requests)
	}
	if d.Elapsed <= 0 || d.Throughput() <= 0 {
		t.Fatalf("delta elapsed %v throughput %v", d.Elapsed, d.Throughput())
	}
	// Every request completed inside the window is in the window's
	// histogram, and nothing from before it.
	if d.Hist.Count() != int64(d.Requests) {
		t.Fatalf("delta hist count %d != delta requests %d", d.Hist.Count(), d.Requests)
	}
}

// TestSustainedDeltaQuantiles is the regression test for the quantile
// fields in Delta: the pre-histogram Delta subtracted only counters, so a
// measurement window's p99 would silently include every sample since
// driver start. A fast window after a slow history must report the
// window's tail, not the history's.
func TestSustainedDeltaQuantiles(t *testing.T) {
	var before SustainedStats
	before.Requests = 100
	before.Elapsed = time.Second
	before.Latency = 100 * 50 * time.Millisecond
	before.Intervals = []IntervalStat{{Index: 0, Requests: 100, Latency: before.Latency}}
	for i := 0; i < 100; i++ {
		before.Hist.Observe(50 * time.Millisecond)
		before.Intervals[0].Hist.Observe(50 * time.Millisecond)
	}

	after := before
	after.Intervals = append([]IntervalStat(nil), before.Intervals...)
	after.Requests += 50
	after.Elapsed += 500 * time.Millisecond
	after.Latency += 50 * time.Millisecond
	after.Intervals = append(after.Intervals, IntervalStat{Index: 1, Requests: 50, Latency: 50 * time.Millisecond})
	for i := 0; i < 50; i++ {
		after.Hist.Observe(time.Millisecond)
		after.Intervals[1].Hist.Observe(time.Millisecond)
	}

	d := after.Delta(before)
	if d.Requests != 50 || d.Hist.Count() != 50 {
		t.Fatalf("delta requests=%d hist=%d", d.Requests, d.Hist.Count())
	}
	if p99 := d.P99(); p99 > 2*time.Millisecond {
		t.Fatalf("window p99 %v polluted by pre-window history", p99)
	}
	if cum := after.P99(); cum < 10*time.Millisecond {
		t.Fatalf("cumulative p99 %v lost its history", cum)
	}
	// Interval-level histograms subtract too: the carried-over interval 0
	// has no new samples and is dropped, interval 1 survives intact.
	if len(d.Intervals) != 1 || d.Intervals[0].Index != 1 {
		t.Fatalf("delta intervals %+v", d.Intervals)
	}
	if d.Intervals[0].Hist.Count() != 50 {
		t.Fatalf("delta interval hist count %d", d.Intervals[0].Hist.Count())
	}
	// A snapshot deltaed against itself leaves nothing (Delta operates on
	// dense driver snapshots).
	if z := after.Delta(after); z.Hist.Count() != 0 || len(z.Intervals) != 0 {
		t.Fatalf("self-delta not empty: %+v", z)
	}
}

// crossingServer is an httpd-style keepalive server in the simulated
// kernel that echoes each request, except that from load request
// crossFrom (counted from 0 after the keepalive open) on it answers with
// the echo of the request before: a protocol-valid reply to someone
// else's request.
func crossingServer(t *testing.T, k *kernel.Kernel, port, crossFrom int) {
	t.Helper()
	p := k.NewProc()
	lfd := p.Socket()
	if err := p.Bind(lfd, port); err != nil {
		t.Fatal(err)
	}
	if err := p.Listen(lfd, 16); err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	t.Cleanup(func() {
		close(stop)
		wg.Wait()
		p.Exit()
	})
	serve := func(fd int) {
		defer wg.Done()
		prev := ""
		for n := 0; ; n++ {
			msg, err := p.Read(fd, stop)
			if err != nil {
				return
			}
			echo := string(msg)
			if n > crossFrom {
				echo = prev
			}
			prev = string(msg)
			if p.Write(fd, []byte("HTTP/1.1 200 OK Server: crossing ka-req="+echo)) != nil {
				return
			}
		}
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			fd, _, err := p.Accept(lfd, stop)
			if err != nil {
				return
			}
			wg.Add(1)
			go serve(fd)
		}
	}()
}

// TestSustainedKeepsCrossedReplies: a reply that answers another request
// counts as a wrong response, and the first few are kept with the client,
// the sequence number, the echo it wanted and the reply it got.
func TestSustainedKeepsCrossedReplies(t *testing.T) {
	k := kernel.New()
	const port, crossFrom = 9091, 3
	crossingServer(t, k, port, crossFrom)
	s, err := StartSustained(k, SustainedOptions{Server: "httpd", Port: port, Clients: 1})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for s.Snapshot().BadResponses < 2*maxBadReplies && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	t0 := time.Now()
	st := s.Stop()
	if st.BadResponses < 2*maxBadReplies || st.Requests != st.BadResponses+crossFrom {
		t.Fatalf("%d requests, %d wrong: want every request from seq %d on wrong (last err %v)", st.Requests, st.BadResponses, crossFrom, s.LastError())
	}
	if len(st.Bad) != maxBadReplies {
		t.Fatalf("kept %d wrong replies, want the first %d", len(st.Bad), maxBadReplies)
	}
	for i, b := range st.Bad {
		seq := crossFrom + i
		want := fmt.Sprintf("ka-req=GET /load-0-%d", seq)
		got := fmt.Sprintf("HTTP/1.1 200 OK Server: crossing ka-req=GET /load-0-%d", seq-1)
		if b.Client != 0 || b.Seq != seq || b.Want != want || b.Reply != got || b.At.IsZero() || b.At.After(t0) {
			t.Errorf("wrong reply %d = %+v, want client 0 seq %d, want %q, reply %q", i, b, seq, want, got)
		}
	}
	if d := st.Delta(SustainedStats{Bad: st.Bad[:1]}); len(d.Bad) != maxBadReplies-1 || d.Bad[0] != st.Bad[1] {
		t.Errorf("Delta kept %+v, want the wrong replies after the earlier snapshot's", d.Bad)
	}
}
