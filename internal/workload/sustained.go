package workload

import (
	"fmt"
	"strings"
	"sync"
	"time"

	"repro/internal/canary"
	"repro/internal/kernel"
	"repro/internal/obs"
)

// SustainedOptions configures a sustained-rate driver.
type SustainedOptions struct {
	// Server selects the protocol client ("httpd", "vsftpd", "sshd").
	Server string
	// Port is the server's listening port.
	Port int
	// Clients is the number of concurrent closed-loop clients (default 4).
	// Each client holds one long-lived session and issues back-to-back
	// requests, so offered load tracks what the server can absorb instead
	// of a fixed request count — the serving workload the warm daemon's
	// duty-cycle backpressure competes with.
	Clients int
	// Interval is the statistics bucket width (default 10ms). Every
	// completed request is attributed to the bucket its completion falls
	// in, so per-interval throughput is exact by construction.
	Interval time.Duration
	// BeforeRequest, when set, runs in the client goroutine before each
	// request (tests inject slow responses here).
	BeforeRequest func(client, seq int)
	// Timeout bounds one round trip (default 5s — longer than any update
	// window, so requests in flight across a quiesce block, not fail).
	Timeout time.Duration
	// Recorder, when set, receives every closed statistics bucket as a
	// complete event on the workload track (p99 attached) — the
	// per-interval latency timeline the spike trace aligns against the
	// daemon's pass spans — plus request/error counters in the registry.
	Recorder *obs.Recorder
}

func (o *SustainedOptions) fill() {
	if o.Clients <= 0 {
		o.Clients = 4
	}
	if o.Interval <= 0 {
		o.Interval = 10 * time.Millisecond
	}
	if o.Timeout <= 0 {
		o.Timeout = rtTimeout
	}
}

// IntervalStat is one statistics bucket of a sustained run.
type IntervalStat struct {
	Index    int
	Requests int
	Errors   int
	Latency  time.Duration    // summed over the bucket's requests
	Hist     canary.Histogram // per-bucket latency distribution
}

// SustainedStats is a snapshot of a sustained driver's counters.
type SustainedStats struct {
	Requests     int
	Errors       int
	BadResponses int           // protocol-valid reply with wrong content
	Bad          []BadReply    // the first maxBadReplies of them
	Latency      time.Duration // summed over all requests
	Elapsed      time.Duration
	Hist         canary.Histogram // cumulative latency distribution
	Intervals    []IntervalStat
}

// BadReply is one wrong response as the client saw it: which request it
// answered, what that request should have got back, and what came back
// instead (a reply's Server: banner names the version that wrote it).
type BadReply struct {
	Client, Seq int
	Want        string // the echo (or reply marker) the request expects
	Reply       string
	At          time.Time // when the reply arrived
}

// maxBadReplies bounds SustainedStats.Bad: the first few wrong replies
// describe a failure; the count says how often it recurred.
const maxBadReplies = 4

// Throughput returns completed requests per second.
func (s SustainedStats) Throughput() float64 {
	if s.Elapsed <= 0 {
		return 0
	}
	return float64(s.Requests) / s.Elapsed.Seconds()
}

// MeanLatency returns the mean per-request round-trip time.
func (s SustainedStats) MeanLatency() time.Duration {
	if s.Requests == 0 {
		return 0
	}
	return s.Latency / time.Duration(s.Requests)
}

// P99 returns the 99th-percentile round-trip latency (upper histogram
// bucket bound; error bounded by one bucket width).
func (s SustainedStats) P99() time.Duration {
	return s.Hist.Quantile(0.99)
}

// Delta returns the stats accumulated since an earlier snapshot (the
// measurement-window primitive: Snapshot, serve, Snapshot, Delta).
func (s SustainedStats) Delta(since SustainedStats) SustainedStats {
	d := SustainedStats{
		Requests:     s.Requests - since.Requests,
		Errors:       s.Errors - since.Errors,
		BadResponses: s.BadResponses - since.BadResponses,
		Bad:          s.Bad[len(since.Bad):],
		Latency:      s.Latency - since.Latency,
		Elapsed:      s.Elapsed - since.Elapsed,
		Hist:         s.Hist.Delta(since.Hist),
	}
	for _, iv := range s.Intervals {
		if iv.Index >= len(since.Intervals) {
			d.Intervals = append(d.Intervals, iv)
			continue
		}
		prev := since.Intervals[iv.Index]
		if rem := (IntervalStat{
			Index:    iv.Index,
			Requests: iv.Requests - prev.Requests,
			Errors:   iv.Errors - prev.Errors,
			Latency:  iv.Latency - prev.Latency,
			Hist:     iv.Hist.Delta(prev.Hist),
		}); rem.Requests > 0 || rem.Errors > 0 {
			d.Intervals = append(d.Intervals, rem)
		}
	}
	return d
}

// Sustained is a running sustained-rate client driver.
type Sustained struct {
	k    *kernel.Kernel
	opts SustainedOptions

	start time.Time
	stop  chan struct{}
	wg    sync.WaitGroup

	rec   *obs.Recorder
	recT0 time.Duration // recorder-relative time of s.start
	cReq  *obs.Counter
	cErr  *obs.Counter

	mu      sync.Mutex
	stats   SustainedStats
	emitted int // interval buckets already flushed to the recorder
	stopped bool
	lastErr error
}

// StartSustained launches the driver: opts.Clients goroutines each open a
// long-lived session and issue requests back to back until Stop. A
// request that fails (closed session across an aborted connection, stale
// fd) counts as an error and the client reconnects — traffic keeps
// flowing through updates, commits and rollbacks, which is exactly the
// scenario the overhead harness measures.
func StartSustained(k *kernel.Kernel, opts SustainedOptions) (*Sustained, error) {
	opts.fill()
	switch opts.Server {
	case "httpd", "nginx", "vsftpd", "sshd":
	default:
		return nil, fmt.Errorf("workload: sustained: unsupported server %q", opts.Server)
	}
	s := &Sustained{
		k:     k,
		opts:  opts,
		start: time.Now(),
		stop:  make(chan struct{}),
		rec:   opts.Recorder,
		recT0: opts.Recorder.Now(),
		cReq:  opts.Recorder.Metrics().Counter("workload.requests"),
		cErr:  opts.Recorder.Metrics().Counter("workload.errors"),
	}
	for c := 0; c < opts.Clients; c++ {
		s.wg.Add(1)
		go s.client(c)
	}
	return s, nil
}

// Snapshot returns the cumulative counters so far.
func (s *Sustained) Snapshot() SustainedStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := s.stats
	out.Elapsed = time.Since(s.start)
	out.Intervals = append([]IntervalStat(nil), s.stats.Intervals...)
	out.Bad = append([]BadReply(nil), s.stats.Bad...)
	return out
}

// LastError returns the most recent client error (nil if none).
func (s *Sustained) LastError() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lastErr
}

// Stop signals every client, waits for in-flight requests to drain (each
// client finishes its current round trip, closes its session and exits)
// and returns the final statistics. Idempotent.
func (s *Sustained) Stop() SustainedStats {
	s.mu.Lock()
	if !s.stopped {
		s.stopped = true
		close(s.stop)
	}
	s.mu.Unlock()
	s.wg.Wait()
	s.mu.Lock()
	// Flush every remaining bucket, including the trailing partial one,
	// so a post-run export sees the full interval timeline.
	s.flushIntervalsLocked(len(s.stats.Intervals))
	s.mu.Unlock()
	return s.Snapshot()
}

func (s *Sustained) stopping() bool {
	select {
	case <-s.stop:
		return true
	default:
		return false
	}
}

// record attributes one completed request to the bucket its completion
// falls in. bad is non-nil for a wrong reply.
func (s *Sustained) record(took time.Duration, err error, bad *BadReply) {
	idx := int(time.Since(s.start) / s.opts.Interval)
	s.mu.Lock()
	defer s.mu.Unlock()
	for len(s.stats.Intervals) <= idx {
		s.stats.Intervals = append(s.stats.Intervals, IntervalStat{Index: len(s.stats.Intervals)})
	}
	s.flushIntervalsLocked(idx)
	iv := &s.stats.Intervals[idx]
	if err != nil {
		s.cErr.Add(1)
		s.stats.Errors++
		iv.Errors++
		s.lastErr = err
		return
	}
	s.stats.Requests++
	s.stats.Latency += took
	s.stats.Hist.Observe(took)
	s.cReq.Add(1)
	iv.Requests++
	iv.Latency += took
	iv.Hist.Observe(took)
	if bad != nil {
		s.stats.BadResponses++
		if len(s.stats.Bad) < maxBadReplies {
			s.stats.Bad = append(s.stats.Bad, *bad)
		}
	}
}

// flushIntervalsLocked emits every bucket strictly before cur as a
// complete event on the workload track (each bucket's span is exactly
// its wall-clock window in recorder time, with the bucket p99 attached),
// so the exported trace lines workload-latency spikes up under the
// daemon passes that overlapped them. Caller holds s.mu.
func (s *Sustained) flushIntervalsLocked(cur int) {
	if !s.rec.On() {
		return
	}
	for ; s.emitted < cur && s.emitted < len(s.stats.Intervals); s.emitted++ {
		iv := &s.stats.Intervals[s.emitted]
		var p99 time.Duration
		if iv.Requests > 0 {
			p99 = iv.Hist.Quantile(0.99)
		}
		s.rec.Complete(obs.TrackWorkload, obs.PhaseInterval,
			s.recT0+time.Duration(s.emitted)*s.opts.Interval, s.opts.Interval,
			"p99_ns", int64(p99))
	}
}

// client is one closed-loop session: connect, issue requests until Stop,
// reconnect on failure.
func (s *Sustained) client(id int) {
	defer s.wg.Done()
	var sess *Session
	defer func() {
		if sess != nil {
			sess.Close()
		}
	}()
	seq := 0
	for !s.stopping() {
		if sess == nil {
			var err error
			sess, err = s.connect(id)
			if err != nil {
				s.record(0, err, nil)
				// Brief backoff so a server mid-quiesce is not hammered
				// with doomed connection attempts.
				select {
				case <-s.stop:
					return
				case <-time.After(500 * time.Microsecond):
				}
				continue
			}
		}
		if s.opts.BeforeRequest != nil {
			s.opts.BeforeRequest(id, seq)
		}
		t0 := time.Now()
		resp, err := s.request(sess, id, seq)
		took := time.Since(t0)
		if err != nil {
			s.record(took, err, nil)
			sess.Close()
			sess = nil
			continue
		}
		var bad *BadReply
		if want, ok := s.check(resp, id, seq); !ok {
			bad = &BadReply{Client: id, Seq: seq, Want: want, Reply: resp, At: time.Now()}
		}
		s.record(took, nil, bad)
		seq++
	}
}

func (s *Sustained) connect(id int) (*Session, error) {
	switch s.opts.Server {
	case "httpd":
		return OpenKeepalive(s.k, s.opts.Port, false)
	case "nginx":
		return OpenKeepalive(s.k, s.opts.Port, true)
	case "vsftpd":
		return OpenFTP(s.k, s.opts.Port, fmt.Sprintf("load%d", id))
	case "sshd":
		return OpenSSH(s.k, s.opts.Port, fmt.Sprintf("load%d", id), true)
	}
	return nil, fmt.Errorf("workload: sustained: unsupported server %q", s.opts.Server)
}

func (s *Sustained) request(sess *Session, id, seq int) (string, error) {
	switch s.opts.Server {
	case "httpd":
		return roundTrip(sess.Conns[0], fmt.Sprintf("GET /load-%d-%d", id, seq), s.opts.Timeout)
	case "nginx":
		return roundTrip(sess.Conns[0], fmt.Sprintf("GET /load-%d-%d HTTP/1.1", id, seq), s.opts.Timeout)
	case "vsftpd":
		return roundTrip(sess.Conns[0], "STAT", s.opts.Timeout)
	case "sshd":
		return roundTrip(sess.Conns[0], fmt.Sprintf("EXEC load-%d-%d", id, seq), s.opts.Timeout)
	}
	return "", fmt.Errorf("workload: sustained: unsupported server %q", s.opts.Server)
}

// Sample returns just the cumulative counters and latency histogram —
// the cheap snapshot a canary monitor polls every few milliseconds.
// Snapshot also deep-copies every per-interval histogram under the
// driver mutex; polling that at monitor cadence would contend with the
// serving path and show up as canary overhead.
func (s *Sustained) Sample() canary.Sample {
	s.mu.Lock()
	defer s.mu.Unlock()
	return canary.Sample{
		Requests: s.stats.Requests,
		Errors:   s.stats.Errors,
		Elapsed:  time.Since(s.start),
		Hist:     s.stats.Hist,
	}
}

// CanarySource adapts a sustained driver into the cumulative-sample feed
// a canary monitor polls. Note BadResponses intentionally does not map
// to Errors — a protocol-valid wrong answer is a transfer-correctness
// bug the harness asserts to be zero, not a behavioral regression for
// the SLO to arbitrate.
func CanarySource(s *Sustained) func() canary.Sample {
	return s.Sample
}

// check reports whether the reply actually answers this client's request
// — the correctness half of the mid-traffic scenario: through quiesce,
// commit and rollback every client must keep getting its own echo back,
// not a garbled or crossed response — and what it looked for.
func (s *Sustained) check(resp string, id, seq int) (want string, ok bool) {
	switch s.opts.Server {
	case "httpd":
		want = fmt.Sprintf("ka-req=GET /load-%d-%d", id, seq)
		return want, strings.Contains(resp, want)
	case "nginx":
		// nginx replies carry a request counter, not a per-request echo:
		// validate the protocol frame and body marker.
		const frame, body = "HTTP/1.1 200 OK banner=", "body=<html>hello from nginx</html>"
		return frame + "... " + body, strings.HasPrefix(resp, frame) && strings.Contains(resp, body)
	case "vsftpd":
		return "211 ", strings.HasPrefix(resp, "211 ")
	case "sshd":
		want = fmt.Sprintf("ran %q", fmt.Sprintf("load-%d-%d", id, seq))
		return want, strings.Contains(resp, want)
	}
	return "", false
}
