package canary

import (
	"fmt"
	"strconv"
	"strings"
	"time"
)

// SLO is the behavioral acceptance bar a freshly committed version must
// clear during the canary window. A zero field is unchecked, so callers
// opt into exactly the gates they care about.
type SLO struct {
	// MaxP99 breaches when an interval's p99 round-trip latency exceeds
	// it.
	MaxP99 time.Duration
	// MinThroughputFrac breaches when an interval's throughput drops
	// below this fraction of the pre-update baseline.
	MinThroughputFrac float64
	// MaxErrorRate breaches when an interval's error rate (errors over
	// attempts) exceeds it.
	MaxErrorRate float64
}

// IsZero reports whether no gate is set.
func (s SLO) IsZero() bool {
	return s.MaxP99 == 0 && s.MinThroughputFrac == 0 && s.MaxErrorRate == 0
}

// String renders the SLO in the same "k=v,k=v" form ParseSLO accepts.
func (s SLO) String() string {
	var parts []string
	if s.MaxP99 > 0 {
		parts = append(parts, "p99="+s.MaxP99.String())
	}
	if s.MinThroughputFrac > 0 {
		parts = append(parts, fmt.Sprintf("tput=%g", s.MinThroughputFrac))
	}
	if s.MaxErrorRate > 0 {
		parts = append(parts, fmt.Sprintf("err=%g", s.MaxErrorRate))
	}
	if len(parts) == 0 {
		return "none"
	}
	return strings.Join(parts, ",")
}

// ParseSLO parses a comma-separated SLO spec, e.g. "p99=2ms,tput=0.8,err=0.01":
// p99 is a duration ceiling, tput a throughput floor as a fraction of the
// pre-update baseline, err an error-rate ceiling. At least one term is
// required; unknown keys and out-of-range values are errors.
func ParseSLO(spec string) (SLO, error) {
	var s SLO
	if strings.TrimSpace(spec) == "" {
		return s, fmt.Errorf("canary: empty SLO spec")
	}
	for _, term := range strings.Split(spec, ",") {
		k, v, ok := strings.Cut(strings.TrimSpace(term), "=")
		if !ok || v == "" {
			return s, fmt.Errorf("canary: malformed SLO term %q (want k=v)", term)
		}
		switch k {
		case "p99":
			d, err := time.ParseDuration(v)
			if err != nil || d <= 0 {
				return s, fmt.Errorf("canary: bad p99 %q (want a positive duration)", v)
			}
			s.MaxP99 = d
		case "tput":
			f, err := strconv.ParseFloat(v, 64)
			if err != nil || f <= 0 || f > 1 {
				return s, fmt.Errorf("canary: bad tput %q (want a fraction in (0,1])", v)
			}
			s.MinThroughputFrac = f
		case "err":
			f, err := strconv.ParseFloat(v, 64)
			if err != nil || f < 0 || f >= 1 {
				return s, fmt.Errorf("canary: bad err %q (want a rate in [0,1))", v)
			}
			s.MaxErrorRate = f
		default:
			return s, fmt.Errorf("canary: unknown SLO key %q", k)
		}
	}
	if s.IsZero() {
		return s, fmt.Errorf("canary: SLO %q sets no gate", spec)
	}
	return s, nil
}

// Sample is a cumulative workload measurement: counters since the driver
// started plus the latency histogram. The monitor differences successive
// samples to get per-interval behavior.
type Sample struct {
	Requests int
	Errors   int
	Elapsed  time.Duration
	Hist     Histogram
}

// Delta returns the sample accumulated since an earlier one.
func (s Sample) Delta(since Sample) Sample {
	return Sample{
		Requests: s.Requests - since.Requests,
		Errors:   s.Errors - since.Errors,
		Elapsed:  s.Elapsed - since.Elapsed,
		Hist:     s.Hist.Delta(since.Hist),
	}
}

// Throughput returns completed requests per second over the sample.
func (s Sample) Throughput() float64 {
	if s.Elapsed <= 0 {
		return 0
	}
	return float64(s.Requests) / s.Elapsed.Seconds()
}

// ErrorRate returns errors over attempts (completions plus errors).
func (s Sample) ErrorRate() float64 {
	n := s.Requests + s.Errors
	if n == 0 {
		return 0
	}
	return float64(s.Errors) / float64(n)
}

// Breach records one SLO violation.
type Breach struct {
	Metric   string  // "p99", "throughput" or "errors"
	Value    float64 // observed value (ns for p99)
	Limit    float64 // the configured limit (ns for p99)
	Interval int     // 1-based monitor interval that breached
}

func (b Breach) String() string {
	switch b.Metric {
	case "p99":
		return fmt.Sprintf("p99 %v > %v (interval %d)",
			time.Duration(b.Value), time.Duration(b.Limit), b.Interval)
	case "throughput":
		return fmt.Sprintf("throughput %.1f rps < %.1f rps (interval %d)",
			b.Value, b.Limit, b.Interval)
	default: // "errors"
		return fmt.Sprintf("error rate %.4f > %.4f (interval %d)",
			b.Value, b.Limit, b.Interval)
	}
}

// Check evaluates one interval delta against the SLO. baselineRPS is the
// pre-update throughput the tput gate is relative to. Latency and error
// gates only fire on intervals that actually completed requests (an empty
// interval has no tail to judge); the throughput gate fires on any
// interval once a baseline is known — a silent stall is itself a breach.
func (s SLO) Check(baselineRPS float64, d Sample) *Breach {
	if s.MaxP99 > 0 && d.Hist.Count() > 0 {
		if p99 := d.Hist.Quantile(0.99); p99 > s.MaxP99 {
			return &Breach{Metric: "p99", Value: float64(p99), Limit: float64(s.MaxP99)}
		}
	}
	if s.MaxErrorRate > 0 && d.Requests+d.Errors > 0 {
		if er := d.ErrorRate(); er > s.MaxErrorRate {
			return &Breach{Metric: "errors", Value: er, Limit: s.MaxErrorRate}
		}
	}
	if s.MinThroughputFrac > 0 && baselineRPS > 0 && d.Elapsed > 0 {
		floor := s.MinThroughputFrac * baselineRPS
		if tput := d.Throughput(); tput < floor {
			return &Breach{Metric: "throughput", Value: tput, Limit: floor}
		}
	}
	return nil
}

// Monitor evaluates a stream of cumulative samples against an SLO, one
// interval at a time. The first grace intervals after the window opens
// are observed but never breach: requests that blocked across the
// update's quiesce complete just after commit with latency roughly equal
// to the downtime, and that commit transient is the old version's cost,
// not the new version's behavior.
type Monitor struct {
	slo      SLO
	baseline float64
	grace    int

	last      Sample
	lastDelta Sample
	intervals int
	breach    *Breach
}

// NewMonitor starts a monitor from the cumulative sample taken at window
// open. baselineRPS anchors the throughput gate; grace is the number of
// initial intervals exempt from breaching.
func NewMonitor(slo SLO, baselineRPS float64, start Sample, grace int) *Monitor {
	if grace < 0 {
		grace = 0
	}
	return &Monitor{slo: slo, baseline: baselineRPS, grace: grace, last: start}
}

// Tick feeds the next cumulative sample. It returns the first breach
// found (sticky: once breached, every later Tick returns the same
// breach), or nil while the SLO holds.
func (m *Monitor) Tick(cum Sample) *Breach {
	if m.breach != nil {
		return m.breach
	}
	d := cum.Delta(m.last)
	m.last = cum
	m.lastDelta = d
	m.intervals++
	if m.intervals <= m.grace {
		return nil
	}
	if br := m.slo.Check(m.baseline, d); br != nil {
		br.Interval = m.intervals
		m.breach = br
		return br
	}
	return nil
}

// MonitorStatus is a point-in-time view of a monitor.
type MonitorStatus struct {
	Intervals     int
	BaselineRPS   float64
	LastRPS       float64
	LastP99       time.Duration
	LastErrorRate float64
	Breach        *Breach
}

// Status reports the monitor's progress and the last interval's metrics.
func (m *Monitor) Status() MonitorStatus {
	return MonitorStatus{
		Intervals:     m.intervals,
		BaselineRPS:   m.baseline,
		LastRPS:       m.lastDelta.Throughput(),
		LastP99:       m.lastDelta.Hist.Quantile(0.99),
		LastErrorRate: m.lastDelta.ErrorRate(),
		Breach:        m.breach,
	}
}
