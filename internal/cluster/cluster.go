// Package cluster is the fleet controller: N member instances of one
// model server, each with its own kernel, engine and share of the
// sustained closed-loop workload, rolled to a new version in waves by a
// plan→apply orchestrator (plan.go, apply.go). The paper's engine makes
// one instance updatable; this package makes a whole fleet updatable
// with the same rollback guarantee — a member's deadline or fault cause
// bubbles up verbatim as the rollout abort reason, in-flight members
// roll back through the per-member machinery, un-started waves never
// arm, and a fleet-wide canary mode holds each wave's members in their
// adoptable windows so an SLO breach on any member reverts the wave.
package cluster

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/canary"
	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/kernel"
	"repro/internal/obs"
	"repro/internal/servers"
	"repro/internal/workload"
)

// Options configures a fleet.
type Options struct {
	// Server selects the model server every member runs.
	Server string
	// Members is the fleet size (default 3).
	Members int
	// Clients is the closed-loop client count per member's workload
	// share (default 2).
	Clients int
	// Recorder, when set, is shared by every member engine (the obs
	// recorder is concurrency-safe; member events interleave on it).
	Recorder *obs.Recorder
	// Faults, when set, is installed on exactly one member's engine
	// (FaultMember) — the fault-injected-rollout seam.
	Faults *faultinject.Plane
	// FaultMember is the index carrying Faults (ignored when nil).
	FaultMember int
}

func (o *Options) fill() error {
	if o.Members == 0 {
		o.Members = 3
	}
	if o.Members < 1 {
		return fmt.Errorf("cluster: need at least 1 member, got %d", o.Members)
	}
	if o.Clients <= 0 {
		o.Clients = 2
	}
	if o.Faults != nil && (o.FaultMember < 0 || o.FaultMember >= o.Members) {
		return fmt.Errorf("cluster: fault member %d out of range [0,%d)", o.FaultMember, o.Members)
	}
	return nil
}

// Member is one fleet instance: its own simulated kernel, its own
// engine, and the driver carrying its share of the fleet workload. While
// the member drains for an update, its share runs as a spill driver on a
// serving sibling, so aggregate fleet throughput is sustained through
// every wave.
type Member struct {
	Index int

	kern *kernel.Kernel
	eng  *core.Engine

	mu      sync.Mutex
	drv     *workload.Sustained // serving share (nil while drained)
	spill   *workload.Sustained // the drained share, displaced onto a sibling
	started time.Time
	version int // index into the spec's version sequence

	// retired accumulates the cumulative counters of every driver this
	// member has stopped, so the member's canary sample source stays
	// monotonic across drain/re-add (a canary monitor differences
	// successive cumulative samples; a fresh driver must not reset them).
	retired canary.Sample
	// tally accumulates final stats of retired drivers for the fleet's
	// zero-failed-responses accounting.
	tally Tally
}

// Engine exposes the member's engine (tests and the orchestrator's
// warm/canary calls go through it).
func (m *Member) Engine() *core.Engine { return m.eng }

// Kernel exposes the member's kernel.
func (m *Member) Kernel() *kernel.Kernel { return m.kern }

// Version returns the member's current version index.
func (m *Member) Version() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.version
}

// Sample is the member's cumulative workload sample — the canary feed.
// It sums retired drivers with the live one, so the monitor's deltas
// survive the drain/re-add around the member's own update.
func (m *Member) Sample() canary.Sample {
	m.mu.Lock()
	defer m.mu.Unlock()
	s := m.retired
	if m.drv != nil {
		cur := m.drv.Sample()
		s.Requests += cur.Requests
		s.Errors += cur.Errors
		s.Hist.Merge(cur.Hist)
	}
	s.Elapsed = time.Since(m.started)
	return s
}

// Tally is a fleet-wide response count.
type Tally struct {
	Requests     int
	Errors       int
	BadResponses int
}

func (t *Tally) add(st workload.SustainedStats) {
	t.Requests += st.Requests
	t.Errors += st.Errors
	t.BadResponses += st.BadResponses
}

// Delta returns the responses accumulated since an earlier tally.
func (t Tally) Delta(since Tally) Tally {
	return Tally{
		Requests:     t.Requests - since.Requests,
		Errors:       t.Errors - since.Errors,
		BadResponses: t.BadResponses - since.BadResponses,
	}
}

// Cluster is a running fleet.
type Cluster struct {
	opts    Options
	spec    *servers.Spec
	members []*Member

	mu      sync.Mutex
	retired Tally // final stats of every stopped driver, fleet-wide
}

// New launches the fleet: each member gets a fresh seeded kernel, an
// engine with transfer and rollback verification armed (the fleet exists
// to be audited), the initial version serving, and its workload share.
func New(opts Options) (*Cluster, error) {
	if err := opts.fill(); err != nil {
		return nil, err
	}
	spec, err := servers.SpecByName(opts.Server)
	if err != nil {
		return nil, fmt.Errorf("cluster: %w", err)
	}
	c := &Cluster{opts: opts, spec: spec}
	for i := 0; i < opts.Members; i++ {
		eopts := core.Options{
			Audit:          true,
			QuiesceTimeout: 30 * time.Second,
			StartupTimeout: 30 * time.Second,
			Recorder:       opts.Recorder,
		}
		if opts.Faults != nil && i == opts.FaultMember {
			eopts.Faults = opts.Faults
		}
		m := &Member{Index: i, kern: kernel.New(), started: time.Now()}
		servers.SeedFiles(m.kern)
		m.eng, err = core.NewEngine(m.kern, eopts)
		if err != nil {
			c.Shutdown()
			return nil, fmt.Errorf("cluster: engine member %d: %w", i, err)
		}
		if _, err := m.eng.Launch(spec.Version(0)); err != nil {
			c.Shutdown()
			return nil, fmt.Errorf("cluster: launch member %d: %w", i, err)
		}
		drv, err := workload.StartSustained(m.kern, workload.SustainedOptions{
			Server: spec.Name, Port: spec.Port, Clients: opts.Clients,
		})
		if err != nil {
			m.eng.Shutdown()
			c.Shutdown()
			return nil, fmt.Errorf("cluster: workload member %d: %w", i, err)
		}
		m.drv = drv
		c.members = append(c.members, m)
	}
	return c, nil
}

// Spec returns the fleet's server spec.
func (c *Cluster) Spec() *servers.Spec { return c.spec }

// Members returns the fleet members.
func (c *Cluster) Members() []*Member { return c.members }

// Member returns member i.
func (c *Cluster) Member(i int) *Member { return c.members[i] }

// stopDriver stops drv and folds its final stats into the member's
// retired sample and the fleet tally.
func (c *Cluster) stopDriver(m *Member, drv *workload.Sustained) workload.SustainedStats {
	st := drv.Stop()
	m.mu.Lock()
	m.retired.Requests += st.Requests
	m.retired.Errors += st.Errors
	m.retired.Hist.Merge(st.Hist)
	m.tally.add(st)
	m.mu.Unlock()
	c.mu.Lock()
	c.retired.add(st)
	c.mu.Unlock()
	return st
}

// spillHost picks the serving member the drained share displaces onto:
// the next member (cyclically) that still has a live driver.
func (c *Cluster) spillHost(i int) *Member {
	for off := 1; off < len(c.members); off++ {
		h := c.members[(i+off)%len(c.members)]
		h.mu.Lock()
		serving := h.drv != nil
		h.mu.Unlock()
		if serving {
			return h
		}
	}
	return nil
}

// Drain takes member i's workload share out of service ahead of its
// update: its driver stops (in-flight requests complete) and an equal
// share starts against a serving sibling, so fleet-aggregate load is
// held while the member updates. A single-member fleet has no sibling to
// spill to; the share simply pauses for the update window.
func (c *Cluster) Drain(i int) error {
	m := c.members[i]
	m.mu.Lock()
	drv := m.drv
	m.drv = nil
	spilled := m.spill != nil
	m.mu.Unlock()
	if drv == nil {
		return fmt.Errorf("cluster: member %d already drained", i)
	}
	if spilled {
		return fmt.Errorf("cluster: member %d already has a spill share", i)
	}
	c.stopDriver(m, drv)
	host := c.spillHost(i)
	if host == nil {
		return nil // nowhere to spill; the share pauses
	}
	spill, err := workload.StartSustained(host.kern, workload.SustainedOptions{
		Server: c.spec.Name, Port: c.spec.Port, Clients: c.opts.Clients,
	})
	if err != nil {
		return fmt.Errorf("cluster: spill member %d -> %d: %w", i, host.Index, err)
	}
	m.mu.Lock()
	m.spill = spill
	m.mu.Unlock()
	return nil
}

// Readd returns member i to service after its update (or its rollback):
// the spilled share stops and a fresh driver starts against the member.
func (c *Cluster) Readd(i int) error {
	m := c.members[i]
	m.mu.Lock()
	spill := m.spill
	m.spill = nil
	draining := m.drv == nil
	m.mu.Unlock()
	if !draining {
		return fmt.Errorf("cluster: member %d is not drained", i)
	}
	if spill != nil {
		st := spill.Stop()
		c.mu.Lock()
		c.retired.add(st)
		c.mu.Unlock()
	}
	drv, err := workload.StartSustained(m.kern, workload.SustainedOptions{
		Server: c.spec.Name, Port: c.spec.Port, Clients: c.opts.Clients,
	})
	if err != nil {
		return fmt.Errorf("cluster: readd member %d: %w", i, err)
	}
	m.mu.Lock()
	m.drv = drv
	m.mu.Unlock()
	return nil
}

// Totals returns the fleet-wide cumulative response tally: every retired
// driver plus a snapshot of every live one (member shares and spills).
func (c *Cluster) Totals() Tally {
	c.mu.Lock()
	t := c.retired
	c.mu.Unlock()
	for _, m := range c.members {
		m.mu.Lock()
		if m.drv != nil {
			t.add(m.drv.Snapshot())
		}
		if m.spill != nil {
			t.add(m.spill.Snapshot())
		}
		m.mu.Unlock()
	}
	return t
}

// Shutdown stops every driver and engine. Idempotent per member.
func (c *Cluster) Shutdown() {
	for _, m := range c.members {
		m.mu.Lock()
		drv, spill := m.drv, m.spill
		m.drv, m.spill = nil, nil
		m.mu.Unlock()
		if drv != nil {
			c.stopDriver(m, drv)
		}
		if spill != nil {
			st := spill.Stop()
			c.mu.Lock()
			c.retired.add(st)
			c.mu.Unlock()
		}
		m.eng.Shutdown()
	}
}
