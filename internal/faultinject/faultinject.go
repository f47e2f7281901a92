// Package faultinject is the update-time fault-injection plane: a
// deterministic, seedable set of named injection points threaded through
// every update phase at the same seams the flight recorder instruments.
// The engine, the checkpoint/daemon layer and the transfer workers each
// consult the plane at their point; an armed point fires exactly as
// configured (on the Nth hit, a bounded number of times) and the firing is
// recorded, so a campaign can assert both that the fault happened and that
// the system recovered from it.
//
// A nil *Plane is the production configuration and costs one pointer
// check per consulted point — the same contract as a nil *obs.Recorder.
//
// Three fault shapes cover the update pipeline's failure modes:
//
//   - Check: the point returns an injected *Error (a component failing
//     loudly — analysis error, epoch failure, startup crash).
//   - Stall: the point parks the calling goroutine (a component hanging
//     silently — a wedged RESTART, a stalled transfer worker, a stuck
//     daemon pass) until its local cancel channel closes or the plane's
//     stalls are released (the deadline watchdog's lever), then returns
//     the injected *Error so the caller aborts instead of proceeding on
//     a half-done phase.
//   - Corrupt: the point flips one byte in a buffer (silent data
//     corruption — a stale daemon shadow); detection is the transfer
//     verifier's job, not the plane's.
package faultinject

import (
	"fmt"
	"hash/fnv"
	"sync"

	"repro/internal/obs"
)

// Point names one injection seam. The catalog below is the full fault
// surface of one live update, in pipeline order.
type Point string

// Injection points, in the order an update encounters them.
const (
	// PointEpochFail fails a warm daemon's shadow epoch, poisoning the
	// snapshotter so the update that adopts it aborts instead of trusting
	// its shadows.
	PointEpochFail Point = "epoch-fail"
	// PointDaemonStall parks a warm daemon pass until the daemon is
	// stopped (the update's detach join releases it); the interrupted
	// pass poisons the snapshotter the same way a failed epoch does.
	PointDaemonStall Point = "daemon-stall"
	// PointSpeculation invalidates the speculative/warm analysis at its
	// quiesce-time resolution (the validation itself errors).
	PointSpeculation Point = "speculation"
	// PointAnalysis fails the in-window conservative analysis.
	PointAnalysis Point = "analysis"
	// PointRestartCrash crashes the new version's RESTART after startup
	// converged (a late startup failure).
	PointRestartCrash Point = "restart-crash"
	// PointRestartHang parks the RESTART phase indefinitely — only the
	// per-phase deadline watchdog can recover (cause deadline:restart).
	PointRestartHang Point = "restart-hang"
	// PointTransferCorrupt flips one byte in a shadow buffer served to
	// the downtime copy; with the transfer verifier armed the divergence
	// from quiesced memory is a conflict, aborting the update before
	// corrupt state commits.
	PointTransferCorrupt Point = "transfer-corrupt"
	// PointTransferError fails a transfer copy worker mid-object.
	PointTransferError Point = "transfer-error"
	// PointTransferStall parks a transfer copy worker; the watchdog's
	// transfer deadline cancels the pipeline and releases it
	// (cause deadline:transfer).
	PointTransferStall Point = "transfer-stall"
	// PointRemapFail fails the REMAP pairing step.
	PointRemapFail Point = "remap-fail"
	// PointCommitCrash crashes the commit before any side effect, the
	// last moment a pre-commit rollback is possible.
	PointCommitCrash Point = "commit-crash"
	// PointRollbackRestore injects a second fault into the rollback path
	// itself (the double-fault case): reverting must still complete and
	// report both causes.
	PointRollbackRestore Point = "rollback-restore"
)

// Catalog lists every injection point in pipeline order — the campaign
// sweep and the README fault-point table iterate this.
func Catalog() []Point {
	return []Point{
		PointEpochFail, PointDaemonStall, PointSpeculation, PointAnalysis,
		PointRestartCrash, PointRestartHang, PointTransferCorrupt,
		PointTransferError, PointTransferStall, PointRemapFail,
		PointCommitCrash, PointRollbackRestore,
	}
}

// Error is an injected fault. Rollback-cause classification keys on it:
// a rollback whose cause chain carries an *Error reports
// "fault:<point>".
type Error struct {
	Point Point
	Hit   int  // 1-based hit count at which the point fired
	Stall bool // the fault parked the caller before erroring
}

func (e *Error) Error() string {
	if e.Stall {
		return fmt.Sprintf("faultinject: %s stalled and released (hit %d)", e.Point, e.Hit)
	}
	return fmt.Sprintf("faultinject: %s (hit %d)", e.Point, e.Hit)
}

// Firing records one fault that actually fired.
type Firing struct {
	Point Point
	Hit   int
	Kind  string // "error", "stall", "corrupt"
}

// arming is one point's trigger configuration.
type arming struct {
	at   int // fire on this 1-based hit
	left int // remaining fires
}

// Plane is one armed fault-injection configuration. All methods are
// nil-safe; a nil plane never fires.
type Plane struct {
	mu      sync.Mutex
	seed    uint64
	hits    map[Point]int
	armed   map[Point]*arming
	firings []Firing

	release  chan struct{} // closed by ReleaseStalls; frees parked stalls
	released bool

	rec *obs.Recorder
}

// New builds an empty (nothing armed) plane. The seed parameterizes
// ArmSeeded's hit selection and Corrupt's byte choice; equal seeds and
// equal arming produce identical firings.
func New(seed uint64) *Plane {
	return &Plane{
		seed:    seed,
		hits:    make(map[Point]int),
		armed:   make(map[Point]*arming),
		release: make(chan struct{}),
	}
}

// AttachRecorder mirrors every firing into the flight recorder as an
// instant on the engine track (and a faults.injected counter), so an
// injected fault is visible in the same trace as the rollback it caused.
func (p *Plane) AttachRecorder(rec *obs.Recorder) {
	if p == nil {
		return
	}
	p.mu.Lock()
	p.rec = rec
	p.mu.Unlock()
}

// Arm fires pt once, on its next hit. Re-arming replaces the previous
// configuration.
func (p *Plane) Arm(pt Point) { p.ArmAt(pt, 1, 1) }

// ArmAt fires pt `count` consecutive times starting at the n-th hit
// (1-based) counted from now. count <= 0 means once.
func (p *Plane) ArmAt(pt Point, n, count int) {
	if p == nil {
		return
	}
	if n < 1 {
		n = 1
	}
	if count < 1 {
		count = 1
	}
	p.mu.Lock()
	p.hits[pt] = 0
	p.armed[pt] = &arming{at: n, left: count}
	p.mu.Unlock()
}

// ArmSeeded fires pt once, on a hit derived deterministically from the
// plane's seed in [1, maxN] — the campaign's way of moving a fault
// around inside a phase without hand-picking indices. maxN < 1 means 1.
func (p *Plane) ArmSeeded(pt Point, maxN int) int {
	if p == nil {
		return 0
	}
	if maxN < 1 {
		maxN = 1
	}
	n := 1 + int(p.mix(pt)%uint64(maxN))
	p.ArmAt(pt, n, 1)
	return n
}

// Disarm removes pt's arming (parked stalls stay parked — release them
// with ReleaseStalls or their local cancel).
func (p *Plane) Disarm(pt Point) {
	if p == nil {
		return
	}
	p.mu.Lock()
	delete(p.armed, pt)
	p.mu.Unlock()
}

// mix hashes the seed with the point name (FNV-64a).
func (p *Plane) mix(pt Point) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d:%s", p.seed, pt)
	return h.Sum64()
}

// trigger counts one hit on pt and reports whether it fires.
func (p *Plane) trigger(pt Point, kind string) (int, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.hits[pt]++
	hit := p.hits[pt]
	a := p.armed[pt]
	if a == nil || hit < a.at || a.left <= 0 {
		return 0, false
	}
	a.left--
	if a.left == 0 {
		delete(p.armed, pt)
	}
	p.firings = append(p.firings, Firing{Point: pt, Hit: hit, Kind: kind})
	if p.rec != nil {
		p.rec.InstantNote(obs.TrackEngine, obs.PhaseFault, string(pt))
		p.rec.Metrics().Counter("faults.injected").Add(1)
	}
	return hit, true
}

// Check consults pt and returns the injected *Error when it fires.
func (p *Plane) Check(pt Point) error {
	if p == nil {
		return nil
	}
	if hit, ok := p.trigger(pt, "error"); ok {
		return &Error{Point: pt, Hit: hit}
	}
	return nil
}

// Stall consults pt; when it fires, the caller parks until its local
// cancel channel closes or ReleaseStalls runs, then gets the injected
// *Error back (the phase must abort, not resume half-done). A stall on
// an already-released plane errors without parking, so a watchdog trip
// also defuses points hit later in the same attempt.
func (p *Plane) Stall(pt Point, cancel <-chan struct{}) error {
	if p == nil {
		return nil
	}
	hit, ok := p.trigger(pt, "stall")
	if !ok {
		return nil
	}
	select {
	case <-p.release:
	case <-cancel:
	}
	return &Error{Point: pt, Hit: hit, Stall: true}
}

// Corrupt consults pt; when it fires, one seed-chosen byte of buf is
// flipped in place. Reports whether it fired. An empty buf counts the
// hit but corrupts nothing.
func (p *Plane) Corrupt(pt Point, buf []byte) bool {
	if p == nil {
		return false
	}
	_, ok := p.trigger(pt, "corrupt")
	if !ok {
		return false
	}
	if len(buf) > 0 {
		buf[int(p.mix(pt)%uint64(len(buf)))] ^= 0xa5
	}
	return ok
}

// ReleaseStalls frees every parked stall — and pre-releases future ones —
// with their injected errors. Idempotent. The deadline watchdog calls
// this on expiry so a hung phase unwinds through its normal error path.
func (p *Plane) ReleaseStalls() {
	if p == nil {
		return
	}
	p.mu.Lock()
	if !p.released {
		p.released = true
		close(p.release)
	}
	p.mu.Unlock()
}

// Firings returns the record of every fault that fired, in order.
func (p *Plane) Firings() []Firing {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]Firing, len(p.firings))
	copy(out, p.firings)
	return out
}

// Fired reports whether pt has fired at least once.
func (p *Plane) Fired(pt Point) bool {
	if p == nil {
		return false
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, f := range p.firings {
		if f.Point == pt {
			return true
		}
	}
	return false
}
