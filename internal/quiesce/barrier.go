// Package quiesce implements MCR's quiescence machinery: the barrier
// synchronization protocol that blocks every program thread at a profiled
// quiescent point (§4), and the quiescence profiler that discovers those
// points from a test workload. Blocking-call wrappers in the program layer
// ("unblockification") poll the barrier between timeout slices, so no
// thread ever blocks in the kernel beyond one slice while an update is
// pending.
package quiesce

import (
	"errors"
	"fmt"
	"sync"
	"time"
)

// Directive tells a parked thread what to do when the barrier releases.
type Directive int

// Directives.
const (
	// Resume: continue normal execution (update committed in the new
	// version, or rolled back in the old version).
	Resume Directive = iota
	// Abort: unwind and terminate (this version is being discarded).
	Abort
)

// ErrQuiesceTimeout is returned when the program fails to reach quiescence
// within the allotted time, which MCR treats as a failed update attempt.
var ErrQuiesceTimeout = errors.New("quiesce: convergence timed out")

// Barrier coordinates quiescence for one program instance. Threads
// register when they start, deregister when they exit, and Park at their
// quiescent points whenever the barrier is armed. A controller arms the
// barrier, waits for convergence, and eventually releases every parked
// thread with a directive.
//
// The barrier may also be armed *before* program startup (the controller
// thread of mutable reinitialization): threads then park at their first
// quiescent point and the program converges to a quiescent state without
// ever consuming external events.
type Barrier struct {
	mu         sync.Mutex
	cond       *sync.Cond
	armed      bool
	directive  Directive
	generation uint64
	registered map[int64]string // thread id -> class name
	parked     map[int64]string // thread id -> quiescent point site
}

// NewBarrier returns an unarmed barrier.
func NewBarrier() *Barrier {
	b := &Barrier{
		registered: make(map[int64]string),
		parked:     make(map[int64]string),
	}
	b.cond = sync.NewCond(&b.mu)
	return b
}

// Register adds a thread to the barrier's accounting.
func (b *Barrier) Register(id int64, class string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.registered[id] = class
	b.cond.Broadcast()
}

// Deregister removes an exiting thread. A quiescing program converges when
// every still-registered thread is parked, so threads that finish and exit
// (short-lived classes) simply drop out of the count.
func (b *Barrier) Deregister(id int64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	delete(b.registered, id)
	delete(b.parked, id)
	b.cond.Broadcast()
}

// Arm requests quiescence: from now on, every thread that reaches (or
// polls at) a quiescent point parks.
func (b *Barrier) Arm() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.armed = true
	b.cond.Broadcast()
}

// Armed reports whether quiescence is currently requested. Unblockified
// wrappers check this between timeout slices.
func (b *Barrier) Armed() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.armed
}

// Park blocks the calling thread at the quiescent point named site until
// the barrier is released, and returns the release directive. If the
// barrier is not armed, Park returns Resume immediately.
func (b *Barrier) Park(id int64, site string) Directive {
	b.mu.Lock()
	defer b.mu.Unlock()
	if !b.armed {
		return Resume
	}
	b.parked[id] = site
	gen := b.generation
	b.cond.Broadcast()
	for b.armed && b.generation == gen {
		b.cond.Wait()
	}
	// Release cleared the parked map atomically with the generation bump,
	// so a back-to-back re-Arm can never observe this thread as still
	// parked while it is in fact resuming.
	return b.directive
}

// WaitQuiesced blocks until every registered thread is parked, or the
// timeout expires. It returns the time convergence took.
func (b *Barrier) WaitQuiesced(timeout time.Duration) (time.Duration, error) {
	return b.WaitQuiescedOr(timeout, nil)
}

// WaitQuiescedOr is WaitQuiesced with a way out: abort (when non-nil) is
// consulted before every check, and a non-nil result ends the wait with
// that error. It runs with the barrier's lock held, so it must not call
// back into the barrier; whoever changes what it reads calls Wake
// afterwards, holding none of the locks abort takes. The waiter sleeps on
// the barrier's condition variable throughout — every thread that parks,
// registers or exits signals it — and a single timer bounds the wait.
func (b *Barrier) WaitQuiescedOr(timeout time.Duration, abort func() error) (time.Duration, error) {
	start := time.Now()
	deadline := start.Add(timeout)
	waker := time.AfterFunc(timeout, b.Wake)
	defer waker.Stop()
	b.mu.Lock()
	defer b.mu.Unlock()
	for {
		if abort != nil {
			if err := abort(); err != nil {
				return 0, err
			}
		}
		if b.armed && len(b.parked) == len(b.registered) && len(b.registered) > 0 {
			return time.Since(start), nil
		}
		if !time.Now().Before(deadline) {
			return 0, fmt.Errorf("%w: %d/%d threads parked",
				ErrQuiesceTimeout, len(b.parked), len(b.registered))
		}
		b.cond.Wait()
	}
}

// Wake makes every WaitQuiescedOr waiter re-evaluate its abort predicate.
func (b *Barrier) Wake() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.cond.Broadcast()
}

// Quiesced reports whether all registered threads are currently parked.
func (b *Barrier) Quiesced() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.armed && len(b.parked) == len(b.registered) && len(b.registered) > 0
}

// ParkedSites returns a snapshot of thread id -> quiescent point for all
// parked threads (consumed by stack-metadata tracing and diagnostics).
func (b *Barrier) ParkedSites() map[int64]string {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make(map[int64]string, len(b.parked))
	for id, s := range b.parked {
		out[id] = s
	}
	return out
}

// Release disarms the barrier and wakes every parked thread with the
// directive.
func (b *Barrier) Release(d Directive) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.armed = false
	b.directive = d
	b.generation++
	b.parked = make(map[int64]string)
	b.cond.Broadcast()
}

// RegisteredCount returns the number of registered threads.
func (b *Barrier) RegisteredCount() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.registered)
}
