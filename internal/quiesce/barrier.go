// Package quiesce implements MCR's quiescence machinery: the barrier
// synchronization protocol that blocks every program thread at a profiled
// quiescent point (§4), and the quiescence profiler that discovers those
// points from a test workload.
//
// The paper's unblockification turns each blocking call into
// timeout-sliced retries so the barrier can stop a thread between slices.
// Here the wait is edge-triggered instead: a blocking-call wrapper in the
// program layer waits on its event *or* the barrier's armed channel
// (ArmedChan) and on nothing else. Arm closes that channel, so arming
// wakes every blocked thread at once and it parks; a thread with no event
// and no armed barrier never wakes, and no blocking call runs on a timer.
package quiesce

import (
	"errors"
	"fmt"
	"math/rand"
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
	armedCh    chan struct{} // closed while armed, and for good once aborted
	aborted    bool
	registered map[int64]string   // thread id -> class name
	parked     map[int64]*parking // thread id -> its park
}

// parking is one parked thread: where it parked, and how Release wakes it.
type parking struct {
	site      string
	resume    chan struct{} // closed by Release
	directive Directive     // set before resume closes
}

// NewBarrier returns an unarmed barrier.
func NewBarrier() *Barrier {
	b := &Barrier{
		armedCh:    make(chan struct{}),
		registered: make(map[int64]string),
		parked:     make(map[int64]*parking),
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

// Arm requests quiescence: from now on, every thread that reaches a
// quiescent point parks, and closing the armed channel wakes every thread
// blocked at one.
func (b *Barrier) Arm() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if !b.armed && !b.aborted {
		close(b.armedCh)
	}
	b.armed = true
	b.cond.Broadcast()
}

// ArmedChan returns a channel that is closed while the barrier is armed
// (and for good after Release(Abort)). A thread takes it before it
// blocks and waits on it beside its event: if the channel is closed, the
// thread parks; if it closes during the wait, the thread wakes and parks.
func (b *Barrier) ArmedChan() <-chan struct{} {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.armedCh
}

// Park blocks the calling thread at the quiescent point named site until
// the barrier is released, and returns the release directive. If the
// barrier is not armed, Park returns at once: Abort once the barrier has
// been released with Abort, else Resume.
func (b *Barrier) Park(id int64, site string) Directive {
	b.mu.Lock()
	if !b.armed {
		d := Resume
		if b.aborted {
			d = Abort
		}
		b.mu.Unlock()
		return d
	}
	p := &parking{site: site, resume: make(chan struct{})}
	b.parked[id] = p
	b.cond.Broadcast()
	b.mu.Unlock()
	<-p.resume
	return p.directive
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
	for id, p := range b.parked {
		out[id] = p.site
	}
	return out
}

// Release disarms the barrier and wakes every parked thread with the
// directive. Resume hands out a fresh armed channel for the next Arm;
// Abort leaves it closed for good, so every thread that blocks later
// wakes at once and unwinds.
func (b *Barrier) Release(d Directive) {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch {
	case b.aborted:
	case d == Abort:
		if !b.armed {
			close(b.armedCh)
		}
		b.aborted = true
	case b.armed:
		b.armedCh = make(chan struct{})
	}
	b.armed = false
	// Wake the parked threads in random order: threads that share a wait
	// (listeners on one accept queue) re-enter it in that order, and a
	// fixed order would hand every connection after an update to the same
	// one.
	ps := make([]*parking, 0, len(b.parked))
	for _, p := range b.parked {
		ps = append(ps, p)
	}
	rand.Shuffle(len(ps), func(i, j int) { ps[i], ps[j] = ps[j], ps[i] })
	for _, p := range ps {
		p.directive = d
		close(p.resume)
	}
	b.parked = make(map[int64]*parking)
}
