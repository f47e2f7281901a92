package quiesce

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// simThread models an unblockified server thread blocked at its quiescent
// point with no event: it waits on the barrier's armed channel alone,
// parks when it closes, and exits on Abort or once stop closes. The caller
// must have Registered id already (as the program layer does before
// starting a thread), so that arming cannot race with registration.
func simThread(b *Barrier, id int64, site string, stop <-chan struct{}, wg *sync.WaitGroup) {
	defer wg.Done()
	defer b.Deregister(id)
	for {
		select {
		case <-b.ArmedChan():
			if b.Park(id, site) == Abort {
				return
			}
		case <-stop:
			return
		}
	}
}

func TestBarrierConvergesAndResumes(t *testing.T) {
	b := NewBarrier()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := int64(1); i <= 8; i++ {
		b.Register(i, "worker")
		wg.Add(1)
		go simThread(b, i, "accept@loop", stop, &wg)
	}
	b.Arm()
	d, err := b.WaitQuiesced(2 * time.Second)
	if err != nil {
		t.Fatalf("WaitQuiesced: %v", err)
	}
	if d <= 0 {
		t.Error("convergence time not positive")
	}
	if !b.Quiesced() {
		t.Error("Quiesced() = false after convergence")
	}
	sites := b.ParkedSites()
	if len(sites) != 8 {
		t.Errorf("parked = %d, want 8", len(sites))
	}
	for id, s := range sites {
		if s != "accept@loop" {
			t.Errorf("thread %d parked at %q", id, s)
		}
	}
	close(stop)
	b.Release(Resume)
	wg.Wait()
}

func TestBarrierAbortDirective(t *testing.T) {
	b := NewBarrier()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	b.Register(1, "worker")
	wg.Add(1)
	go simThread(b, 1, "qp", stop, &wg)
	b.Arm()
	if _, err := b.WaitQuiesced(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	b.Release(Abort)
	// Thread must exit on Abort without stop being closed.
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("thread did not exit on Abort")
	}
}

func TestBarrierTimeoutWhenThreadStuck(t *testing.T) {
	b := NewBarrier()
	b.Register(1, "stuck") // never parks
	b.Arm()
	_, err := b.WaitQuiesced(20 * time.Millisecond)
	if !errors.Is(err, ErrQuiesceTimeout) {
		t.Errorf("err = %v, want ErrQuiesceTimeout", err)
	}
	b.Release(Resume)
}

// TestWaitQuiescedOrAbortsOnWake: a waiter that cannot converge (its one
// thread never parks) leaves the moment its abort predicate turns true and
// Wake is called — no polling interval, and long before the timeout.
func TestWaitQuiescedOrAbortsOnWake(t *testing.T) {
	b := NewBarrier()
	b.Register(1, "stuck")
	b.Arm()
	var failure atomic.Pointer[error]
	abort := func() error {
		if e := failure.Load(); e != nil {
			return *e
		}
		return nil
	}
	res := make(chan error, 1)
	go func() {
		_, err := b.WaitQuiescedOr(time.Minute, abort)
		res <- err
	}()
	select {
	case err := <-res:
		t.Fatalf("returned before the abort condition held: %v", err)
	case <-time.After(20 * time.Millisecond):
	}
	boom := errors.New("startup failed")
	failure.Store(&boom)
	b.Wake()
	select {
	case err := <-res:
		if err != boom {
			t.Fatalf("err = %v, want the abort predicate's error", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Wake did not end the wait")
	}
}

func TestBarrierDeregisterUnblocksConvergence(t *testing.T) {
	// A short-lived thread that exits (deregisters) instead of parking
	// must not block convergence.
	b := NewBarrier()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	b.Register(1, "worker")
	wg.Add(1)
	go simThread(b, 1, "qp", stop, &wg)
	b.Register(2, "short-lived")
	b.Arm()
	go func() {
		time.Sleep(5 * time.Millisecond)
		b.Deregister(2)
	}()
	if _, err := b.WaitQuiesced(2 * time.Second); err != nil {
		t.Fatalf("WaitQuiesced: %v", err)
	}
	close(stop)
	b.Release(Resume)
	wg.Wait()
}

func TestParkWithoutArmReturnsImmediately(t *testing.T) {
	b := NewBarrier()
	b.Register(1, "w")
	done := make(chan Directive, 1)
	go func() { done <- b.Park(1, "qp") }()
	select {
	case d := <-done:
		if d != Resume {
			t.Errorf("directive = %v, want Resume", d)
		}
	case <-time.After(time.Second):
		t.Fatal("Park blocked with unarmed barrier")
	}
}

func TestPreArmedBarrierParksAtFirstQP(t *testing.T) {
	// Mutable reinitialization arms the barrier before startup: threads
	// park at their first quiescent point and never consume events.
	b := NewBarrier()
	b.Arm()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	b.Register(1, "worker")
	wg.Add(1)
	go simThread(b, 1, "first-qp", stop, &wg)
	if _, err := b.WaitQuiesced(2 * time.Second); err != nil {
		t.Fatalf("pre-armed convergence: %v", err)
	}
	close(stop)
	b.Release(Resume)
	wg.Wait()
}

func TestBarrierReuseAcrossGenerations(t *testing.T) {
	b := NewBarrier()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	b.Register(1, "worker")
	wg.Add(1)
	go simThread(b, 1, "qp", stop, &wg)
	for round := 0; round < 3; round++ {
		b.Arm()
		if _, err := b.WaitQuiesced(2 * time.Second); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		b.Release(Resume)
	}
	close(stop)
	wg.Wait()
}

// TestReleaseOrderIsRandom: Release wakes parked threads in random order.
// Threads that share a wait re-enter it in the order they resume, so a
// fixed order would let one of two listeners on a shared accept queue win
// every connection after every update. Two threads race to be first back
// after each of 200 releases; each must win a fair share.
func TestReleaseOrderIsRandom(t *testing.T) {
	const rounds = 200
	b := NewBarrier()
	var round atomic.Int64
	var winner [rounds]atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for id := int64(1); id <= 2; id++ {
		b.Register(id, "listener")
		wg.Add(1)
		go func(id int64) {
			defer wg.Done()
			defer b.Deregister(id)
			for {
				select {
				case <-b.ArmedChan():
					b.Park(id, "accept")
					// The next round cannot release before this thread
					// parks again, so round still names this release.
					winner[round.Load()].CompareAndSwap(0, id)
				case <-stop:
					return
				}
			}
		}(id)
	}
	for r := 0; r < rounds; r++ {
		b.Arm()
		if _, err := b.WaitQuiesced(5 * time.Second); err != nil {
			t.Fatal(err)
		}
		round.Store(int64(r))
		b.Release(Resume)
	}
	close(stop)
	wg.Wait()
	wins := map[int64]int{}
	for r := range winner {
		wins[winner[r].Load()]++
	}
	if wins[1] < rounds/5 || wins[2] < rounds/5 {
		t.Errorf("first back after a release: thread 1 %d, thread 2 %d of %d times", wins[1], wins[2], rounds)
	}
}

// fakeClock drives a profiler's time by hand.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }

func newTestProfiler() (*Profiler, *fakeClock) {
	c := &fakeClock{t: time.Unix(1, 0)}
	p := NewProfiler()
	p.now = c.now
	return p, c
}

// block records one blocking call of thread id lasting d.
func block(p *Profiler, c *fakeClock, id int64, class, site string, d time.Duration) {
	p.BlockBegin(id, class, site)
	c.advance(d)
	p.BlockEnd(id)
}

func TestProfilerQuiescentPointSelection(t *testing.T) {
	p, c := newTestProfiler()
	p.Start()
	p.ThreadStarted("worker", true)
	// The thread spends most blocking time in accept, some in a mutex.
	block(p, c, 1, "worker", "accept@main_loop", 100*time.Millisecond)
	block(p, c, 1, "worker", "lock@handler", 5*time.Millisecond)
	p.RecordLoopIter("worker", "main_loop", 1)
	p.RecordLoopIter("worker", "retry_loop", 2)
	p.RecordLoopExit("worker", "retry_loop")
	rep := p.Report()

	tc, ok := rep.Class("worker")
	if !ok {
		t.Fatal("worker class missing from report")
	}
	if !tc.LongLived {
		t.Error("live thread class reported short-lived")
	}
	if tc.QuiescentPoint != "accept@main_loop" {
		t.Errorf("QP = %q, want accept@main_loop", tc.QuiescentPoint)
	}
	if tc.Loop != "main_loop" {
		t.Errorf("loop = %q, want main_loop (retry_loop exited)", tc.Loop)
	}
	if !tc.Persistent {
		t.Error("startup-started class not persistent")
	}
}

func TestProfilerShortLivedClass(t *testing.T) {
	p := NewProfiler()
	p.Start()
	p.ThreadStarted("daemonizer", true)
	p.ThreadEnded("daemonizer")
	p.ThreadStarted("worker", true)
	rep := p.Report()
	if rep.ShortLived() != 1 || rep.LongLived() != 1 {
		t.Errorf("SL/LL = %d/%d, want 1/1", rep.ShortLived(), rep.LongLived())
	}
}

func TestProfilerVolatileQP(t *testing.T) {
	p, c := newTestProfiler()
	p.Start()
	p.ThreadStarted("master", true)
	block(p, c, 1, "master", "accept@master", time.Second)
	// Per-connection handler spawned after startup: volatile.
	p.ThreadStarted("session", false)
	block(p, c, 2, "session", "read@session_loop", time.Second)
	rep := p.Report()
	if rep.QuiescentPoints() != 2 {
		t.Fatalf("QP = %d, want 2", rep.QuiescentPoints())
	}
	if rep.Persistent() != 1 || rep.Volatile() != 1 {
		t.Errorf("Per/Vol = %d/%d, want 1/1", rep.Persistent(), rep.Volatile())
	}
}

func TestProfilerInactiveDropsSamples(t *testing.T) {
	p, c := newTestProfiler()
	p.ThreadStarted("w", true)
	block(p, c, 1, "w", "site", time.Second) // not started: dropped
	p.Start()
	p.Stop()
	block(p, c, 1, "w", "site2", time.Second) // stopped: dropped
	rep := p.Report()
	tc, _ := rep.Class("w")
	if tc.QuiescentPoint != "" {
		t.Errorf("QP = %q, want none (samples outside active window)", tc.QuiescentPoint)
	}
	if n := p.BlocksEnded(); n != 0 {
		t.Errorf("BlocksEnded = %d, want 0 outside the active window", n)
	}
}

// TestProfilerCountsOpenBlocks: an edge-triggered wait that never sees its
// event never ends, yet it is where its thread sits. Report credits it up
// to report time, only inside the active window, and ends nothing.
func TestProfilerCountsOpenBlocks(t *testing.T) {
	p, c := newTestProfiler()
	p.Start()
	p.ThreadStarted("w", true)
	block(p, c, 1, "w", "lock@handler", 10*time.Millisecond)
	p.BlockBegin(2, "w", "read@loop")
	c.advance(5 * time.Millisecond)
	if tc, _ := p.Report().Class("w"); tc.QuiescentPoint != "lock@handler" {
		t.Fatalf("QP = %q, want lock@handler (10ms ended vs 5ms open)", tc.QuiescentPoint)
	}
	c.advance(10 * time.Millisecond)
	if tc, _ := p.Report().Class("w"); tc.QuiescentPoint != "read@loop" {
		t.Fatalf("QP = %q, want read@loop (15ms open vs 10ms ended)", tc.QuiescentPoint)
	}
	if n := p.BlocksEnded(); n != 1 {
		t.Errorf("BlocksEnded = %d, want 1 (Report ends nothing)", n)
	}
	// Stop credits the open block up to now; time after it is not counted.
	p.Stop()
	p.BlockBegin(3, "w", "lock@handler")
	c.advance(time.Hour)
	if tc, _ := p.Report().Class("w"); tc.QuiescentPoint != "read@loop" {
		t.Errorf("QP = %q after Stop, want read@loop", tc.QuiescentPoint)
	}

	// A block begun before Start counts from Start.
	p, c = newTestProfiler()
	p.ThreadStarted("w", true)
	p.BlockBegin(1, "w", "early")
	c.advance(time.Hour)
	p.Start()
	c.advance(time.Millisecond)
	p.BlockEnd(1)
	block(p, c, 2, "w", "late", 2*time.Millisecond)
	if tc, _ := p.Report().Class("w"); tc.QuiescentPoint != "late" {
		t.Errorf("QP = %q, want late (the early block's hour before Start is not counted)", tc.QuiescentPoint)
	}
}

func TestProfilerDeterministicTieBreak(t *testing.T) {
	p, c := newTestProfiler()
	p.Start()
	p.ThreadStarted("w", true)
	block(p, c, 1, "w", "zeta", 10*time.Millisecond)
	block(p, c, 1, "w", "alpha", 10*time.Millisecond)
	rep1 := p.Report()
	rep2 := p.Report()
	c1, _ := rep1.Class("w")
	c2, _ := rep2.Class("w")
	if c1.QuiescentPoint != c2.QuiescentPoint {
		t.Error("tie-break not deterministic")
	}
}
