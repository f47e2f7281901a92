package quiesce

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// simThread models an unblockified server thread: it loops, polls the
// barrier between timeout slices, and parks when armed. The caller must
// have Registered id already (as the program layer does before starting a
// thread), so that arming cannot race with registration.
func simThread(b *Barrier, id int64, site string, stopped *atomic.Bool, wg *sync.WaitGroup) {
	defer wg.Done()
	defer b.Deregister(id)
	for {
		if b.Armed() {
			if b.Park(id, site) == Abort {
				return
			}
		}
		if stopped.Load() {
			return
		}
		time.Sleep(100 * time.Microsecond) // simulated timeout slice
	}
}

func TestBarrierConvergesAndResumes(t *testing.T) {
	b := NewBarrier()
	var stopped atomic.Bool
	var wg sync.WaitGroup
	for i := int64(1); i <= 8; i++ {
		b.Register(i, "worker")
		wg.Add(1)
		go simThread(b, i, "accept@loop", &stopped, &wg)
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
	stopped.Store(true)
	b.Release(Resume)
	wg.Wait()
}

func TestBarrierAbortDirective(t *testing.T) {
	b := NewBarrier()
	var stopped atomic.Bool
	var wg sync.WaitGroup
	b.Register(1, "worker")
	wg.Add(1)
	go simThread(b, 1, "qp", &stopped, &wg)
	b.Arm()
	if _, err := b.WaitQuiesced(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	b.Release(Abort)
	// Thread must exit on Abort without stopped being set.
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
	var stopped atomic.Bool
	var wg sync.WaitGroup
	b.Register(1, "worker")
	wg.Add(1)
	go simThread(b, 1, "qp", &stopped, &wg)
	b.Register(2, "short-lived")
	b.Arm()
	go func() {
		time.Sleep(5 * time.Millisecond)
		b.Deregister(2)
	}()
	if _, err := b.WaitQuiesced(2 * time.Second); err != nil {
		t.Fatalf("WaitQuiesced: %v", err)
	}
	stopped.Store(true)
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
	var stopped atomic.Bool
	var wg sync.WaitGroup
	b.Register(1, "worker")
	wg.Add(1)
	go simThread(b, 1, "first-qp", &stopped, &wg)
	if _, err := b.WaitQuiesced(2 * time.Second); err != nil {
		t.Fatalf("pre-armed convergence: %v", err)
	}
	stopped.Store(true)
	b.Release(Resume)
	wg.Wait()
}

func TestBarrierReuseAcrossGenerations(t *testing.T) {
	b := NewBarrier()
	var stopped atomic.Bool
	var wg sync.WaitGroup
	b.Register(1, "worker")
	wg.Add(1)
	go simThread(b, 1, "qp", &stopped, &wg)
	for round := 0; round < 3; round++ {
		b.Arm()
		if _, err := b.WaitQuiesced(2 * time.Second); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		b.Release(Resume)
	}
	stopped.Store(true)
	wg.Wait()
}

func TestProfilerQuiescentPointSelection(t *testing.T) {
	p := NewProfiler()
	p.Start()
	p.ThreadStarted("worker", true)
	// The thread spends most blocking time in accept, some in a mutex.
	p.RecordBlock("worker", "accept@main_loop", 100*time.Millisecond)
	p.RecordBlock("worker", "lock@handler", 5*time.Millisecond)
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
	p := NewProfiler()
	p.Start()
	p.ThreadStarted("master", true)
	p.RecordBlock("master", "accept@master", time.Second)
	// Per-connection handler spawned after startup: volatile.
	p.ThreadStarted("session", false)
	p.RecordBlock("session", "read@session_loop", time.Second)
	rep := p.Report()
	if rep.QuiescentPoints() != 2 {
		t.Fatalf("QP = %d, want 2", rep.QuiescentPoints())
	}
	if rep.Persistent() != 1 || rep.Volatile() != 1 {
		t.Errorf("Per/Vol = %d/%d, want 1/1", rep.Persistent(), rep.Volatile())
	}
}

func TestProfilerInactiveDropsSamples(t *testing.T) {
	p := NewProfiler()
	p.ThreadStarted("w", true)
	p.RecordBlock("w", "site", time.Second) // not started: dropped
	p.Start()
	p.Stop()
	p.RecordBlock("w", "site2", time.Second) // stopped: dropped
	rep := p.Report()
	tc, _ := rep.Class("w")
	if tc.QuiescentPoint != "" {
		t.Errorf("QP = %q, want none (samples outside active window)", tc.QuiescentPoint)
	}
}

func TestProfilerDeterministicTieBreak(t *testing.T) {
	p := NewProfiler()
	p.Start()
	p.ThreadStarted("w", true)
	p.RecordBlock("w", "zeta", 10*time.Millisecond)
	p.RecordBlock("w", "alpha", 10*time.Millisecond)
	rep1 := p.Report()
	rep2 := p.Report()
	c1, _ := rep1.Class("w")
	c2, _ := rep2.Class("w")
	if c1.QuiescentPoint != c2.QuiescentPoint {
		t.Error("tie-break not deterministic")
	}
}
