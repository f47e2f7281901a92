package program_test

import (
	"errors"
	"testing"
	"time"

	"repro/internal/kernel"
	"repro/internal/leakcheck"
	"repro/internal/program"
	"repro/internal/quiesce"
	"repro/internal/types"
)

// Ports of the wake-contract server: nobody ever connects to the idle
// port; the reader takes one connection on the setup port, then reads it.
const (
	wakeIdlePort  = 7001
	wakeSetupPort = 7002
)

// wakeSites are the quiescent points of the wake-contract server, one per
// blocking wrapper.
var wakeSites = []string{
	"accept@waker", "read@waker", "epoll_wait@waker", "poll@waker",
	"cond@waker", "idle@waker", "wait@waker",
}

// wakeVersion is a server with one thread blocked in each blocking
// wrapper, none of which ever sees an event after set-up.
func wakeVersion() *program.Version {
	return &program.Version{
		Program: "waker", Release: "1", Types: types.NewRegistry(),
		Main: func(t *program.Thread) error {
			t.Enter("main")
			defer t.Exit()
			listen := func(port int) (int, error) {
				fd, err := t.Socket()
				if err != nil {
					return 0, err
				}
				if err := t.Bind(fd, port); err != nil {
					return 0, err
				}
				return fd, t.Listen(fd, 4)
			}
			idle, err := listen(wakeIdlePort)
			if err != nil {
				return err
			}
			setup, err := listen(wakeSetupPort)
			if err != nil {
				return err
			}
			epfd, err := t.EpollCreate()
			if err != nil {
				return err
			}
			if err := t.EpollAdd(epfd, idle); err != nil {
				return err
			}
			waits := map[string]func(*program.Thread) error{
				"acceptor": func(t *program.Thread) error { _, _, err := t.AcceptQP("accept@waker", idle); return err },
				"epoller":  func(t *program.Thread) error { _, err := t.EpollWaitQP("epoll_wait@waker", epfd); return err },
				"poller":   func(t *program.Thread) error { _, err := t.PollQP("poll@waker", []int{idle}); return err },
				"conder": func(t *program.Thread) error {
					return t.CondQP("cond@waker", func() (bool, error) { return false, nil })
				},
				"idler":  func(t *program.Thread) error { return t.IdleQP("idle@waker") },
				"waiter": func(t *program.Thread) error { return t.WaitQP("wait@waker") },
				"reader": func(t *program.Thread) error {
					cfd, _, err := t.AcceptQP("accept@waker_setup", setup)
					if err != nil {
						return err
					}
					for {
						if _, err := t.ReadQP("read@waker", cfd); err != nil {
							return err
						}
					}
				},
			}
			for class, wait := range waits {
				if _, err := t.SpawnThread(class, func(t *program.Thread) error {
					return t.Loop(class+"_loop", func() error {
						if err := wait(t); err != nil {
							if errors.Is(err, program.ErrStopped) {
								return program.ErrLoopExit
							}
							return err
						}
						return nil
					})
				}); err != nil {
					return err
				}
			}
			return t.Loop("main_loop", func() error {
				if err := t.WaitQP("wait@waker_main"); err != nil {
					if errors.Is(err, program.ErrStopped) {
						return program.ErrLoopExit
					}
					return err
				}
				return nil
			})
		},
	}
}

// startWaker launches the wake-contract server, hands the reader its
// connection and returns once every thread blocks at its quiescent point.
func startWaker(t *testing.T, instr program.Instr, prof *quiesce.Profiler) (*program.Instance, *kernel.ClientConn) {
	t.Helper()
	k := kernel.New()
	inst, err := program.NewInstance(wakeVersion(), k, program.Options{Instr: instr, Profiler: prof})
	if err != nil {
		t.Fatal(err)
	}
	if err := inst.Start(); err != nil {
		t.Fatal(err)
	}
	if err := inst.WaitStartup(5 * time.Second); err != nil {
		t.Fatalf("WaitStartup: %v", err)
	}
	inst.CompleteStartup()
	inst.Resume()
	cc, err := k.Connect(wakeSetupPort)
	if err != nil {
		t.Fatal(err)
	}
	// The reader has its connection once it blocks in the read.
	for deadline := time.Now().Add(5 * time.Second); k.ListenerBacklog(wakeSetupPort) > 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the reader never accepted its connection")
		}
	}
	return inst, cc
}

// TestQuiescentPointWakeContract: with no event, a thread blocked at any
// quiescent point never wakes (no block completes in an idle window), and
// arming the barrier wakes every one of them into its park.
func TestQuiescentPointWakeContract(t *testing.T) {
	g0 := leakcheck.Goroutines()
	prof := quiesce.NewProfiler()
	prof.Start()
	inst, cc := startWaker(t, program.InstrQDet, prof)

	// Quiesce once so that every thread has provably reached its wait.
	if _, err := inst.Quiesce(5 * time.Second); err != nil {
		t.Fatalf("Quiesce: %v", err)
	}
	inst.Resume()
	before := prof.BlocksEnded()
	time.Sleep(50 * time.Millisecond)
	if n := prof.BlocksEnded() - before; n != 0 {
		t.Errorf("%d blocks ended in an idle, unarmed window: a wait woke without an event", n)
	}

	if _, err := inst.Quiesce(5 * time.Second); err != nil {
		t.Fatalf("Quiesce from blocked waits: %v", err)
	}
	parked := map[string]bool{}
	for _, site := range inst.Barrier().ParkedSites() {
		parked[site] = true
	}
	for _, site := range wakeSites {
		if !parked[site] {
			t.Errorf("no thread parked at %s (parked: %v)", site, inst.Barrier().ParkedSites())
		}
	}
	for _, c := range prof.Report().Classes {
		if c.QuiescentPoint == "" {
			t.Errorf("class %s: the profiler saw no quiescent point", c.Name)
		}
	}

	inst.Terminate()
	cc.Close()
	if err := leakcheck.CheckGoroutines(g0, 5*time.Second); err != nil {
		t.Error(err)
	}
}

// TestUnhonouredBarrierDoesNotSpin: below InstrQDet a thread stops
// honouring the barrier after startup, so an armed barrier must neither
// park nor wake it — it stays blocked on its event until Terminate.
func TestUnhonouredBarrierDoesNotSpin(t *testing.T) {
	g0 := leakcheck.Goroutines()
	prof := quiesce.NewProfiler()
	prof.Start()
	inst, cc := startWaker(t, program.InstrUnblock, prof)
	time.Sleep(10 * time.Millisecond) // let every thread reach its wait
	before := prof.BlocksEnded()
	if _, err := inst.Quiesce(50 * time.Millisecond); !errors.Is(err, quiesce.ErrQuiesceTimeout) {
		t.Fatalf("Quiesce below InstrQDet: err = %v, want a timeout", err)
	}
	if n := prof.BlocksEnded() - before; n != 0 {
		t.Errorf("%d blocks ended under an armed barrier the threads do not honour", n)
	}
	if sites := inst.Barrier().ParkedSites(); len(sites) != 0 {
		t.Errorf("threads parked below InstrQDet: %v", sites)
	}
	inst.Terminate()
	cc.Close()
	if err := leakcheck.CheckGoroutines(g0, 5*time.Second); err != nil {
		t.Error(err)
	}
}
