package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/faultinject"
	"repro/internal/kernel"
	"repro/internal/obs"
	"repro/internal/program"
	"repro/internal/types"
)

// TestPhaseTable pins the one declaration of the lifecycle's phases: every
// row names a budget key, an obs span and a default budget, the names are
// distinct, and DefaultPhaseDeadlines is exactly the table.
func TestPhaseTable(t *testing.T) {
	defaults := DefaultPhaseDeadlines()
	if len(defaults) != len(phaseTable) {
		t.Errorf("DefaultPhaseDeadlines has %d keys, the table %d rows (duplicate name?)",
			len(defaults), len(phaseTable))
	}
	for i, ph := range phaseTable {
		if ph.name == "" || ph.span == "" {
			t.Errorf("row %d: name %q span %q, want both set", i, ph.name, ph.span)
		}
		if ph.deadline <= 0 || defaults[ph.name] != ph.deadline {
			t.Errorf("phase %s: table budget %v, default profile %v", ph.name, ph.deadline, defaults[ph.name])
		}
	}
}

// phaseIndex returns name's row in the phase table, or -1.
func phaseIndex(name string) int {
	for i, ph := range phaseTable {
		if ph.name == name {
			return i
		}
	}
	return -1
}

// TestSchedulesEquivalentAndLedgerCloses drives the one lifecycle through
// {cold, warm} × {sequential, pipelined} × {commit, rollback on
// a RESTART conflict}. The two schedules must be indistinguishable by
// result (same transfer checksum and post-update state digest on commit;
// a bit-identical, fully restored old instance on rollback), and every
// run's phase records must be a well-formed ledger: table order, every
// span closed, and — on commit — in-window durations that sum to the
// downtime exactly.
func TestSchedulesEquivalentAndLedgerCloses(t *testing.T) {
	flavors := []struct {
		name string
		warm bool
	}{
		{"cold", false},
		{"warm", true},
	}
	type outcome struct{ checksum, digest uint64 }
	for _, fl := range flavors {
		for _, rollback := range []bool{false, true} {
			var bySchedule [2]outcome
			for si, sequential := range []bool{true, false} {
				name := fmt.Sprintf("%s/sequential=%v/rollback=%v", fl.name, sequential, rollback)
				t.Run(name, func(t *testing.T) {
					rec := obs.New(1 << 16)
					e, k := launchEchod(t, Options{Sequential: sequential, Audit: true, Recorder: rec})
					defer e.Shutdown()
					if fl.warm {
						armWarm(t, e)
					}
					cc, err := k.Connect(7000)
					if err != nil {
						t.Fatal(err)
					}
					sendRecv(t, cc, "a")
					sendRecv(t, cc, "b")
					if fl.warm && !e.WarmWait(10*time.Second) {
						t.Fatalf("warm daemon never caught up: %+v", e.WarmStatus())
					}
					old := e.Current()
					var snap *checkpoint.Snapshotter
					if fl.warm {
						snap = armedSnapshot(t, e)
					}

					port := 7000
					if rollback {
						port = 7001 // v2 binds another port: a replay conflict in RESTART
					}
					rep, err := e.Update(echodVersion("2.0", 1, "v2", true, port))
					adoptedDiscarded := snap != nil && snap.Discarded()
					e.DisarmWarm() // quiet the re-armed daemon before reading the recorder

					if rollback {
						if !errors.Is(err, ErrUpdateFailed) || !rep.RolledBack {
							t.Fatalf("conflicting update did not roll back (err=%v)", err)
						}
						// DisarmWarm restores the same address spaces'
						// bits, so consumedPages alone cannot tell whether
						// the update discarded the snapshotter it adopted.
						if snap != nil && !adoptedDiscarded {
							t.Error("rollback did not discard the adopted snapshotter")
						}
						if !rep.RollbackVerified || !rep.RollbackIdentical {
							t.Errorf("rollback audit: verified=%v identical=%v", rep.RollbackVerified, rep.RollbackIdentical)
						}
						if n := consumedPages(old); n != 0 {
							t.Errorf("%d consumed soft-dirty pages not restored", n)
						}
					} else {
						if err != nil {
							t.Fatalf("Update: %v", err)
						}
						bySchedule[si] = outcome{rep.Transfer.Checksum, mustDigest(t, e.Current())}
						if bySchedule[si].checksum == 0 {
							t.Error("no transfer checksum: the update moved no state")
						}
					}
					if rep.Pipelined == sequential {
						t.Errorf("Pipelined = %v on sequential=%v", rep.Pipelined, sequential)
					}

					// The ledger: table order, no phase twice.
					last := -1
					var inWindow time.Duration
					for _, p := range rep.Phases {
						i := phaseIndex(p.Phase)
						if i <= last {
							t.Fatalf("phase records out of table order: %+v", rep.Phases)
						}
						last = i
						if p.InWindow != (i >= phQuiesce) {
							t.Errorf("phase %s InWindow = %v", p.Phase, p.InWindow)
						}
						if p.InWindow {
							inWindow += p.Dur
						}
					}
					wantLast := phCommit
					if rollback {
						wantLast = phRestart
					}
					if last != wantLast {
						t.Errorf("last phase record = %d, want %d: %+v", last, wantLast, rep.Phases)
					}
					if err := obs.CheckSpans(rec.Events()); err != nil {
						t.Errorf("malformed event stream: %v", err)
					}
					// In-window phases abut, so a commit's ledger closes
					// exactly. A rollback's window also holds the abort
					// itself, which is not a phase.
					if gap := rep.Downtime - inWindow; gap < 0 || (!rollback && gap != 0) {
						t.Errorf("in-window phases sum to %v, downtime %v: %+v", inWindow, rep.Downtime, rep.Phases)
					}
				})
			}
			// (Zero when -run selected only one of the two schedules.)
			if bySchedule[0] != (outcome{}) && bySchedule[1] != (outcome{}) && bySchedule[0] != bySchedule[1] {
				t.Errorf("%s: sequential %+v, pipelined %+v", fl.name, bySchedule[0], bySchedule[1])
			}
		}
	}
}

// scandVersion builds "scand": a root holding one large untyped buffer in
// which every word is a likely pointer — the slowest thing the
// conservative analysis can be handed — plus two idle forked workers. One
// analysis pass over it takes tens of milliseconds.
func scandVersion(release string, seq int) *program.Version {
	const bufBytes = 4 << 20
	return &program.Version{
		Program:     "scand",
		Release:     release,
		Seq:         seq,
		Types:       types.NewRegistry(),
		Globals:     []program.GlobalSpec{{Name: "anchor", Size: 64}},
		Annotations: program.NewAnnotations(),
		Main: func(th *program.Thread) error {
			th.Enter("main")
			defer th.Exit()
			if err := th.Call("scand_init", func() error {
				b, err := th.MallocBytes(bufBytes)
				if err != nil {
					return err
				}
				words := make([]byte, bufBytes)
				anchor := uint64(th.Proc().MustGlobal("anchor").Addr)
				for i := 0; i < len(words); i += 8 {
					binary.LittleEndian.PutUint64(words[i:], anchor)
				}
				return th.Proc().Space().WriteAt(b.Addr, words)
			}); err != nil {
				return err
			}
			for i := 0; i < 2; i++ {
				name := fmt.Sprintf("worker_%d", i)
				if _, err := th.ForkProc(name, func(ct *program.Thread) error {
					ct.Enter(name)
					defer ct.Exit()
					return idleLoop(ct)
				}); err != nil {
					return err
				}
			}
			return idleLoop(th)
		},
	}
}

// TestEarlyAbortLeavesNoAnalysisGoroutine is the regression test for the
// orphaned off-window analysis: a warm daemon poisoned by a failed epoch
// aborts the pipelined schedule before quiescence, and by the time Update
// returns no goroutine may still be analyzing the resumed old instance.
// (A goroutine count polled for seconds, as the fault matrix does, cannot
// see it.)
func TestEarlyAbortLeavesNoAnalysisGoroutine(t *testing.T) {
	plane := faultinject.New(1)
	e, err := NewEngine(kernel.New(), Options{Faults: plane})
	if err != nil {
		t.Fatal(err)
	}
	old, err := e.Launch(scandVersion("1.0", 0))
	if err != nil {
		t.Fatal(err)
	}
	defer e.Shutdown()
	armWarm(t, e)

	// scand writes nothing after startup: rewrite the anchor with its own
	// value so the daemon's next pass runs an epoch, which the armed point
	// fails.
	plane.Arm(faultinject.PointEpochFail)
	root := old.Root()
	anchor := root.MustGlobal("anchor")
	buf := make([]byte, 8)
	if err := root.Space().ReadAt(anchor.Addr, buf); err != nil {
		t.Fatal(err)
	}
	if err := root.Space().WriteAt(anchor.Addr, buf); err != nil {
		t.Fatal(err)
	}
	waitFired(t, plane, faultinject.PointEpochFail)
	rep, err := e.Update(scandVersion("2.0", 1))
	stack := make([]byte, 1<<20)
	stacks := string(stack[:runtime.Stack(stack, true)])
	if !errors.Is(err, ErrUpdateFailed) || rep.RollbackCause != "fault:epoch-fail" {
		t.Fatalf("Update err = %v, cause %q; want a fault:epoch-fail rollback", err, rep.RollbackCause)
	}
	if !rep.Pipelined {
		t.Fatal("scenario needs the pipelined schedule")
	}
	for _, g := range strings.Split(stacks, "\n\n") {
		// The daemon re-armed on the resumed instance analyzes it by
		// design; only a goroutine the aborted update left is an orphan.
		if strings.Contains(g, "repro/internal/trace.") && !strings.Contains(g, "checkpoint.(*Daemon)") {
			t.Errorf("goroutine still in internal/trace after Update returned:\n%s", g)
		}
	}
}

// lingerdVersion builds "lingerd": one idle process whose main thread,
// once told to stop, runs linger (if any) before it returns — so
// Instance.Terminate blocks for as long as linger does.
func lingerdVersion(release string, seq int, linger func()) *program.Version {
	return &program.Version{
		Program:     "lingerd",
		Release:     release,
		Seq:         seq,
		Types:       types.NewRegistry(),
		Annotations: program.NewAnnotations(),
		Main: func(th *program.Thread) error {
			th.Enter("main")
			defer th.Exit()
			err := idleLoop(th)
			if linger != nil {
				linger()
			}
			return err
		},
	}
}

// TestCommitBudgetBreachedPastCommitPointStands: commit's side effects are
// the point of no return — the old version is terminated there — so a
// commit budget that runs out *during* them must not roll anything back.
// The old version's main outlives its stop request until the watchdog has
// tripped, which makes old.Terminate, inside commit, the thing that
// breaches the budget.
func TestCommitBudgetBreachedPastCommitPointStands(t *testing.T) {
	rec := obs.New(1 << 12)
	breaches := rec.Metrics().Counter("core.deadline_breaches")
	e, err := NewEngine(kernel.New(), Options{Recorder: rec})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.SetPhaseDeadlines(map[string]time.Duration{WDCommit: 20 * time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	linger := func() {
		for end := time.Now().Add(5 * time.Second); breaches.Value() == 0 && time.Now().Before(end); {
			time.Sleep(time.Millisecond)
		}
	}
	if _, err := e.Launch(lingerdVersion("1.0", 0, linger)); err != nil {
		t.Fatal(err)
	}
	defer e.Shutdown()

	rep, err := e.Update(lingerdVersion("2.0", 1, nil))
	if breaches.Value() != 1 {
		t.Fatalf("scenario: the commit budget tripped %d times, want once", breaches.Value())
	}
	if err != nil || rep.RolledBack {
		t.Fatalf("update past its commit point was rolled back: err=%v cause=%q", err, rep.RollbackCause)
	}
	cur := e.Current()
	if cur == nil || cur.Version().Release != "2.0" || cur.Stopping() {
		t.Fatalf("current instance after the update: %v", cur)
	}
	// The committed version is alive: it can be updated in turn.
	if rep, err := e.Update(lingerdVersion("3.0", 2, nil)); err != nil {
		t.Fatalf("update of the committed version: %v (cause %q)", err, rep.RollbackCause)
	}
}
