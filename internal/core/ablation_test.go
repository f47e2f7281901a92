package core

import (
	"errors"
	"testing"
	"time"

	"repro/internal/kernel"
	"repro/internal/mem"
	"repro/internal/program"
	"repro/internal/replaylog"
	"repro/internal/types"
)

// TestGlobalOrderStrategyOnDeterministicStartup: the global-ordering
// baseline works when the new version's startup issues operations in
// exactly the recorded order (echod is single-threaded and deterministic).
// Its fragility under reordering is covered by replaylog tests and the
// BenchmarkReplayMatching ablation.
func TestGlobalOrderStrategyOnDeterministicStartup(t *testing.T) {
	e, k := launchEchod(t, Options{ReplayStrategy: replaylog.StrategyGlobalOrder})
	defer e.Shutdown()
	cc, _ := k.Connect(7000)
	sendRecv(t, cc, "a")
	rep, err := e.Update(echodVersion("2.0", 1, "v2", true, 7000))
	if err != nil || rep.RolledBack {
		t.Fatalf("global-order update failed: %v", err)
	}
	if got := sendRecv(t, cc, "b"); got != "v2:b:2" {
		t.Errorf("reply = %q", got)
	}
}

// hiddenPtrVersion is a minimal server with a hidden pointer: a char
// buffer holding the address of a heap blob that nothing else references.
func hiddenPtrVersion(release string, seq int) *program.Version {
	reg := types.NewRegistry()
	buf := types.ArrayOf(16, types.Scalar(types.KindUint8))
	buf.Name = "buf16"
	reg.Define(buf)
	reg.Define(types.StructOf("cfg_s",
		types.Field{Name: "x", Type: types.Scalar(types.KindInt64)}))
	return &program.Version{
		Program: "hidden", Release: release, Seq: seq, Types: reg,
		Globals: []program.GlobalSpec{
			{Name: "stash", Type: "buf16"},
		},
		Annotations: program.NewAnnotations(),
		Main: func(t *program.Thread) error {
			t.Enter("main")
			defer t.Exit()
			var lfd int
			err := t.Call("init", func() error {
				var err error
				lfd, err = t.Socket()
				if err != nil {
					return err
				}
				if err := t.Bind(lfd, 7100); err != nil {
					return err
				}
				return t.Listen(lfd, 16)
			})
			if err != nil {
				return err
			}
			return t.Loop("loop", func() error {
				cfd, _, err := t.AcceptQP("accept@loop", lfd)
				if err != nil {
					if errors.Is(err, program.ErrStopped) {
						return program.ErrLoopExit
					}
					return err
				}
				p := t.Proc()
				blob, err := t.MallocBytes(64)
				if err != nil {
					return err
				}
				if err := p.WriteBytes(blob, 0, []byte("only reachable via stash")); err != nil {
					return err
				}
				if err := p.WriteWordAt(p.MustGlobal("stash"), 0, uint64(blob.Addr)); err != nil {
					return err
				}
				return t.Write(cfd, []byte("ok"))
			})
		},
	}
}

// TestPolicyAblationHiddenPointer: under the default (hybrid) policy the
// hidden-pointer target is pinned and survives the update at the same
// address; under the fully-precise policy (what annotation-demanding prior
// systems trace) it is silently lost — the stash dangles.
func TestPolicyAblationHiddenPointer(t *testing.T) {
	run := func(pol types.Policy) (stashVal uint64, present bool) {
		k := kernel.New()
		e, err := NewEngine(k, Options{})
		if err != nil {
			t.Fatal(err)
		}
		e.policy = pol
		if _, err := e.Launch(hiddenPtrVersion("1.0", 0)); err != nil {
			t.Fatal(err)
		}
		defer e.Shutdown()
		cc, err := k.Connect(7100)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := cc.Recv(2 * time.Second); err != nil {
			t.Fatal(err)
		}
		if _, err := e.Update(hiddenPtrVersion("2.0", 1)); err != nil {
			t.Fatalf("update: %v", err)
		}
		p := e.Current().Root()
		stashVal, _ = p.ReadWordAt(p.MustGlobal("stash"), 0)
		_, present = p.Index().At(mem.Addr(stashVal))
		return stashVal, present
	}

	val, present := run(types.DefaultPolicy())
	if val == 0 || !present {
		t.Errorf("default policy: hidden target lost (stash=%#x present=%v)", val, present)
	}
	val, present = run(types.FullyPrecisePolicy())
	if val == 0 {
		t.Fatal("stash itself not transferred")
	}
	if present {
		t.Errorf("fully-precise policy unexpectedly preserved the hidden target at %#x", val)
	}
}

// TestDirtyFilterAblationViaEngine: disabling the soft-dirty filter
// transfers strictly more bytes for the same update.
func TestDirtyFilterAblationViaEngine(t *testing.T) {
	measure := func(disable bool) uint64 {
		e, k := launchEchod(t, Options{DisableDirtyFilter: disable})
		defer e.Shutdown()
		cc, _ := k.Connect(7000)
		sendRecv(t, cc, "x")
		rep, err := e.Update(echodVersion("2.0", 1, "v2", true, 7000))
		if err != nil {
			t.Fatal(err)
		}
		return rep.Transfer.BytesTransferred
	}
	filtered := measure(false)
	unfiltered := measure(true)
	if filtered >= unfiltered {
		t.Errorf("filter did not reduce transfer: %d vs %d", filtered, unfiltered)
	}
}

// TestReinitHandlerFailureRollsBack: a reinitialization handler that
// errors aborts the update atomically.
func TestReinitHandlerFailureRollsBack(t *testing.T) {
	e, k := launchEchod(t, Options{})
	defer e.Shutdown()
	cc, _ := k.Connect(7000)
	sendRecv(t, cc, "pre")

	v2 := echodVersion("2.0", 1, "v2", true, 7000)
	v2.Annotations.AddReinitHandler(10, func(ri *program.ReinitInfo) error {
		return errors.New("injected reinit failure")
	})
	rep, err := e.Update(v2)
	if !errors.Is(err, ErrUpdateFailed) {
		t.Fatalf("err = %v, want ErrUpdateFailed", err)
	}
	if !rep.RolledBack {
		t.Error("not marked rolled back")
	}
	if got := sendRecv(t, cc, "post"); got != "v1:post:2" {
		t.Errorf("v1 state after rollback = %q", got)
	}
}

// TestObjHandlerFailureRollsBack: a state-transfer handler that errors
// aborts the update during the remap phase; the old version resumes with
// its state intact.
func TestObjHandlerFailureRollsBack(t *testing.T) {
	e, k := launchEchod(t, Options{})
	defer e.Shutdown()
	cc, _ := k.Connect(7000)
	sendRecv(t, cc, "pre")

	v2 := echodVersion("2.0", 1, "v2", true, 7000)
	v2.Annotations.AddObjHandler("sessions", 5,
		func(tc program.TransferContext, oldObj, newObj *mem.Object) error {
			return errors.New("injected transfer failure")
		})
	rep, err := e.Update(v2)
	if !errors.Is(err, ErrUpdateFailed) {
		t.Fatalf("err = %v, want ErrUpdateFailed", err)
	}
	if rep.Reason == nil {
		t.Error("no rollback reason recorded")
	}
	if got := sendRecv(t, cc, "post"); got != "v1:post:2" {
		t.Errorf("v1 state after rollback = %q", got)
	}
	// The failed attempt left no stray processes in the kernel beyond
	// v1's own.
	if n := len(e.Current().Procs()); n != 1 {
		t.Errorf("live procs = %d, want 1", n)
	}
}

// TestRepeatedRollbacksThenSuccess: the update can fail and roll back
// repeatedly without degrading the running version.
func TestRepeatedRollbacksThenSuccess(t *testing.T) {
	e, k := launchEchod(t, Options{})
	defer e.Shutdown()
	cc, _ := k.Connect(7000)
	sendRecv(t, cc, "1")

	for i := 0; i < 3; i++ {
		bad := echodVersion("2.0", 1, "v2", true, 7001) // wrong port: conflict
		if _, err := e.Update(bad); !errors.Is(err, ErrUpdateFailed) {
			t.Fatalf("attempt %d: err = %v", i, err)
		}
	}
	if got := sendRecv(t, cc, "2"); got != "v1:2:2" {
		t.Fatalf("v1 degraded after repeated rollbacks: %q", got)
	}
	if _, err := e.Update(echodVersion("2.0", 1, "v2", true, 7000)); err != nil {
		t.Fatalf("final update: %v", err)
	}
	if got := sendRecv(t, cc, "3"); got != "v2:3:3" {
		t.Errorf("post-update reply = %q", got)
	}
	if len(e.History()) != 4 {
		t.Errorf("history = %d entries, want 4", len(e.History()))
	}
}
