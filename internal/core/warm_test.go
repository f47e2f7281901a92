package core

import (
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"

	"repro/internal/canary"
	"repro/internal/faultinject"
	"repro/internal/kernel"
	"repro/internal/mem"
	"repro/internal/program"
	"repro/internal/trace"
	"repro/internal/types"
)

// armWarm arms the warm daemon over e's running instance at a tight
// interval.
func armWarm(t *testing.T, e *Engine) {
	t.Helper()
	if err := e.SetWarmPacing(200*time.Microsecond, 0); err != nil {
		t.Fatal(err)
	}
	if err := e.ArmWarm(); err != nil {
		t.Fatalf("ArmWarm: %v", err)
	}
}

// warmEchod launches echod with the warm daemon armed at a tight
// interval and waits until it has caught up with startup traffic.
func warmEchod(t *testing.T, opts Options) (*Engine, *kernel.Kernel) {
	t.Helper()
	e, k := launchEchod(t, opts)
	armWarm(t, e)
	if !e.WarmWait(10 * time.Second) {
		t.Fatalf("warm daemon never caught up: %+v", e.WarmStatus())
	}
	return e, k
}

// TestWarmUpdateFastPath pins the warm path: a warm engine's update skips
// the speculate phase (analysis fully reused) and re-arms the daemon on
// the new version.
func TestWarmUpdateFastPath(t *testing.T) {
	e, k := warmEchod(t, Options{})
	defer e.Shutdown()
	cc, _ := k.Connect(7000)
	sendRecv(t, cc, "a")
	sendRecv(t, cc, "b")
	if !e.WarmWait(10 * time.Second) {
		t.Fatalf("daemon did not absorb the traffic: %+v", e.WarmStatus())
	}
	ws := e.WarmStatus()
	if !ws.Armed || !ws.Current || ws.Passes == 0 {
		t.Fatalf("warm status before update: %+v", ws)
	}

	rep, err := e.Update(echodVersion("2.0", 1, "v2", true, 7000))
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Warm || !rep.Pipelined {
		t.Fatalf("report not warm+pipelined: warm=%v pipelined=%v", rep.Warm, rep.Pipelined)
	}
	if rep.AnalysesReused != 1 || rep.ProcsReanalyzed != 0 {
		t.Errorf("analysis: reused=%d reanalyzed=%d, want 1/0 (idle at update)",
			rep.AnalysesReused, rep.ProcsReanalyzed)
	}
	if rep.WarmDaemon.Passes == 0 {
		t.Errorf("daemon tally missing: %+v", rep.WarmDaemon)
	}
	if len(rep.WarmReanalyses) == 0 {
		t.Error("per-process reanalysis tally missing")
	}
	if got := sendRecv(t, cc, "c"); got != "v2:c:3" {
		t.Errorf("post-update reply = %q, want v2:c:3", got)
	}
	if ws := e.WarmStatus(); !ws.Armed {
		t.Error("daemon not re-armed on the new version after commit")
	}
}

// TestWarmMatchesColdDeterminism drives the same traffic and update on
// the sequential engine, the cold pipelined engine and the warm engine,
// and requires bit-identical transferred state and transfer scope across
// all three — the warm path must not change what an update moves.
func TestWarmMatchesColdDeterminism(t *testing.T) {
	type run struct {
		rep  *UpdateReport
		inst *program.Instance
		last string
	}
	drive := func(mode string) run {
		t.Helper()
		e, k := launchEchod(t, Options{Sequential: mode == "sequential"})
		t.Cleanup(e.Shutdown)
		if mode == "warm" {
			armWarm(t, e)
		}
		c1, err := k.Connect(7000)
		if err != nil {
			t.Fatal(err)
		}
		c2, err := k.Connect(7000)
		if err != nil {
			t.Fatal(err)
		}
		sendRecv(t, c1, "a")
		sendRecv(t, c1, "b")
		sendRecv(t, c2, "x")
		if mode == "warm" && !e.WarmWait(10*time.Second) {
			t.Fatalf("warm daemon never caught up: %+v", e.WarmStatus())
		}
		rep, err := e.Update(echodVersion("2.0", 1, "v2", true, 7000))
		if err != nil {
			t.Fatalf("Update(%s): %v", mode, err)
		}
		return run{rep: rep, inst: e.Current(), last: sendRecv(t, c1, "c")}
	}

	seq := drive("sequential")
	cold := drive("cold")
	warm := drive("warm")

	if !warm.rep.Warm || cold.rep.Warm || seq.rep.Warm {
		t.Errorf("warm flags wrong: seq=%v cold=%v warm=%v",
			seq.rep.Warm, cold.rep.Warm, warm.rep.Warm)
	}
	for _, pair := range []struct {
		name string
		a, b run
	}{{"warm-vs-cold", warm, cold}, {"warm-vs-sequential", warm, seq}} {
		at, bt := pair.a.rep.Transfer, pair.b.rep.Transfer
		if at.ObjectsTransferred != bt.ObjectsTransferred ||
			at.ObjectsSkippedClean != bt.ObjectsSkippedClean ||
			at.BytesTransferred != bt.BytesTransferred ||
			at.TypeTransformed != bt.TypeTransformed {
			t.Errorf("%s transfer scope diverged:\n%+v\n%+v", pair.name, at, bt)
		}
		compareState(t, pair.a.inst, pair.b.inst)
	}
	if seq.last != "v2:c:3" || cold.last != "v2:c:3" || warm.last != "v2:c:3" {
		t.Errorf("post-update replies: seq %q cold %q warm %q, want v2:c:3",
			seq.last, cold.last, warm.last)
	}
}

// TestWarmRollbackKeepsDirtySet pins the rollback-while-warm contract
// with adoption armed: a warm update that moved page frames and then
// crashed at commit hands every frame back with its soft-dirty bit, so
// each old process's dirty set equals its set at quiescence, and warm mode
// re-arms on the old instance. The state digest cannot see a lost bit —
// the bytes are the same either way — but the next update's transfer
// checksum can, and must equal the sequential engine's.
func TestWarmRollbackKeepsDirtySet(t *testing.T) {
	const blobs, size = 24, 2048
	launch := func(opts Options) *Engine {
		e, err := NewEngine(kernel.New(), opts)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := e.Launch(blobdVersion(0, blobs, size)); err != nil {
			t.Fatal(err)
		}
		dirtyBlobPayloads(t, e.Current())
		return e
	}
	seq := launch(Options{Sequential: true, Audit: true})
	defer seq.Shutdown()
	want, err := seq.Update(blobdVersion(1, blobs, size))
	if err != nil {
		t.Fatal(err)
	}

	plane := faultinject.New(1)
	var atQuiesce map[program.ProcKey][]mem.Addr
	opts := Options{Adopt: true, Audit: true, Faults: plane}
	opts.beforeQuiesce = func(old *program.Instance) {
		if atQuiesce == nil {
			atQuiesce = dirtySets(old)
		}
	}
	e := launch(opts)
	defer e.Shutdown()
	armWarm(t, e)
	if !e.WarmWait(10 * time.Second) {
		t.Fatalf("warm daemon never caught up: %+v", e.WarmStatus())
	}
	old := e.Current()
	plane.Arm(faultinject.PointCommitCrash)
	rep, err := e.Update(blobdVersion(1, blobs, size))
	if !errors.Is(err, ErrUpdateFailed) || rep.RollbackCause != "fault:commit-crash" {
		t.Fatalf("err = %v, cause %q; want a fault:commit-crash rollback", err, rep.RollbackCause)
	}
	if !rep.Warm || rep.Transfer.PagesAdopted == 0 {
		t.Fatalf("warm %v, %d pages adopted: the fixture proves nothing", rep.Warm, rep.Transfer.PagesAdopted)
	}
	if got := dirtySets(old); !reflect.DeepEqual(got, atQuiesce) {
		t.Fatal("after the rollback the old instance's soft-dirty pages differ from its set at quiescence")
	}
	if ws := e.WarmStatus(); !ws.Armed {
		t.Fatal("warm mode did not re-arm on the rolled-back instance")
	}

	rep2, err := e.Update(blobdVersion(1, blobs, size))
	if err != nil {
		t.Fatalf("follow-up update: %v", err)
	}
	if !rep2.Warm || rep2.Transfer.Checksum == 0 || rep2.Transfer.Checksum != want.Transfer.Checksum {
		t.Fatalf("follow-up warm %v, checksum %#x; sequential engine %#x",
			rep2.Warm, rep2.Transfer.Checksum, want.Transfer.Checksum)
	}
	if got, want := mustDigest(t, e.Current()), mustDigest(t, seq.Current()); got != want {
		t.Fatalf("follow-up state digest %#x, sequential engine %#x", got, want)
	}
}

// TestWarmBackToBackUpdates pins the re-arm seam: a second update
// requested immediately after the first commit adopts a daemon that may
// not have completed a single pass. Whichever side of that race it
// lands on (warm analysis used, or the speculation fallback), the
// update must succeed off the warm engine with the session intact.
func TestWarmBackToBackUpdates(t *testing.T) {
	e, k := warmEchod(t, Options{})
	defer e.Shutdown()
	cc, _ := k.Connect(7000)
	sendRecv(t, cc, "a")
	if _, err := e.Update(echodVersion("2.0", 1, "v2", true, 7000)); err != nil {
		t.Fatal(err)
	}
	// No WarmWait: race the freshly re-armed daemon.
	rep, err := e.Update(echodVersion("3.0", 2, "v3", true, 7000))
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Warm || !rep.Pipelined {
		t.Fatalf("second update not warm+pipelined: %+v", rep)
	}
	if rep.AnalysesReused+rep.ProcsReanalyzed != 1 {
		t.Errorf("analysis accounting broken: %+v", rep)
	}
	if got := sendRecv(t, cc, "b"); got != "v3:b:2" {
		t.Errorf("post-update reply = %q, want v3:b:2", got)
	}
	if ws := e.WarmStatus(); !ws.Armed {
		t.Error("daemon not re-armed after back-to-back updates")
	}
}

// TestArmWarmRefusedMidUpdate pins the arm/update exclusion: arming the
// daemon while an update is in flight must be refused — a daemon started
// mid-update would consume soft-dirty bits outside that update's
// checkpoint accounting and end up bound to the losing instance.
func TestArmWarmRefusedMidUpdate(t *testing.T) {
	var (
		e      *Engine
		armErr error
	)
	opts := Options{beforeQuiesce: func(*program.Instance) { armErr = e.ArmWarm() }}
	e, k := launchEchod(t, opts)
	defer e.Shutdown()
	cc, _ := k.Connect(7000)
	sendRecv(t, cc, "a")
	if _, err := e.Update(echodVersion("2.0", 1, "v2", true, 7000)); err != nil {
		t.Fatal(err)
	}
	if armErr == nil {
		t.Error("ArmWarm mid-update succeeded, want refusal")
	}
	if ws := e.WarmStatus(); ws.Armed {
		t.Errorf("daemon armed despite mid-update refusal: %+v", ws)
	}
	// After the update, arming works.
	if err := e.ArmWarm(); err != nil {
		t.Fatalf("ArmWarm after update: %v", err)
	}
	if ws := e.WarmStatus(); !ws.Armed {
		t.Error("daemon not armed after post-update ArmWarm")
	}
}

// forkdVersion builds "forkd": a root that forks `children` worker
// processes at startup, each with a small private heap rooted in the
// shared "anchor" global. The update scenario for per-process warm
// revalidation: only mutated children should re-analyze.
func forkdVersion(release string, seq, children int) *program.Version {
	reg := types.NewRegistry()
	return &program.Version{
		Program:     "forkd",
		Release:     release,
		Seq:         seq,
		Types:       reg,
		Globals:     []program.GlobalSpec{{Name: "anchor", Size: 64}},
		Annotations: program.NewAnnotations(),
		Main: func(th *program.Thread) error {
			th.Enter("main")
			defer th.Exit()
			build := func(t *program.Thread, n int) error {
				p := t.Proc()
				prev := p.MustGlobal("anchor")
				for i := 0; i < n; i++ {
					b, err := t.MallocBytes(128)
					if err != nil {
						return err
					}
					if err := p.WriteWordAt(prev, 0, uint64(b.Addr)); err != nil {
						return err
					}
					prev = b
				}
				return nil
			}
			if err := th.Call("forkd_init", func() error { return build(th, 8) }); err != nil {
				return err
			}
			for i := 0; i < children; i++ {
				name := fmt.Sprintf("worker_%d", i)
				if _, err := th.ForkProc(name, func(ct *program.Thread) error {
					ct.Enter(name)
					defer ct.Exit()
					if err := ct.Call(name+"_init", func() error { return build(ct, 4) }); err != nil {
						return err
					}
					return idleLoop(ct)
				}); err != nil {
					return err
				}
			}
			return idleLoop(th)
		},
	}
}

func idleLoop(t *program.Thread) error {
	return t.Loop("idle_loop", func() error {
		if err := t.IdleQP("idle@idle_loop"); err != nil {
			if errors.Is(err, program.ErrStopped) {
				return program.ErrLoopExit
			}
			return err
		}
		return nil
	})
}

// TestWarmForkSkewOnlyMutatedProcsReanalyzed is the fork-heavy payoff: in
// a many-process instance where post-startup writes hit only one worker,
// the warm daemon re-analyzes exactly that worker (beyond the initial
// pass), the update reuses every analysis, and the per-process tally in
// the report shows the skew.
func TestWarmForkSkewOnlyMutatedProcsReanalyzed(t *testing.T) {
	const children = 3
	k := kernel.New()
	e, err := NewEngine(k, Options{})
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	if _, err := e.Launch(forkdVersion("1.0", 0, children)); err != nil {
		t.Fatalf("Launch: %v", err)
	}
	defer e.Shutdown()
	armWarm(t, e)
	inst := e.Current()
	procs := inst.Procs()
	if len(procs) != children+1 {
		t.Fatalf("procs = %d, want %d", len(procs), children+1)
	}
	if !e.WarmWait(10 * time.Second) {
		t.Fatalf("daemon never caught up: %+v", e.WarmStatus())
	}

	// Skewed traffic: several rounds of writes into worker 0 only, letting
	// the daemon catch up in between so each round is a fresh invalidation.
	hot := procs[1]
	for round := 0; round < 3; round++ {
		o := hot.Index().All()[len(hot.Index().All())-1]
		var buf [8]byte
		for j := range buf {
			buf[j] = 0x80 | byte((round*13+j)&0x7f)
		}
		if err := hot.Space().WriteAt(o.Addr+mem.Addr(o.Size)-8, buf[:]); err != nil {
			t.Fatal(err)
		}
		if !e.WarmWait(10 * time.Second) {
			t.Fatalf("daemon never re-caught up (round %d): %+v", round, e.WarmStatus())
		}
	}

	rep, err := e.Update(forkdVersion("2.0", 1, children))
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Warm || rep.AnalysesReused != children+1 || rep.ProcsReanalyzed != 0 {
		t.Fatalf("warm update did not reuse every analysis: %+v", rep)
	}
	counts := rep.WarmReanalyses
	if counts[hot.Key()] < 4 { // initial + 3 invalidation rounds
		t.Errorf("hot worker reanalyses = %d, want >= 4", counts[hot.Key()])
	}
	for _, p := range procs {
		if p.Key() == hot.Key() {
			continue
		}
		if counts[p.Key()] != 1 {
			t.Errorf("idle proc %s reanalyses = %d, want 1 (initial only)", p.Key(), counts[p.Key()])
		}
	}
}

// TestColdUpdateStepsKeptAnalysis: disarming warm standby keeps the
// analysis the daemon made current with the instance, and the cold update
// that follows steps it over what changed since — a heap that grew past
// its mapping included — instead of analyzing every process from nothing.
// What it commits is bit-identical to the sequential engine's after the
// same script.
func TestColdUpdateStepsKeptAnalysis(t *testing.T) {
	type run struct {
		rep    *UpdateReport
		digest uint64
		last   string
	}
	drive := func(sequential bool) run {
		t.Helper()
		e, k := launchEchod(t, Options{Sequential: sequential, Audit: true})
		t.Cleanup(e.Shutdown)
		armWarm(t, e)
		c, err := k.Connect(7000)
		if err != nil {
			t.Fatal(err)
		}
		sendRecv(t, c, "a")
		if !e.WarmWait(10 * time.Second) {
			t.Fatalf("warm daemon never caught up: %+v", e.WarmStatus())
		}
		e.DisarmWarm()

		// Past a growth quantum, with likely pointers on its pages: the
		// heap region grows while no daemon runs.
		root := e.Current().Root()
		heapRegion := func() mem.Region {
			r, ok := root.Space().RegionAt(program.HeapBase)
			if !ok {
				t.Fatal("no heap region")
			}
			return r
		}
		before := heapRegion()
		big, err := root.Heap().Alloc(3<<19, nil, 4242)
		if err != nil {
			t.Fatal(err)
		}
		conf, _ := root.ReadPtr(root.MustGlobal("conf"), "")
		for off := uint64(0); off < big.Size; off += 64 << 10 {
			if err := root.Space().WriteWord(big.Addr+mem.Addr(off), uint64(conf.Addr)); err != nil {
				t.Fatal(err)
			}
		}
		if heapRegion().Size <= before.Size {
			t.Fatalf("heap region did not grow: %d bytes before, %d after", before.Size, heapRegion().Size)
		}

		rep, err := e.Update(echodVersion("2.0", 1, "v2", true, 7000))
		if err != nil {
			t.Fatalf("Update (sequential=%v): %v", sequential, err)
		}
		digest, err := trace.StateDigest(e.Current())
		if err != nil {
			t.Fatal(err)
		}
		return run{rep: rep, digest: digest, last: sendRecv(t, c, "b")}
	}

	cold, seq := drive(false), drive(true)
	if cold.rep.Warm || !cold.rep.Pipelined {
		t.Fatalf("want a pipelined cold update: warm=%v pipelined=%v", cold.rep.Warm, cold.rep.Pipelined)
	}
	// The in-window step of the cold update finds the summaries its
	// speculate step left; the sequential one has no speculate step, and
	// rescans what the allocation wrote in-window.
	if cold.rep.PagesReused == 0 {
		t.Errorf("cold update reused no page summary in-window (%d rescanned)", cold.rep.PagesRescanned)
	}
	for _, r := range []struct {
		name string
		run
	}{{"cold", cold}, {"sequential", seq}} {
		if r.rep.FullSteps.Total() != 0 {
			t.Errorf("%s update: %v: want the kept analysis stepped, not restarted", r.name, r.rep.FullSteps)
		}
		if r.last != "v2:b:2" {
			t.Errorf("%s update: post-update reply %q, want v2:b:2", r.name, r.last)
		}
	}
	if cold.rep.Transfer.Checksum != seq.rep.Transfer.Checksum || cold.digest != seq.digest {
		t.Errorf("cold vs sequential: transfer checksum %#x vs %#x, state digest %#x vs %#x",
			cold.rep.Transfer.Checksum, seq.rep.Transfer.Checksum, cold.digest, seq.digest)
	}
	if cold.rep.Transfer.Checksum == 0 {
		t.Error("transfer checksum not computed")
	}
}

// TestKeptAnalysisDoesNotCrossInstances: the engine's kept analysis
// describes one instance. Process keys repeat across versions, so one
// carried to another instance could pass for current on coincident
// counters. After a commit, after a canary revert and after Shutdown and
// Launch, each following the population of the analysis being replaced,
// the next cold update's speculate step analyzes every process from
// nothing.
func TestKeptAnalysisDoesNotCrossInstances(t *testing.T) {
	const children = 2
	e, err := NewEngine(kernel.New(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Shutdown()
	seq := 0
	launch := func() {
		t.Helper()
		if _, err := e.Launch(forkdVersion(fmt.Sprintf("1.%d", seq), seq, children)); err != nil {
			t.Fatalf("Launch: %v", err)
		}
	}
	update := func() *UpdateReport {
		t.Helper()
		seq++
		rep, err := e.Update(forkdVersion(fmt.Sprintf("1.%d", seq), seq, children))
		if err != nil {
			t.Fatalf("Update to 1.%d: %v", seq, err)
		}
		return rep
	}
	populate := func() {
		t.Helper()
		armWarm(t, e)
		if !e.WarmWait(10 * time.Second) {
			t.Fatalf("warm daemon never caught up: %+v", e.WarmStatus())
		}
		e.DisarmWarm()
	}
	fromNothing := func(when string, rep *UpdateReport) {
		t.Helper()
		if want := (trace.FullSteps{New: children + 1}); rep.FullSteps != want {
			t.Errorf("%s: the next update took %v, want %v: every process analyzed from nothing", when, rep.FullSteps, want)
		}
	}

	launch()
	populate()
	if rep := update(); rep.FullSteps.Total() != 0 {
		t.Errorf("the instance's own kept analysis was not stepped: %v", rep.FullSteps)
	}
	// That update left the old instance's analysis fully populated.
	fromNothing("after a commit", update())

	old := e.Current().Version()
	update()
	populate() // the new version's analysis
	if v := watchBreach(e, old); v.Outcome != canary.Reverted || e.Current().Version() != old {
		t.Fatalf("the canary window did not revert to the old version: %q (%v)", v.Outcome, v.RevertErr)
	}
	fromNothing("after a canary revert", update())

	populate()
	e.Shutdown()
	launch()
	fromNothing("after Shutdown and Launch", update())
}
