package checkpoint

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/mem"
	"repro/internal/program"
	"repro/internal/trace"
	"repro/internal/types"
)

// fastDaemon starts a daemon with a tight interval so tests converge
// quickly; the duty-cycle backpressure still applies.
func fastDaemon(inst *program.Instance) *Daemon {
	return StartDaemon(inst, trace.NewWarmAnalysis(types.DefaultPolicy(), nil),
		DaemonOptions{Interval: 100 * time.Microsecond})
}

// TestDaemonKeepsShadowsCurrent is the warm-standby core contract: after
// post-startup writes the daemon catches up on its own, the warm analysis
// covers every process, the daemon leaves the dirty set alone, and the
// transfer that follows is bit-identical to one copying every object.
func TestDaemonKeepsShadowsCurrent(t *testing.T) {
	for _, withChild := range []bool{false, true} {
		name := "single-proc"
		if withChild {
			name = "multi-proc"
		}
		t.Run(name, func(t *testing.T) {
			v1 := startInst(t, synthVersion(0, withChild), program.Options{}, nil, nil)
			defer v1.Terminate()

			d := fastDaemon(v1)
			dirtyHeap(t, v1, 2, 0)
			dirty := make(map[program.ProcKey][]mem.Addr)
			for _, p := range v1.Procs() {
				dirty[p.Key()] = p.Space().SoftDirtyPages()
			}
			if !d.WaitCurrent(10 * time.Second) {
				t.Fatalf("daemon never caught up: %+v", d.Stats())
			}
			d.Stop()
			if st := d.Stats(); st.Passes == 0 || st.Errors != 0 {
				t.Fatalf("daemon passes: %+v", st)
			}
			if got, want := d.Warm().Entries(), len(v1.Procs()); got != want {
				t.Fatalf("warm analysis covers %d procs, want %d", got, want)
			}
			for _, p := range v1.Procs() {
				if got := p.Space().SoftDirtyPages(); !reflect.DeepEqual(got, dirty[p.Key()]) {
					t.Fatalf("proc %s: the daemon changed the dirty set", p.Key())
				}
			}

			filtered, fInst := transferInto(t, v1, withChild, false)
			defer fInst.Terminate()
			full, uInst := transferInto(t, v1, withChild, true)
			defer uInst.Terminate()
			if filtered.ObjectsSkippedClean == 0 || filtered.ObjectsDiscovered != full.ObjectsDiscovered {
				t.Errorf("transfer scope: filtered %+v, unfiltered %+v", filtered, full)
			}
			compareInstances(t, "after the daemon", fInst, uInst)
		})
	}
}

// TestDaemonForkRace forks a child while the daemon runs and keeps
// writing to the child afterwards: the daemon must pick the child up, and
// the child keeps its dirty pages.
func TestDaemonForkRace(t *testing.T) {
	v1 := startInst(t, synthVersion(0, false), program.Options{}, nil, nil)
	defer v1.Terminate()
	d := fastDaemon(v1)
	dirtyHeap(t, v1, 1, 0)

	if err := v1.RunHandler(func(th *program.Thread) error {
		_, err := th.ForkProc("late_child", func(ct *program.Thread) error {
			ct.Enter("late_child")
			defer ct.Exit()
			return idle(ct)
		})
		return err
	}); err != nil {
		t.Fatalf("fork: %v", err)
	}
	if _, err := v1.Barrier().WaitQuiesced(5 * time.Second); err != nil {
		t.Fatalf("child did not quiesce: %v", err)
	}
	var child *program.Proc
	for _, p := range v1.Procs() {
		if p.Key() != program.RootKey {
			child = p
		}
	}
	if child == nil {
		t.Fatal("no child process")
	}
	// Post-fork writes land only in the child.
	dirtyHeap(t, v1, 2, 1)

	if !d.WaitCurrent(10 * time.Second) {
		t.Fatalf("daemon never caught up after fork: %+v", d.Stats())
	}
	d.Stop()
	if got, want := d.Warm().Entries(), len(v1.Procs()); got != want {
		t.Fatalf("warm analysis covers %d procs, want %d (child included)", got, want)
	}
	if child.Space().SoftDirtyCount() == 0 {
		t.Error("child has no dirty pages despite inherited and post-fork writes")
	}
}

// TestDaemonDisarmMidEpoch stops the daemon while a writer keeps it busy:
// Stop must return promptly, and every page the writer dirtied is still
// soft-dirty (nothing lost).
func TestDaemonDisarmMidEpoch(t *testing.T) {
	v1 := startInst(t, synthVersion(0, false), program.Options{}, nil, nil)
	defer v1.Terminate()
	root := v1.Root()
	objs := heapObjs(root)

	d := fastDaemon(v1)
	stop := make(chan struct{})
	done := make(chan struct{})
	touched := make(map[mem.Addr]bool)
	go func() {
		defer close(done)
		var buf [8]byte
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			o := objs[i%len(objs)]
			for j := range buf {
				buf[j] = 0x80 | byte((i+j)&0x7f)
			}
			off := uint64(0)
			if o.Type == nil {
				off = o.Size - 8
			}
			if root.Space().WriteAt(o.Addr+mem.Addr(off), buf[:]) == nil {
				touched[(o.Addr+mem.Addr(off))&^mem.Addr(mem.PageSize-1)] = true
			}
		}
	}()
	// Wait until passes demonstrably overlap the writes, then disarm.
	deadline := time.Now().Add(10 * time.Second)
	for d.Stats().Passes < 2 && time.Now().Before(deadline) {
		time.Sleep(100 * time.Microsecond)
	}
	d.Stop() // disarm mid-traffic
	d.Stop() // idempotent
	close(stop)
	<-done

	if d.Stats().Passes < 2 {
		t.Fatalf("no pass ran under traffic: %+v", d.Stats())
	}
	dirty := make(map[mem.Addr]bool)
	for _, pb := range root.Space().SoftDirtyPages() {
		dirty[pb] = true
	}
	for pb := range touched {
		if !dirty[pb] {
			t.Errorf("page %#x written but not dirty after disarm", pb)
		}
	}
}

// TestDaemonBackpressure pins the pacing contract: with a duty cycle of
// 25%, warm work cannot occupy the wall clock — an idle window must see
// far fewer passes than back-to-back execution would produce.
func TestDaemonBackpressure(t *testing.T) {
	v1 := startInst(t, synthVersion(0, false), program.Options{}, nil, nil)
	defer v1.Terminate()
	d := StartDaemon(v1, trace.NewWarmAnalysis(types.DefaultPolicy(), nil),
		DaemonOptions{Interval: 10 * time.Millisecond})
	time.Sleep(25 * time.Millisecond)
	d.Stop()
	st := d.Stats()
	if st.Passes == 0 {
		t.Fatal("daemon never passed")
	}
	if st.Passes > 5 {
		t.Errorf("%d passes in 25ms at a 10ms interval: pacing broken", st.Passes)
	}
}

// TestDaemonDutyAccounting covers the overhead-curve counters: work and
// pause time both accumulate, the measured duty fraction respects the
// configured bound (within scheduling slack), and a heavy pass under a
// tight bound registers yields (backpressure-stretched pauses).
func TestDaemonDutyAccounting(t *testing.T) {
	v1 := startInst(t, synthVersion(0, false), program.Options{}, nil, nil)
	defer v1.Terminate()
	d := StartDaemon(v1, trace.NewWarmAnalysis(types.DefaultPolicy(), nil),
		DaemonOptions{Interval: 50 * time.Microsecond, DutyCycle: 0.10})
	if d.DutyCycle() != 0.10 {
		t.Fatalf("DutyCycle() = %v", d.DutyCycle())
	}
	// Keep the instance dirty so passes do real analysis work and the
	// backpressure has something to stretch.
	deadline := time.Now().Add(30 * time.Millisecond)
	for time.Now().Before(deadline) {
		dirtyHeap(t, v1, 1, 0)
		time.Sleep(500 * time.Microsecond)
	}
	d.Stop()
	st := d.Stats()
	if st.Passes == 0 || st.WorkTime == 0 || st.PauseTime == 0 {
		t.Fatalf("duty accounting empty: %+v", st)
	}
	if st.Yields == 0 {
		t.Errorf("no yields under a 0.10 duty bound with dirty passes: %+v", st)
	}
	// The bound is enforced per pause, so the aggregate fraction should
	// not exceed it by more than scheduling noise.
	if f := st.DutyFraction(); f > 0.35 {
		t.Errorf("measured duty %.2f far above the 0.10 bound: %+v", f, st)
	}
}

// TestDaemonDutyCountsPauseInProgress: Stats is usually read while the
// daemon rests — a pause is (1-duty)/duty times the pass before it — and
// the rest must count while it lasts, not when it ends. With one pass
// behind it and an hour-long pause ahead, the daemon crediting pauses only
// on completion reports a duty of 1.0 for the whole hour.
func TestDaemonDutyCountsPauseInProgress(t *testing.T) {
	v1 := startInst(t, synthVersion(0, false), program.Options{}, nil, nil)
	defer v1.Terminate()
	d := StartDaemon(v1, trace.NewWarmAnalysis(types.DefaultPolicy(), nil),
		DaemonOptions{Interval: time.Hour})
	defer d.Stop()
	var st DaemonStats
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		if st = d.Stats(); st.Passes == 1 && st.PauseTime > 4*st.WorkTime {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("stalled in its first pause, the daemon reports %+v (duty %.2f)", st, st.DutyFraction())
		}
	}
	if f := st.DutyFraction(); f > 0.25 {
		t.Errorf("duty %.2f with the pause already four times the pass: %+v", f, st)
	}
	later := d.Stats()
	if later.PauseTime <= st.PauseTime || later.WorkTime != st.WorkTime {
		t.Errorf("the pause in progress does not keep counting: %v then %v (work %v then %v)",
			st.PauseTime, later.PauseTime, st.WorkTime, later.WorkTime)
	}
	d.Stop()
	if final := d.Stats(); final.PauseTime < later.PauseTime || final.PauseTime > later.PauseTime+5*time.Second {
		t.Errorf("pause counted twice or dropped at stop: %v mid-pause, %v after", later.PauseTime, final.PauseTime)
	}
}
