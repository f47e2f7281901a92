package core

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/program"
	"repro/internal/trace"
)

// compareState asserts two instances carry bit-identical state: same
// processes, same object universes, same memory contents. Used to prove
// the pipelined engine transfers exactly what the sequential one does.
func compareState(t *testing.T, a, b *program.Instance) {
	t.Helper()
	aprocs := a.Procs()
	if len(aprocs) != len(b.Procs()) {
		t.Fatalf("proc count: %d vs %d", len(aprocs), len(b.Procs()))
	}
	for _, ap := range aprocs {
		bp, ok := b.ProcByKey(ap.Key())
		if !ok {
			t.Fatalf("proc %s missing in second instance", ap.Key())
		}
		aobjs, bobjs := ap.Index().All(), bp.Index().All()
		if len(aobjs) != len(bobjs) {
			t.Fatalf("proc %s: object count %d vs %d", ap.Key(), len(aobjs), len(bobjs))
		}
		for i, ao := range aobjs {
			bo := bobjs[i]
			if ao.Addr != bo.Addr || ao.Size != bo.Size || ao.Kind != bo.Kind ||
				ao.Site != bo.Site || ao.Seq != bo.Seq || ao.Name != bo.Name {
				t.Fatalf("proc %s object %d diverged: %s vs %s", ap.Key(), i, ao, bo)
			}
			abuf := make([]byte, ao.Size)
			bbuf := make([]byte, bo.Size)
			if err := ap.Space().ReadAt(ao.Addr, abuf); err != nil {
				t.Fatal(err)
			}
			if err := bp.Space().ReadAt(bo.Addr, bbuf); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(abuf, bbuf) {
				t.Fatalf("proc %s: contents of %s differ between engines", ap.Key(), ao)
			}
		}
	}
}

// TestPipelinedMatchesSequential drives two identical engines — the
// pipelined default and the Sequential ablation — through the same
// traffic and update, and requires bit-identical transferred state, the
// same transfer scope, and the same surviving client behavior.
func TestPipelinedMatchesSequential(t *testing.T) {
	type run struct {
		rep  *UpdateReport
		inst *program.Instance
		last string
	}
	drive := func(sequential bool) run {
		t.Helper()
		e, k := launchEchod(t, Options{Sequential: sequential})
		t.Cleanup(e.Shutdown)
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
		rep, err := e.Update(echodVersion("2.0", 1, "v2", true, 7000))
		if err != nil {
			t.Fatalf("Update(sequential=%v): %v", sequential, err)
		}
		return run{rep: rep, inst: e.Current(), last: sendRecv(t, c1, "c")}
	}

	seq := drive(true)
	pipe := drive(false)

	if seq.rep.Pipelined || !pipe.rep.Pipelined {
		t.Errorf("engine selection wrong: seq.Pipelined=%v pipe.Pipelined=%v",
			seq.rep.Pipelined, pipe.rep.Pipelined)
	}
	st, pt := seq.rep.Transfer, pipe.rep.Transfer
	if st.ObjectsTransferred != pt.ObjectsTransferred ||
		st.ObjectsSkippedClean != pt.ObjectsSkippedClean ||
		st.BytesTransferred != pt.BytesTransferred ||
		st.TypeTransformed != pt.TypeTransformed {
		t.Errorf("transfer scope diverged:\nseq  %+v\npipe %+v", st, pt)
	}
	if seq.last != "v2:c:3" || pipe.last != "v2:c:3" {
		t.Errorf("post-update replies: seq %q pipe %q, want v2:c:3", seq.last, pipe.last)
	}
	// The idle-at-update echod has no writes between speculation capture
	// and quiescence, so the whole analysis is reused off-window.
	if pipe.rep.AnalysesReused != 1 || pipe.rep.ProcsReanalyzed != 0 {
		t.Errorf("speculation: reused=%d reanalyzed=%d, want 1/0",
			pipe.rep.AnalysesReused, pipe.rep.ProcsReanalyzed)
	}
	compareState(t, seq.inst, pipe.inst)
}

// TestPipelinedReportBreakdown pins the pipelined report of a cold
// update: every copied byte is read from quiesced memory, and the
// downtime window and its phases are measured.
func TestPipelinedReportBreakdown(t *testing.T) {
	e, k := launchEchod(t, Options{})
	defer e.Shutdown()
	cc, _ := k.Connect(7000)
	sendRecv(t, cc, "a")
	rep, err := e.Update(echodVersion("2.0", 1, "v2", true, 7000))
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Pipelined {
		t.Error("default engine not pipelined")
	}
	if rep.Transfer.BytesLive == 0 || rep.Transfer.BytesLive+rep.Transfer.BytesAdopted != rep.Transfer.BytesTransferred {
		t.Errorf("copy split: %d B live, %d B adopted, %d B transferred",
			rep.Transfer.BytesLive, rep.Transfer.BytesAdopted, rep.Transfer.BytesTransferred)
	}
	if rep.Downtime <= 0 || rep.Downtime > rep.TotalTime {
		t.Errorf("downtime %v out of range (total %v)", rep.Downtime, rep.TotalTime)
	}
	if rep.QuiesceTime <= 0 || rep.ControlMigrationTime <= 0 || rep.DiscoveryTime <= 0 {
		t.Errorf("phase timings missing: %+v", rep)
	}
	if got := sendRecv(t, cc, "b"); got != "v2:b:2" {
		t.Errorf("post-update reply = %q", got)
	}
}

// TestPipelinedRollbackMidRestart injects a failure into the RESTART
// phase of a warm update while the overlapped discovery is in flight: the
// engine must cancel and join it and leave the old instance serving with
// its dirty set — then a follow-up update must still carry the full
// session state.
func TestPipelinedRollbackMidRestart(t *testing.T) {
	e, k := warmEchod(t, Options{})
	defer e.Shutdown()
	cc, _ := k.Connect(7000)
	if got := sendRecv(t, cc, "a"); got != "v1:a:1" {
		t.Fatal(got)
	}
	if !e.WarmWait(10 * time.Second) {
		t.Fatalf("warm daemon never caught up: %+v", e.WarmStatus())
	}

	// Wrong port: the bind replay conflicts during RESTART.
	dirty := dirtySets(e.Current())
	rep, err := e.Update(echodVersion("2.0", 1, "v2", true, 7001))
	if !errors.Is(err, ErrUpdateFailed) {
		t.Fatalf("err = %v, want ErrUpdateFailed", err)
	}
	if !rep.RolledBack || !rep.Pipelined || rep.WarmDaemon.Passes == 0 {
		t.Fatalf("report = %+v", rep)
	}
	if !reflect.DeepEqual(dirtySets(e.Current()), dirty) {
		t.Error("the rollback changed the old instance's soft-dirty pages")
	}
	// Old instance serving with state intact.
	if got := sendRecv(t, cc, "b"); got != "v1:b:2" {
		t.Errorf("post-rollback reply = %q", got)
	}
	// The follow-up update still sees and carries the dirty session state.
	rep2, err := e.Update(echodVersion("2.1", 1, "v2", true, 7000))
	if err != nil {
		t.Fatalf("follow-up update: %v", err)
	}
	if rep2.Transfer.ObjectsTransferred == 0 {
		t.Error("follow-up transfer carried nothing")
	}
	if got := sendRecv(t, cc, "c"); got != "v2:c:3" {
		t.Errorf("post-update reply = %q, want v2:c:3", got)
	}
}

// TestPipelinedRollbackWithoutPrecopy exercises the cancel/join path of a
// cold update: discovery alone is in flight when RESTART fails.
func TestPipelinedRollbackWithoutPrecopy(t *testing.T) {
	e, k := launchEchod(t, Options{})
	defer e.Shutdown()
	cc, _ := k.Connect(7000)
	sendRecv(t, cc, "a")
	if _, err := e.Update(echodVersion("2.0", 1, "v2", true, 7001)); !errors.Is(err, ErrUpdateFailed) {
		t.Fatalf("err = %v, want ErrUpdateFailed", err)
	}
	if got := sendRecv(t, cc, "b"); got != "v1:b:2" {
		t.Errorf("post-rollback reply = %q", got)
	}
	if _, err := e.Update(echodVersion("2.1", 1, "v2", true, 7000)); err != nil {
		t.Fatalf("follow-up update: %v", err)
	}
	if got := sendRecv(t, cc, "c"); got != "v2:c:3" {
		t.Errorf("post-update reply = %q", got)
	}
}

// TestUpdateReportsPagesRescanned: a store between the off-window analysis
// refresh and quiescence invalidates the page it wrote, not the process.
// The report and the analysis span say so: one process re-analyzed by
// scanning one page, every other page summary reused.
func TestUpdateReportsPagesRescanned(t *testing.T) {
	rec := obs.New(1 << 14)
	opts := Options{Recorder: rec}
	opts.beforeQuiesce = func(old *program.Instance) {
		root := old.Root()
		g := root.MustGlobal("conf")
		if err := root.WriteField(g, "", 7); err != nil {
			t.Error(err)
		}
	}
	e, k := launchEchod(t, opts)
	defer e.Shutdown()
	// Two sessions: the list's second link is a pointer on a heap page, so
	// the globals' page is not the only one with a summary.
	for i := 0; i < 2; i++ {
		cc, _ := k.Connect(7000)
		sendRecv(t, cc, "a")
	}
	rep, err := e.Update(echodVersion("2.0", 1, "v2", true, 7000))
	if err != nil {
		t.Fatal(err)
	}
	if rep.AnalysesReused != 0 || rep.ProcsReanalyzed != 1 {
		t.Errorf("reused=%d reanalyzed=%d, want 0/1 (the one process was written to)", rep.AnalysesReused, rep.ProcsReanalyzed)
	}
	if rep.PagesRescanned != 1 || rep.PagesReused == 0 {
		t.Errorf("pages rescanned=%d reused=%d, want 1 rescanned and the rest reused", rep.PagesRescanned, rep.PagesReused)
	}
	// The speculate step analyzed the process from nothing; the in-window
	// step did not, and its note says so.
	if want := (trace.FullSteps{New: 1}); rep.FullSteps != want {
		t.Errorf("full steps %v, want %v", rep.FullSteps, want)
	}
	sp, ok := findSpan(obs.Pair(rec.Events()), obs.TrackEngine, obs.PhaseValidate)
	want := fmt.Sprintf("pages rescanned=%d reused=%d full new=0 remapped=0 frame=0 lapsed=0", rep.PagesRescanned, rep.PagesReused)
	if !ok || sp.Note != want || sp.ArgName != "reused" {
		t.Errorf("analysis span = %+v, want note %q beside the reused count", sp, want)
	}
}
