package experiments

// End-to-end verdicts of the engine beyond the paper — the soft-dirty
// filter, pipelining, page adoption and warm standby — on synthetic heaps
// built for the purpose: chains of opaque blobs whose startup allocations
// are recreated at identical addresses, so every mode's transfer can be
// compared bit for bit. These tests measure nothing; each asserts a
// contract. Downtime and warm-update latency are measured by the
// benchmark (`go run ./bench`).

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/mem"
	"repro/internal/program"
	"repro/internal/servers"
	"repro/internal/trace"
	"repro/internal/types"
	"repro/internal/workload"
)

// buildChain allocates `blobs` opaque buffers of `size` bytes, chains
// them by a hidden pointer at word 0 and roots the chain in the "anchor"
// global.
func buildChain(t *program.Thread, blobs, size int) error {
	p := t.Proc()
	fill := bytes.Repeat([]byte{0xA5}, size)
	var first, last *mem.Object
	for i := 0; i < blobs; i++ {
		b, err := t.MallocBytes(uint64(size))
		if err != nil {
			return err
		}
		if err := p.WriteBytes(b, 0, fill); err != nil {
			return err
		}
		if last != nil {
			if err := p.WriteWordAt(last, 0, uint64(b.Addr)); err != nil {
				return err
			}
		} else {
			first = b
		}
		last = b
	}
	return p.WriteWordAt(p.MustGlobal("anchor"), 0, uint64(first.Addr))
}

// idleLoop parks the thread at an idle quiescent point until stopped.
func idleLoop(t *program.Thread, name string) error {
	return t.Loop(name, func() error {
		if err := t.IdleQP("idle@" + name); err != nil {
			if errors.Is(err, program.ErrStopped) {
				return program.ErrLoopExit
			}
			return err
		}
		return nil
	})
}

// blobVersion is a one-process server whose startup builds one chain.
// Versions are layout-identical across seq, so every object takes the
// verbatim-copy path and the whole heap is page-adoptable.
func blobVersion(seq, blobs, size int) *program.Version {
	return &program.Version{
		Program:     "blobheap",
		Release:     fmt.Sprintf("v%d", seq+1),
		Seq:         seq,
		Types:       types.NewRegistry(),
		Globals:     []program.GlobalSpec{{Name: "anchor", Size: 64}},
		Annotations: program.NewAnnotations(),
		Main: func(t *program.Thread) error {
			t.Enter("main")
			defer t.Exit()
			if err := t.Call("blob_init", func() error { return buildChain(t, blobs, size) }); err != nil {
				return err
			}
			return idleLoop(t, "blob_loop")
		},
	}
}

// typedVersion is the type-changing control: startup allocates `recs`
// precisely-typed records, and from seq 1 on the record type grows a
// trailing field, so every record needs a transformation and no page may
// be adopted.
func typedVersion(seq, recs int) *program.Version {
	reg := types.NewRegistry()
	rec := &types.Type{Name: "rec_s", Kind: types.KindStruct}
	rec.Fields = []types.Field{
		{Name: "next", Offset: 0, Type: types.PointerTo(rec)},
		{Name: "seq", Offset: 8, Type: types.Scalar(types.KindUint64)},
		{Name: "payload", Offset: 16, Type: types.ArrayOf(48, types.Scalar(types.KindUint32))},
	}
	rec.Size, rec.Align = 208, 8
	if seq > 0 {
		rec.Fields = append(rec.Fields, types.Field{
			Name: "extra", Offset: 208, Type: types.Scalar(types.KindUint64)})
		rec.Size = 216
	}
	reg.Define(rec)
	// A precisely-typed chain head: an untyped anchor would be scanned
	// conservatively and pin the first record as nonupdatable.
	anchor := &types.Type{Name: "anchor_s", Kind: types.KindStruct}
	anchor.Fields = []types.Field{{Name: "head", Offset: 0, Type: types.PointerTo(rec)}}
	anchor.Size, anchor.Align = 64, 8
	reg.Define(anchor)
	return &program.Version{
		Program:     "typedheap",
		Release:     fmt.Sprintf("v%d", seq+1),
		Seq:         seq,
		Types:       reg,
		Globals:     []program.GlobalSpec{{Name: "anchor", Type: "anchor_s", Size: 64}},
		Annotations: program.NewAnnotations(),
		Main: func(t *program.Thread) error {
			t.Enter("main")
			defer t.Exit()
			if err := t.Call("typed_init", func() error {
				p := t.Proc()
				var first, last *mem.Object
				for i := 0; i < recs; i++ {
					r, err := t.Malloc("rec_s")
					if err != nil {
						return err
					}
					if err := p.WriteField(r, "seq", uint64(i)); err != nil {
						return err
					}
					if last != nil {
						if err := p.SetPtr(last, "next", r); err != nil {
							return err
						}
					} else {
						first = r
					}
					last = r
				}
				return p.WriteWordAt(p.MustGlobal("anchor"), 0, uint64(first.Addr))
			}); err != nil {
				return err
			}
			return idleLoop(t, "typed_loop")
		},
	}
}

// forkVersion is the fork-heavy server: the root builds a chain and forks
// `children` workers, each building a half-length chain of its own.
func forkVersion(seq, children, blobs, size int) *program.Version {
	return &program.Version{
		Program:     "forkheavy",
		Release:     fmt.Sprintf("v%d", seq+1),
		Seq:         seq,
		Types:       types.NewRegistry(),
		Globals:     []program.GlobalSpec{{Name: "anchor", Size: 64}},
		Annotations: program.NewAnnotations(),
		Main: func(t *program.Thread) error {
			t.Enter("main")
			defer t.Exit()
			if err := t.Call("forkheavy_init", func() error { return buildChain(t, blobs, size) }); err != nil {
				return err
			}
			for i := 0; i < children; i++ {
				name := fmt.Sprintf("worker_%d", i)
				if _, err := t.ForkProc(name, func(ct *program.Thread) error {
					ct.Enter(name)
					defer ct.Exit()
					if err := ct.Call(name+"_init", func() error { return buildChain(ct, blobs/2, size) }); err != nil {
						return err
					}
					return idleLoop(ct, "forkheavy_loop")
				}); err != nil {
					return err
				}
			}
			return idleLoop(t, "forkheavy_loop")
		},
	}
}

// rewriteHeap rewrites the payload (everything past the link word) of the
// first frac of p's heap objects with a round-dependent pattern. Top bits
// stay set so no payload word aliases a mapped address.
func rewriteHeap(p *program.Proc, frac float64, round int) error {
	var objs []*mem.Object
	for _, o := range p.Index().All() {
		if o.Kind == mem.ObjHeap && o.Size > 16 && !o.Scratch {
			objs = append(objs, o)
		}
	}
	for i, o := range objs[:int(frac*float64(len(objs)))] {
		payload := make([]byte, o.Size-8)
		for j := range payload {
			payload[j] = 0x80 | byte((round*31+i*7+j)&0x7f)
		}
		if err := p.Space().WriteAt(o.Addr+8, payload); err != nil {
			return err
		}
	}
	return nil
}

// heapRun is one measured update of a synthetic heap: the report and the
// digest of the new instance's whole object universe.
type heapRun struct {
	rep *core.UpdateReport
	sum uint64
}

// updateHeap launches version(0) with opts, arms the warm daemon paced at
// warm (none when 0), rewrites its whole heap (the post-startup state
// every mode must transfer identically), lets the daemon catch up,
// updates to version(1) and digests the result.
func updateHeap(t *testing.T, opts core.Options, warm time.Duration, version func(seq int) *program.Version) heapRun {
	t.Helper()
	opts.QuiesceTimeout = 30 * time.Second
	opts.StartupTimeout = 30 * time.Second
	e, err := core.NewEngine(kernel.New(), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Shutdown()
	if _, err := e.Launch(version(0)); err != nil {
		t.Fatal(err)
	}
	if warm > 0 {
		armWarm(t, e, warm, 0)
	}
	if err := rewriteHeap(e.Current().Root(), 1, 0); err != nil {
		t.Fatal(err)
	}
	if warm > 0 && !e.WarmWait(30*time.Second) {
		t.Fatalf("warm daemon never caught up: %+v", e.WarmStatus())
	}
	rep, err := e.Update(version(1))
	if err != nil {
		t.Fatalf("update: %v", err)
	}
	sum, err := trace.StateDigest(e.Current())
	if err != nil {
		t.Fatal(err)
	}
	return heapRun{rep: rep, sum: sum}
}

// startBlobInstance starts a blob-chain instance outside the engine,
// optionally with the placement the transfer into it needs; it is
// terminated when the test ends.
func startBlobInstance(t *testing.T, seq, blobs, size int, plan map[mem.PlanKey]mem.Addr,
	reserve []*mem.Object, pinned map[string]uint64) *program.Instance {
	t.Helper()
	inst, err := program.NewInstance(blobVersion(seq, blobs, size), kernel.New(),
		program.Options{PinnedStatics: pinned})
	if err != nil {
		t.Fatal(err)
	}
	if plan != nil {
		inst.Root().Heap().SetPlacementPlan(plan)
	}
	for _, o := range reserve {
		if _, err := inst.Root().Heap().AllocAt(o.Addr, o.Size, nil, o.Site); err != nil {
			t.Fatalf("pre-reserve %s: %v", o, err)
		}
	}
	if err := inst.Start(); err != nil {
		t.Fatal(err)
	}
	if err := inst.WaitStartup(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	inst.CompleteStartup()
	t.Cleanup(func() { inst.Terminate() })
	return inst
}

// TestCheckpointDowntimeReduction checks what the soft-dirty checkpoint
// buys the downtime copy. After startup the workload rewrites a leading
// fraction of the heap, twice; the filtered transfer must discover what an
// unfiltered one discovers, copy >= 60% fewer bytes at <= 20% dirty, and
// copy more as the dirty ratio grows.
func TestCheckpointDowntimeReduction(t *testing.T) {
	const blobs, size = 1024, 256
	var prevLive uint64
	for _, ratio := range []float64{0, 0.05, 0.10, 0.20, 0.50} {
		v1 := startBlobInstance(t, 0, blobs, size, nil, nil, nil)
		root := v1.Root()
		for round := 1; round <= 2; round++ {
			if err := rewriteHeap(root, ratio, round); err != nil {
				t.Fatal(err)
			}
		}
		transfer := func(unfiltered bool) trace.Stats {
			analyses, err := trace.AnalyzeInstance(v1, types.DefaultPolicy(), nil)
			if err != nil {
				t.Fatal(err)
			}
			plan, reserve, pinned := trace.CombinedPlacement(analyses)
			v2 := startBlobInstance(t, 1, blobs, size, plan, reserve, pinned)
			opts := trace.Options{Policy: types.DefaultPolicy(), DisableDirtyFilter: unfiltered}
			st, err := trace.TransferInstance(v1, v2, analyses, opts)
			if err != nil {
				t.Fatal(err)
			}
			return st
		}
		filtered, full := transfer(false), transfer(true)
		if filtered.ObjectsDiscovered != full.ObjectsDiscovered {
			t.Errorf("ratio %.2f: the filter changed discovery: %d vs %d objects", ratio,
				filtered.ObjectsDiscovered, full.ObjectsDiscovered)
		}
		reduction := 1 - float64(filtered.BytesLive)/float64(full.BytesLive)
		if ratio <= 0.20 && reduction < 0.60 {
			t.Errorf("ratio %.2f: reduction %.0f%% below the 60%% bar", ratio, reduction*100)
		}
		if filtered.BytesLive < prevLive {
			t.Errorf("ratio %.2f: copied bytes %d fell below the previous ratio's %d", ratio, filtered.BytesLive, prevLive)
		}
		prevLive = filtered.BytesLive
	}
}

// TestDowntimePipelineBitIdentical runs the same update on every engine
// mode. Sequential, pipelined, pipelined with page adoption and warm
// standby with adoption must transfer bit-identical state (equal state
// digests and equal transfer-stream checksums); the adopting modes must
// move >= 90% of the bytes by adoption; the type-changing control must
// adopt nothing; and adoption under live httpd traffic must complete
// every request.
func TestDowntimePipelineBitIdentical(t *testing.T) {
	const blobs, size = 256, 8192
	blob := func(seq int) *program.Version { return blobVersion(seq, blobs, size) }
	mode := func(sequential, adopt bool) core.Options {
		return core.Options{Sequential: sequential, Adopt: adopt, Audit: true}
	}
	seq := updateHeap(t, mode(true, false), 0, blob)
	pipe := updateHeap(t, mode(false, false), 0, blob)
	adopters := map[string]heapRun{
		"pipelined+adopt": updateHeap(t, mode(false, true), 0, blob),
		"warm+adopt":      updateHeap(t, mode(false, true), 200*time.Microsecond, blob),
	}

	if seq.sum != pipe.sum || seq.rep.Transfer.Checksum != pipe.rep.Transfer.Checksum {
		t.Errorf("pipelined changed the transfer: sum %#x vs %#x, checksum %#x vs %#x",
			pipe.sum, seq.sum, pipe.rep.Transfer.Checksum, seq.rep.Transfer.Checksum)
	}
	if seq.rep.Transfer.BytesTransferred != pipe.rep.Transfer.BytesTransferred ||
		seq.rep.Transfer.ObjectsTransferred != pipe.rep.Transfer.ObjectsTransferred {
		t.Errorf("transfer scope diverged: seq %+v pipe %+v", seq.rep.Transfer, pipe.rep.Transfer)
	}
	if seq.rep.Downtime <= 0 || pipe.rep.Downtime <= 0 {
		t.Errorf("downtime not measured: seq %v pipe %v", seq.rep.Downtime, pipe.rep.Downtime)
	}
	// No writes happen during the update, so the whole analysis must be
	// validated out of the downtime window.
	if pipe.rep.AnalysesReused != 1 || pipe.rep.ProcsReanalyzed != 0 {
		t.Errorf("speculation not reused: reused %d reanalyzed %d", pipe.rep.AnalysesReused, pipe.rep.ProcsReanalyzed)
	}
	for name, run := range adopters {
		if f := run.rep.Transfer.AdoptionFraction(); f < 0.9 {
			t.Errorf("%s adopted only %.0f%% of transferred bytes", name, f*100)
		}
		if run.sum != pipe.sum || run.rep.Transfer.Checksum != pipe.rep.Transfer.Checksum {
			t.Errorf("%s changed the transfer: sum %#x vs %#x, checksum %#x vs %#x",
				name, run.sum, pipe.sum, run.rep.Transfer.Checksum, pipe.rep.Transfer.Checksum)
		}
	}

	typed := updateHeap(t, mode(false, true), 0, func(seq int) *program.Version { return typedVersion(seq, blobs) })
	if typed.rep.Transfer.PagesAdopted != 0 || typed.rep.Transfer.BytesAdopted != 0 {
		t.Errorf("type-changing update adopted %d pages (%d bytes)",
			typed.rep.Transfer.PagesAdopted, typed.rep.Transfer.BytesAdopted)
	}

	// Live traffic: the workload's requests block across the quiesce and
	// complete after commit; adoption must not cut one off.
	spec := servers.HttpdSpec()
	e, k, err := launchServer(spec, core.Options{
		Adopt:          true,
		Audit:          true,
		QuiesceTimeout: 30 * time.Second,
		StartupTimeout: 30 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Shutdown()
	drv, err := workload.StartSustained(k, workload.SustainedOptions{Server: spec.Name, Port: spec.Port, Clients: 4})
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond)
	_, uerr := e.Update(spec.Version(1))
	st := drv.Stop()
	if uerr != nil {
		t.Fatalf("live update: %v", uerr)
	}
	if st.Requests == 0 || st.Errors+st.BadResponses != 0 {
		t.Errorf("live adoption: %d requests, %d failed, %d wrong", st.Requests, st.Errors, st.BadResponses)
	}
}

// TestTransferChecksumBitIdenticalAcrossEngines pins the bit-identity
// witness: the same quiesced state yields the same order-independent FNV
// stream digest on the sequential engine, the pipelined engine and the
// warm fast path.
func TestTransferChecksumBitIdenticalAcrossEngines(t *testing.T) {
	blob := func(seq int) *program.Version { return blobVersion(seq, 64, 2048) }
	runs := map[string]struct {
		opts core.Options
		warm time.Duration
	}{
		"sequential": {core.Options{Sequential: true, Audit: true}, 0},
		"cold":       {core.Options{Audit: true}, 0},
		"warm":       {core.Options{Audit: true}, 500 * time.Microsecond},
	}
	sums := map[string]uint64{}
	for name, r := range runs {
		sums[name] = updateHeap(t, r.opts, r.warm, blob).rep.Transfer.Checksum
		if sums[name] == 0 {
			t.Fatalf("%s: no checksum recorded", name)
		}
	}
	for _, name := range []string{"cold", "warm"} {
		if sums[name] != sums["sequential"] {
			t.Errorf("%s checksum %#x != sequential %#x", name, sums[name], sums["sequential"])
		}
	}
}

// TestWarmStandbyBitIdenticalAndFastPath runs one update cold on both
// engines and warm on the pipelined one. The state must be bit-identical
// across all three, and the warm update must reuse the analysis the
// daemon kept current.
func TestWarmStandbyBitIdenticalAndFastPath(t *testing.T) {
	blob := func(seq int) *program.Version { return blobVersion(seq, 256, 8192) }
	seq := updateHeap(t, core.Options{Sequential: true}, 0, blob)
	cold := updateHeap(t, core.Options{}, 0, blob)
	warm := updateHeap(t, core.Options{}, 500*time.Microsecond, blob)

	if warm.sum != cold.sum || warm.sum != seq.sum {
		t.Errorf("state sums differ: %#x / %#x / %#x", seq.sum, cold.sum, warm.sum)
	}
	if warm.rep.AnalysesReused != 1 || warm.rep.ProcsReanalyzed != 0 {
		t.Errorf("warm analysis not reused: reused %d reanalyzed %d", warm.rep.AnalysesReused, warm.rep.ProcsReanalyzed)
	}
	if !warm.rep.Warm || warm.rep.WarmDaemon.Passes == 0 {
		t.Errorf("no daemon pass before the request: warm %v passes %d", warm.rep.Warm, warm.rep.WarmDaemon.Passes)
	}
	if warm.rep.TotalTime <= 0 || warm.rep.Downtime <= 0 {
		t.Errorf("latency not measured: total %v downtime %v", warm.rep.TotalTime, warm.rep.Downtime)
	}
}

// TestWarmForksSkewedRevalidation scales warm standby to a fork-heavy
// server where post-startup writes hit only the first two of seven
// processes. Every analysis must be reused at quiesce; each hot process
// is re-analyzed once per write round on top of the initial pass, each
// idle one only at the initial pass; and the state matches a cold
// update's bit for bit.
func TestWarmForksSkewedRevalidation(t *testing.T) {
	const children, blobs, size = 6, 24, 1024
	const procs, writers, rounds = children + 1, 2, 3
	run := func(warm bool) (*core.UpdateReport, uint64, []*program.Proc) {
		e, err := core.NewEngine(kernel.New(), core.Options{QuiesceTimeout: 30 * time.Second, StartupTimeout: 30 * time.Second})
		if err != nil {
			t.Fatal(err)
		}
		defer e.Shutdown()
		if _, err := e.Launch(forkVersion(0, children, blobs, size)); err != nil {
			t.Fatal(err)
		}
		if warm {
			armWarm(t, e, 500*time.Microsecond, 0)
		}
		// The daemon's initial pass completes before the writes, so the
		// tally is exact: initial analysis plus one per absorbed round.
		if warm && !e.WarmWait(30*time.Second) {
			t.Fatalf("warm daemon never armed: %+v", e.WarmStatus())
		}
		inst := e.Current()
		for round := 0; round < rounds; round++ {
			for _, p := range inst.Procs()[:writers] {
				if err := rewriteHeap(p, 1, round); err != nil {
					t.Fatal(err)
				}
			}
			if warm && !e.WarmWait(30*time.Second) {
				t.Fatalf("warm daemon never caught up (round %d): %+v", round, e.WarmStatus())
			}
		}
		before := inst.Procs()
		rep, err := e.Update(forkVersion(1, children, blobs, size))
		if err != nil {
			t.Fatal(err)
		}
		sum, err := trace.StateDigest(e.Current())
		if err != nil {
			t.Fatal(err)
		}
		return rep, sum, before
	}
	_, coldSum, _ := run(false)
	rep, warmSum, before := run(true)

	if coldSum != warmSum {
		t.Errorf("state sums differ: cold %#x warm %#x", coldSum, warmSum)
	}
	if len(before) != procs {
		t.Fatalf("%d processes before the update, want %d", len(before), procs)
	}
	if rep.AnalysesReused != procs || rep.ProcsReanalyzed != 0 {
		t.Errorf("warm run reused %d/%d analyses, reanalyzed %d", rep.AnalysesReused, procs, rep.ProcsReanalyzed)
	}
	hot, idle := 0, 0
	for i, p := range before {
		n := rep.WarmReanalyses[p.Key()]
		if i < writers {
			hot += n
			if n < 1+rounds {
				t.Errorf("hot proc%d reanalyses = %d, want >= %d", i, n, 1+rounds)
			}
		} else {
			idle += n
			if n != 1 {
				t.Errorf("idle proc%d reanalyses = %d, want 1", i, n)
			}
		}
	}
	if idle >= hot {
		t.Errorf("no skew: hot=%d idle=%d", hot, idle)
	}
}
