package checkpoint

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"

	"repro/internal/kernel"
	"repro/internal/mem"
	"repro/internal/program"
	"repro/internal/trace"
	"repro/internal/types"
)

// --- synthetic program ------------------------------------------------------
//
// A deterministic heap: a precisely traced linked list of typed nodes plus
// a chain of opaque blobs linked by hidden pointers at word 0 (payload in
// the remaining words), optionally duplicated into a forked child process.
// Post-startup "traffic" is modelled by dirtyHeap, which rewrites value
// words with patterns whose top byte is >= 0x80 so they can never alias a
// mapped address (the conservative scan must not follow them).

const (
	synthNodes = 120
	synthBlobs = 30
)

func synthVersion(seq int, withChild bool) *program.Version {
	reg := types.NewRegistry()
	node := &types.Type{Name: "node_t", Kind: types.KindStruct}
	node.Fields = []types.Field{
		{Name: "value", Offset: 0, Type: types.Scalar(types.KindInt64)},
		{Name: "next", Offset: 8, Type: types.PointerTo(node)},
	}
	node.Size, node.Align = 16, 8
	reg.Define(node)
	main := func(t *program.Thread) error {
		t.Enter("main")
		defer t.Exit()
		if err := t.Call("synth_init", func() error {
			return buildHeap(t, synthNodes, synthBlobs)
		}); err != nil {
			return err
		}
		if withChild {
			if _, err := t.ForkProc("child_0", func(ct *program.Thread) error {
				ct.Enter("child_0")
				defer ct.Exit()
				if err := ct.Call("child_init", func() error {
					return buildHeap(ct, synthNodes/2, synthBlobs/2)
				}); err != nil {
					return err
				}
				return idle(ct)
			}); err != nil {
				return err
			}
		}
		return idle(t)
	}
	return &program.Version{
		Program: "ckptheap",
		Release: fmt.Sprintf("v%d", seq+1),
		Seq:     seq,
		Types:   reg,
		Globals: []program.GlobalSpec{
			{Name: "list", Type: "node_t"},
			{Name: "anchor", Size: 64},
		},
		Annotations: program.NewAnnotations(),
		Main:        main,
	}
}

func idle(t *program.Thread) error {
	return t.Loop("synth_loop", func() error {
		if err := t.IdleQP("idle@synth_loop"); err != nil {
			if errors.Is(err, program.ErrStopped) {
				return program.ErrLoopExit
			}
			return err
		}
		return nil
	})
}

func buildHeap(t *program.Thread, nodes, blobs int) error {
	p := t.Proc()
	prev := p.MustGlobal("list")
	for i := 0; i < nodes; i++ {
		n, err := t.Malloc("node_t")
		if err != nil {
			return err
		}
		if err := p.WriteField(n, "value", uint64(i)*7+1); err != nil {
			return err
		}
		if err := p.WriteField(prev, "next", uint64(n.Addr)); err != nil {
			return err
		}
		prev = n
	}
	var first, last *mem.Object
	for i := 0; i < blobs; i++ {
		sz := uint64(64 + (i%8)*32)
		b, err := t.MallocBytes(sz)
		if err != nil {
			return err
		}
		fill := bytes.Repeat([]byte{0xA5}, int(sz))
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

func startInst(t *testing.T, v *program.Version, opts program.Options,
	plan map[mem.PlanKey]mem.Addr, reserve []*mem.Object) *program.Instance {
	t.Helper()
	inst, err := program.NewInstance(v, kernel.New(), opts)
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
	if err := inst.WaitStartup(10 * time.Second); err != nil {
		t.Fatalf("startup %s: %v", v, err)
	}
	inst.CompleteStartup()
	return inst
}

func heapObjs(p *program.Proc) []*mem.Object {
	var out []*mem.Object
	for _, o := range p.Index().All() {
		if o.Kind == mem.ObjHeap {
			out = append(out, o)
		}
	}
	return out
}

// dirtyHeap rewrites one value word of the heap objects sitting on every
// `every`-th page, in every process: typed nodes at their value field,
// opaque blobs at their last word (links live at word 0). Selecting by
// page keeps the residual dirty set page-sparse — the unit the soft-dirty
// filter works at. Patterns depend on
// (step, object index) so distinct phases leave distinct bits, and every
// byte has the top bit set so no payload word aliases a mapped address.
func dirtyHeap(t *testing.T, inst *program.Instance, every, step int) {
	t.Helper()
	for _, p := range inst.Procs() {
		for i, o := range heapObjs(p) {
			if (uint64(o.Addr)>>mem.PageShift)%uint64(every) != 0 {
				continue
			}
			off := uint64(0)
			if o.Type == nil {
				off = o.Size - 8
			}
			var buf [8]byte
			for j := range buf {
				buf[j] = 0x80 | byte((step*31+i*7+j)&0x7f)
			}
			if err := p.Space().WriteAt(o.Addr+mem.Addr(off), buf[:]); err != nil {
				t.Fatalf("dirty %s: %v", o, err)
			}
		}
	}
}

// transferInto analyzes v1 and transfers it into a freshly started new
// version, with the soft-dirty filter or copying every object.
func transferInto(t *testing.T, v1 *program.Instance, withChild, unfiltered bool) (trace.Stats, *program.Instance) {
	t.Helper()
	analyses, err := trace.AnalyzeInstance(v1, types.DefaultPolicy(), nil)
	if err != nil {
		t.Fatal(err)
	}
	plan, reserve, pinned := trace.CombinedPlacement(analyses)
	v2 := startInst(t, synthVersion(1, withChild),
		program.Options{PinnedStatics: pinned}, plan, reserve)
	opts := trace.Options{Policy: types.DefaultPolicy(), DisableDirtyFilter: unfiltered}
	stats, err := trace.TransferInstance(v1, v2, analyses, opts)
	if err != nil {
		v2.Terminate()
		t.Fatalf("transfer (unfiltered=%v): %v", unfiltered, err)
	}
	return stats, v2
}

// compareInstances asserts two new-version instances are bit-identical:
// same processes, same object universes, same memory contents.
func compareInstances(t *testing.T, label string, a, b *program.Instance) {
	t.Helper()
	aprocs := a.Procs()
	if len(aprocs) != len(b.Procs()) {
		t.Fatalf("%s: proc count %d vs %d", label, len(aprocs), len(b.Procs()))
	}
	for _, ap := range aprocs {
		bp, ok := b.ProcByKey(ap.Key())
		if !ok {
			t.Fatalf("%s: proc %s missing", label, ap.Key())
		}
		aobjs, bobjs := ap.Index().All(), bp.Index().All()
		if len(aobjs) != len(bobjs) {
			t.Fatalf("%s: proc %s object count %d vs %d", label, ap.Key(), len(aobjs), len(bobjs))
		}
		for i, ao := range aobjs {
			bo := bobjs[i]
			if ao.Addr != bo.Addr || ao.Size != bo.Size || ao.Kind != bo.Kind {
				t.Fatalf("%s: proc %s object %d diverged: %s vs %s", label, ap.Key(), i, ao, bo)
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
				t.Fatalf("%s: proc %s: contents of %s differ", label, ap.Key(), ao)
			}
		}
	}
}

// --- tests ------------------------------------------------------------------

// TestPrecopyBitIdentical: epochs interleaved with writes clear nothing,
// so the transfer that follows still sees every object written since
// startup. The filtered transfer must be bit-identical to one that copies
// every object, while skipping the objects nobody wrote.
func TestPrecopyBitIdentical(t *testing.T) {
	for _, withChild := range []bool{false, true} {
		name := "single-proc"
		if withChild {
			name = "multi-proc"
		}
		t.Run(name, func(t *testing.T) {
			v1 := startInst(t, synthVersion(0, withChild), program.Options{}, nil, nil)
			defer v1.Terminate()

			snap := New(v1, Options{})
			dirtyHeap(t, v1, 2, 0)
			snap.Epoch()
			dirtyHeap(t, v1, 4, 1)
			snap.Epoch()
			dirtyHeap(t, v1, 8, 2) // writes after the last epoch
			snap.Discard()

			s, filtered := transferInto(t, v1, withChild, false)
			defer filtered.Terminate()
			b, full := transferInto(t, v1, withChild, true)
			defer full.Terminate()
			if s.ObjectsSkippedClean == 0 || s.ObjectsTransferred == 0 {
				t.Fatalf("degenerate scenario, nothing exercised: %+v", s)
			}
			if s.ObjectsDiscovered != b.ObjectsDiscovered {
				t.Fatalf("transfer scope diverged:\nfiltered   %+v\nunfiltered %+v", s, b)
			}
			compareInstances(t, "filtered vs unfiltered", filtered, full)
		})
	}
}

// TestDiscardRestoresDirtyBits: an epoch and a discard leave the dirty set
// exactly as they found it, so a transfer after them — or the benchmark
// probe's clone — still sees every page written since startup.
func TestDiscardRestoresDirtyBits(t *testing.T) {
	v1 := startInst(t, synthVersion(0, false), program.Options{}, nil, nil)
	defer v1.Terminate()
	dirtyHeap(t, v1, 1, 0)
	space := v1.Root().Space()
	before := space.SoftDirtyPages()
	if len(before) == 0 {
		t.Fatal("nothing dirty after dirtyHeap")
	}
	snap := New(v1, Options{})
	if es := snap.Epoch(); es.DirtyPages != len(before) {
		t.Fatalf("epoch read %d dirty pages, want %d", es.DirtyPages, len(before))
	}
	if got := space.SoftDirtyPages(); !reflect.DeepEqual(got, before) {
		t.Fatalf("epoch changed the dirty set: %v, was %v", got, before)
	}
	snap.Discard()
	if got := space.SoftDirtyPages(); !reflect.DeepEqual(got, before) {
		t.Fatalf("discard changed the dirty set: %v, was %v", got, before)
	}
}

// TestForkDuringPrecopyStaysAccountable: a child forked after an epoch
// inherits the parent's whole dirty-since-startup set as soft-dirty bits.
func TestForkDuringPrecopyStaysAccountable(t *testing.T) {
	v1 := startInst(t, synthVersion(0, false), program.Options{}, nil, nil)
	defer v1.Terminate()
	dirtyHeap(t, v1, 1, 0)
	parentDirty := v1.Root().Space().SoftDirtyPages()

	snap := New(v1, Options{})
	snap.Epoch()

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
	if got := child.Space().SoftDirtyPages(); !reflect.DeepEqual(got, parentDirty) {
		t.Fatalf("child dirty pages %v != parent's pre-fork dirty set %v", got, parentDirty)
	}
}

// TestEpochAfterDiscardHandsBitsBack: an epoch run after Discard reads the
// dirty pages like any other and leaves every bit where it was.
func TestEpochAfterDiscardHandsBitsBack(t *testing.T) {
	v1 := startInst(t, synthVersion(0, false), program.Options{}, nil, nil)
	defer v1.Terminate()
	snap := New(v1, Options{})
	snap.Discard()
	dirtyHeap(t, v1, 1, 0)
	space := v1.Root().Space()
	before := space.SoftDirtyPages()
	if es := snap.Epoch(); es.DirtyPages != len(before) {
		t.Fatalf("post-discard epoch read %d pages, want %d", es.DirtyPages, len(before))
	}
	if got := space.SoftDirtyPages(); !reflect.DeepEqual(got, before) {
		t.Fatalf("post-discard epoch changed the dirty set: %v vs %v", got, before)
	}
}

// TestEpochRaceStress runs epochs concurrently with a writer; under -race
// it shakes out unsynchronized access between the epoch's reads and the
// running program.
func TestEpochRaceStress(t *testing.T) {
	v1 := startInst(t, synthVersion(0, false), program.Options{}, nil, nil)
	defer v1.Terminate()
	root := v1.Root()
	objs := heapObjs(root)
	stop := make(chan struct{})
	done := make(chan struct{})
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
			_ = root.Space().WriteAt(o.Addr+mem.Addr(off), buf[:])
		}
	}()
	snap := New(v1, Options{})
	defer snap.Discard()
	// At least ten epochs, and until one of them has seen the writer.
	pages := 0
	for i, deadline := 0, time.Now().Add(5*time.Second); i < 10 || (pages == 0 && time.Now().Before(deadline)); i++ {
		pages += snap.Epoch().DirtyPages
	}
	close(stop)
	<-done
	if pages == 0 {
		t.Fatal("no epoch read a page the writer dirtied")
	}
}
