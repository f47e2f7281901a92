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
// filter (and therefore shadow currency) works at. Patterns depend on
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
// version, optionally consulting the snapshotter's shadows.
func transferInto(t *testing.T, v1 *program.Instance, withChild bool,
	snap *Snapshotter) (trace.Stats, *program.Instance) {
	t.Helper()
	analyses, err := trace.AnalyzeInstance(v1, types.DefaultPolicy(), nil)
	if err != nil {
		t.Fatal(err)
	}
	plan, reserve, pinned := trace.CombinedPlacement(analyses)
	v2 := startInst(t, synthVersion(1, withChild),
		program.Options{PinnedStatics: pinned}, plan, reserve)
	opts := trace.Options{Policy: types.DefaultPolicy()}
	if snap != nil {
		opts.Shadows = snap.Shadows()
	}
	stats, err := trace.TransferInstance(v1, v2, analyses, opts)
	if err != nil {
		v2.Terminate()
		t.Fatalf("transfer (precopy=%v): %v", snap != nil, err)
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

// TestPrecopyBitIdentical is the tentpole acceptance test: after pre-copy
// epochs interleaved with further dirtying, a shadow-consulting transfer
// must produce the same transferred-object set and bit-identical new
// instances as a checkpoint-free transfer, while serving a substantial
// share of the copied bytes from shadows.
func TestPrecopyBitIdentical(t *testing.T) {
	for _, withChild := range []bool{false, true} {
		withChild := withChild
		name := "single-proc"
		if withChild {
			name = "multi-proc"
		}
		t.Run(name, func(t *testing.T) {
			v1 := startInst(t, synthVersion(0, withChild), program.Options{}, nil, nil)
			defer v1.Terminate()

			snap := New(v1, Options{})
			dirtyHeap(t, v1, 1, 0) // everything written since startup
			snap.Epoch()
			dirtyHeap(t, v1, 4, 1) // writable working set between epochs
			snap.Epoch()
			dirtyHeap(t, v1, 8, 2) // residual writes after the last epoch

			s, shadowInst := transferInto(t, v1, withChild, snap)
			defer shadowInst.Terminate()
			if s.BytesFromShadow == 0 {
				t.Fatalf("no bytes served from shadows: %+v", s)
			}
			if s.BytesFromShadow+s.BytesLive != s.BytesTransferred {
				t.Fatalf("shadow+live != transferred: %+v", s)
			}

			// Discard hands the consumed bits back; a checkpoint-free
			// transfer must now see the identical dirty set.
			snap.Discard()
			b, baseInst := transferInto(t, v1, withChild, nil)
			defer baseInst.Terminate()
			if b.BytesFromShadow != 0 {
				t.Fatalf("baseline: unexpected shadow bytes: %+v", b)
			}
			if s.ObjectsDiscovered != b.ObjectsDiscovered ||
				s.ObjectsTransferred != b.ObjectsTransferred ||
				s.ObjectsSkippedClean != b.ObjectsSkippedClean ||
				s.BytesTransferred != b.BytesTransferred {
				t.Fatalf("transfer scope diverged with pre-copy:\nshadowed %+v\nbaseline %+v", s, b)
			}
			compareInstances(t, "shadow vs baseline", shadowInst, baseInst)

			if s.ObjectsSkippedClean == 0 || s.ObjectsTransferred == 0 {
				t.Fatalf("degenerate scenario, nothing exercised: %+v", s)
			}
			if s.ShadowFraction() < 0.5 {
				t.Errorf("shadow fraction %.2f too low for a mostly-stable heap: %+v",
					s.ShadowFraction(), s)
			}
		})
	}
}

// TestDiscardRestoresDirtyBits pins the rollback contract: consumed bits
// come back as soft-dirty, so a later checkpoint-free attempt still sees
// the full dirty-since-startup set.
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
	snap.Epoch()
	if got := space.SoftDirtyPages(); len(got) != 0 {
		t.Fatalf("epoch left %d pages soft-dirty", len(got))
	}
	if got := space.ConsumedDirtyPages(); !reflect.DeepEqual(got, before) {
		t.Fatalf("consumed pages %v != dirtied pages %v", got, before)
	}
	snap.Discard()
	if got := space.SoftDirtyPages(); !reflect.DeepEqual(got, before) {
		t.Fatalf("restored pages %v != dirtied pages %v", got, before)
	}
	if got := space.ConsumedDirtyPages(); len(got) != 0 {
		t.Fatalf("consumed marks survived discard: %v", got)
	}
	if ps := snap.ProcShadow(program.RootKey); ps != nil {
		t.Fatal("ProcShadow served after discard")
	}
}

// TestForkDuringPrecopyStaysAccountable covers the mid-pre-copy fork
// hazard: a child forked after epochs consumed the parent's bits inherits
// the consumed marks with its memory image, so its dirty-since-startup
// set (soft-dirty ∪ consumed) is exact, and Discard restores the child's
// bits too.
func TestForkDuringPrecopyStaysAccountable(t *testing.T) {
	v1 := startInst(t, synthVersion(0, false), program.Options{}, nil, nil)
	defer v1.Terminate()
	dirtyHeap(t, v1, 1, 0)
	parentDirty := v1.Root().Space().SoftDirtyPages()

	snap := New(v1, Options{})
	snap.Epoch() // consumes the parent's bits

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
	got := child.Space().ConsumedDirtyPages()
	if !reflect.DeepEqual(got, parentDirty) {
		t.Fatalf("child consumed pages %v != parent's pre-fork dirty set %v", got, parentDirty)
	}
	snap.Discard()
	if got := child.Space().SoftDirtyPages(); !reflect.DeepEqual(got, parentDirty) {
		t.Fatalf("discard did not restore the child's bits: %v vs %v", got, parentDirty)
	}
}

// TestEpochAfterDiscardHandsBitsBack pins the Epoch/Discard interleaving
// contract: an epoch that loses the race with Discard must hand the bits
// it just consumed back to the address space — otherwise a later
// checkpoint-free transfer would silently under-copy.
func TestEpochAfterDiscardHandsBitsBack(t *testing.T) {
	v1 := startInst(t, synthVersion(0, false), program.Options{}, nil, nil)
	defer v1.Terminate()
	snap := New(v1, Options{})
	snap.Discard()
	dirtyHeap(t, v1, 1, 0)
	space := v1.Root().Space()
	before := space.SoftDirtyPages()
	es := snap.Epoch()
	if es.DirtyPages != 0 {
		t.Fatalf("post-discard epoch did work: %+v", es)
	}
	if got := space.SoftDirtyPages(); !reflect.DeepEqual(got, before) {
		t.Fatalf("post-discard epoch leaked consumed bits: %v vs %v", got, before)
	}
	if got := space.ConsumedDirtyPages(); len(got) != 0 {
		t.Fatalf("consumed marks left behind: %v", got)
	}
}

// TestEpochRaceStress runs epochs concurrently with writers and shadow
// readers; under -race it shakes out unsynchronized access between the
// snapshotter, the running program and the transfer-side queries.
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
	readerStop := make(chan struct{})
	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		for {
			select {
			case <-readerStop:
				return
			default:
			}
			if ps := snap.ProcShadow(program.RootKey); ps != nil {
				ps.EverDirtyPages()
				for _, o := range objs[:4] {
					ps.Shadow(o)
				}
			}
		}
	}()
	// At least ten epochs, and until one of them has raced the writer.
	pages := 0
	for i, deadline := 0, time.Now().Add(5*time.Second); i < 10 || (pages == 0 && time.Now().Before(deadline)); i++ {
		pages += snap.Epoch().DirtyPages
	}
	close(stop)
	close(readerStop)
	<-done
	<-readerDone
	if pages == 0 {
		t.Fatal("no epoch consumed a page the writer dirtied")
	}
}

// TestProcShadowInvalidate pins the shadow-invalidation contract page
// adoption relies on: a donated object's shadow must never be served
// again, and the nil receiver (no checkpoint in flight) must be a no-op.
func TestProcShadowInvalidate(t *testing.T) {
	ps := &ProcShadow{shadows: make(map[*mem.Object][]byte)}
	a := &mem.Object{Addr: 0x1000, Size: 64}
	b := &mem.Object{Addr: 0x2000, Size: 64}
	ps.put(a, []byte{1, 2, 3})
	ps.put(b, []byte{4, 5, 6})
	if n := ps.ShadowObjects(); n != 2 {
		t.Fatalf("ShadowObjects = %d, want 2", n)
	}

	ps.Invalidate(a)
	if _, ok := ps.Shadow(a); ok {
		t.Error("invalidated shadow still served")
	}
	if buf, ok := ps.Shadow(b); !ok || len(buf) != 3 {
		t.Error("Invalidate disturbed an unrelated shadow")
	}
	if n := ps.ShadowObjects(); n != 1 {
		t.Errorf("ShadowObjects = %d after Invalidate, want 1", n)
	}

	// Idempotent, and safe for objects never captured.
	ps.Invalidate(a)
	ps.Invalidate(&mem.Object{Addr: 0x3000})

	// Nil receiver: the transfer calls Invalidate unconditionally even
	// when no checkpoint daemon captured shadows.
	var none *ProcShadow
	none.Invalidate(a)
}
