package trace

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/kernel"
	"repro/internal/mem"
	"repro/internal/program"
	"repro/internal/types"
)

// synthShape is one deterministic pseudo-random heap layout: a precisely
// traced linked list of typed nodes plus a web of opaque blobs holding
// hidden pointers (conservatively scanned, targets pinned immutable).
// Children get shapes of their own, built after forking.
type synthShape struct {
	nodes     int
	blobSizes []int
	links     [][3]int // src blob, dst blob, 8-aligned byte offset in src
	children  []*synthShape
}

// randShape derives a reproducible shape for a root process and procs-1
// forked children from seed.
func randShape(seed int64, procs int) *synthShape {
	rnd := rand.New(rand.NewSource(seed))
	mk := func() *synthShape {
		s := &synthShape{nodes: 20 + rnd.Intn(60)}
		nblobs := 4 + rnd.Intn(12)
		for i := 0; i < nblobs; i++ {
			s.blobSizes = append(s.blobSizes, 16+rnd.Intn(480))
		}
		// Chain-link so every blob is reachable from blob 0, then add a few
		// random cross links.
		for i := 1; i < nblobs; i++ {
			off := 8 * rnd.Intn(s.blobSizes[i-1]/8)
			s.links = append(s.links, [3]int{i - 1, i, off})
		}
		for n := rnd.Intn(8); n > 0; n-- {
			src := rnd.Intn(nblobs)
			off := 8 * rnd.Intn(s.blobSizes[src]/8)
			s.links = append(s.links, [3]int{src, rnd.Intn(nblobs), off})
		}
		return s
	}
	root := mk()
	for i := 1; i < procs; i++ {
		root.children = append(root.children, mk())
	}
	return root
}

// synthVersion builds a program version over the shape. grow adds a field
// to node_t (within the same allocator size class, so heap addresses stay
// put and only the type transformation is exercised); seq > 0 shifts the
// static layout, forcing relocation of globals.
func synthVersion(seq int, shape *synthShape, grow bool) *program.Version {
	reg := types.NewRegistry()
	node := &types.Type{Name: "node_t", Kind: types.KindStruct}
	node.Fields = []types.Field{
		{Name: "value", Offset: 0, Type: types.Scalar(types.KindInt64)},
		{Name: "next", Offset: 8, Type: types.PointerTo(node)},
		{Name: "buddy", Offset: 16, Type: types.PointerTo(node)},
	}
	node.Size, node.Align = 24, 8
	if grow {
		node.Fields = append(node.Fields, types.Field{
			Name: "gen", Offset: 24, Type: types.Scalar(types.KindInt64)})
		node.Size = 32
	}
	reg.Define(node)
	return &program.Version{
		Program: "synthheap",
		Release: fmt.Sprintf("v%d", seq+1),
		Seq:     seq,
		Types:   reg,
		Globals: []program.GlobalSpec{
			{Name: "list", Type: "node_t"},
			{Name: "anchor", Size: 64},
		},
		Annotations: program.NewAnnotations(),
		Main:        synthMain(shape),
	}
}

func synthMain(shape *synthShape) func(*program.Thread) error {
	return func(t *program.Thread) error {
		t.Enter("main")
		defer t.Exit()
		if err := t.Call("synth_init", func() error {
			return buildSynthHeap(t, shape)
		}); err != nil {
			return err
		}
		for i, cs := range shape.children {
			cs := cs
			name := fmt.Sprintf("child_%d", i)
			if _, err := t.ForkProc(name, synthChildMain(name, cs)); err != nil {
				return err
			}
		}
		return synthIdle(t)
	}
}

func synthChildMain(name string, shape *synthShape) func(*program.Thread) error {
	return func(t *program.Thread) error {
		t.Enter(name)
		defer t.Exit()
		if err := t.Call(name+"_init", func() error {
			return buildSynthHeap(t, shape)
		}); err != nil {
			return err
		}
		return synthIdle(t)
	}
}

func synthIdle(t *program.Thread) error {
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

// buildSynthHeap allocates the shape into the calling process: the typed
// list chained off the "list" global, then the opaque blobs, hidden
// pointers between them, and the anchor word that roots the blob web.
func buildSynthHeap(t *program.Thread, shape *synthShape) error {
	p := t.Proc()
	head := p.MustGlobal("list")
	prev := head
	for i := 0; i < shape.nodes; i++ {
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
		if i%3 == 0 {
			if err := p.WriteField(n, "buddy", uint64(head.Addr)); err != nil {
				return err
			}
		}
		prev = n
	}
	blobs := make([]*mem.Object, len(shape.blobSizes))
	for i, sz := range shape.blobSizes {
		b, err := t.MallocBytes(uint64(sz))
		if err != nil {
			return err
		}
		// 0xA5-filled words never alias a mapped address, so the only
		// likely pointers a conservative scan finds are the planted links.
		fill := bytes.Repeat([]byte{0xA5}, sz)
		if err := p.WriteBytes(b, 0, fill); err != nil {
			return err
		}
		blobs[i] = b
	}
	for _, l := range shape.links {
		if err := p.WriteWordAt(blobs[l[0]], uint64(l[2]), uint64(blobs[l[1]].Addr)); err != nil {
			return err
		}
	}
	return p.WriteWordAt(p.MustGlobal("anchor"), 0, uint64(blobs[0].Addr))
}

// startSynth runs a version to its startup-complete quiescent state.
func startSynth(t *testing.T, v *program.Version, opts program.Options, plan map[mem.PlanKey]mem.Addr, reserve []*mem.Object) *program.Instance {
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

func startSynthV1(t *testing.T, shape *synthShape) *program.Instance {
	t.Helper()
	return startSynth(t, synthVersion(0, shape, false), program.Options{}, nil, nil)
}

func startSynthV2(t *testing.T, shape *synthShape, grow bool, analyses map[program.ProcKey]*Analysis) *program.Instance {
	t.Helper()
	plan, reserve, pinned := CombinedPlacement(analyses)
	return startSynth(t, synthVersion(1, shape, grow),
		program.Options{PinnedStatics: pinned}, plan, reserve)
}

// compareInstances asserts two new-version instances are bit-identical:
// same processes, same object universes, same memory contents.
func compareInstances(t *testing.T, a, b *program.Instance) {
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
				t.Fatalf("proc %s: contents of %s differ between the two transfers", ap.Key(), ao)
			}
		}
	}
}

// transferSynth runs one full analyze+transfer of v1 into a fresh v2 and
// returns the stats and the transferred instance.
func transferSynth(t *testing.T, v1 *program.Instance, shape *synthShape, grow, disableDirty bool) (Stats, *program.Instance) {
	t.Helper()
	analyses, err := AnalyzeInstance(v1, types.DefaultPolicy(), nil)
	if err != nil {
		t.Fatal(err)
	}
	v2 := startSynthV2(t, shape, grow, analyses)
	stats, err := TransferInstance(v1, v2, analyses, Options{
		Policy:             types.DefaultPolicy(),
		DisableDirtyFilter: disableDirty,
	})
	if err != nil {
		v2.Terminate()
		t.Fatalf("transfer: %v", err)
	}
	return stats, v2
}

// TestParallelTransferRaceStress repeatedly transfers randomized 2- and
// 3-process heaps; run under -race it shakes out unsynchronized access
// between the per-process discovery and copy goroutines of
// DiscoverInstance and Complete, the only concurrency in a transfer.
func TestParallelTransferRaceStress(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			shape := randShape(seed*101, 2+int(seed%2))
			v1 := startSynthV1(t, shape)
			defer v1.Terminate()
			for rep := 0; rep < 2; rep++ {
				stats, v2 := transferSynth(t, v1, shape, rep == 1, rep == 0)
				if stats.ObjectsDiscovered == 0 {
					t.Fatalf("rep %d: nothing discovered", rep)
				}
				v2.Terminate()
			}
		})
	}
}
