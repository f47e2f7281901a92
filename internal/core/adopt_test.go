package core

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/kernel"
	"repro/internal/leakcheck"
	"repro/internal/mem"
	"repro/internal/program"
	"repro/internal/trace"
	"repro/internal/types"
)

// blobdVersion mirrors the downtime harness heap at test scale: `blobs`
// untyped buffers chained by a hidden pointer at word 0, rooted in an
// untyped global. Startup allocations recreated at identical addresses
// make the whole heap page-adoptable under the identity-remap rule.
func blobdVersion(seq, blobs, size int) *program.Version {
	return &program.Version{
		Program:     "blobd",
		Release:     fmt.Sprintf("v%d", seq+1),
		Seq:         seq,
		Types:       types.NewRegistry(),
		Globals:     []program.GlobalSpec{{Name: "anchor", Size: 64}},
		Annotations: program.NewAnnotations(),
		Main: func(t *program.Thread) error {
			t.Enter("main")
			defer t.Exit()
			if err := t.Call("blobd_init", func() error {
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
			}); err != nil {
				return err
			}
			return t.Loop("blobd_loop", func() error {
				if err := t.IdleQP("idle@blobd_loop"); err != nil {
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

// dirtyBlobPayloads rewrites every heap object's payload (past the chain
// word) with a deterministic pattern, making the whole heap post-startup
// state the update must transfer. Top bits stay set so no payload word
// aliases a mapped address.
func dirtyBlobPayloads(t *testing.T, inst *program.Instance) {
	t.Helper()
	p := inst.Root()
	i := 0
	for _, o := range p.Index().All() {
		if o.Kind != mem.ObjHeap || o.Size <= 16 || o.Scratch {
			continue
		}
		payload := make([]byte, o.Size-8)
		for j := range payload {
			payload[j] = 0x80 | byte((i*7+j)&0x7f)
		}
		if err := p.Space().WriteAt(o.Addr+8, payload); err != nil {
			t.Fatal(err)
		}
		i++
	}
}

// TestAdoptDeterminism pins the bit-identity contract across every
// scheduling axis: the adopted and copied transfers must produce the same
// FNV source checksum and the same post-update state digest as the
// sequential engine's copy, under GOMAXPROCS 1 and 4, while the adoption runs move >= 90% of the transferred bytes.
func TestAdoptDeterminism(t *testing.T) {
	const blobs, size = 24, 2048
	type outcome struct {
		checksum, digest uint64
		fraction         float64
		pages            uint64
	}
	run := func(t *testing.T, opts Options) outcome {
		t.Helper()
		e, err := NewEngine(kernel.New(), opts)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := e.Launch(blobdVersion(0, blobs, size)); err != nil {
			t.Fatal(err)
		}
		defer e.Shutdown()
		dirtyBlobPayloads(t, e.Current())
		rep, err := e.Update(blobdVersion(1, blobs, size))
		if err != nil {
			t.Fatal(err)
		}
		d := mustDigest(t, e.Current())
		return outcome{
			checksum: rep.Transfer.Checksum,
			digest:   d,
			fraction: rep.Transfer.AdoptionFraction(),
			pages:    uint64(rep.Transfer.PagesAdopted),
		}
	}
	for _, gmp := range []int{1, 4} {
		t.Run(fmt.Sprintf("gomaxprocs=%d", gmp), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(gmp))
			base := run(t, Options{Sequential: true, Audit: true})
			copied := run(t, Options{Audit: true})
			adopted := run(t, Options{Adopt: true, Audit: true})
			if adopted.pages == 0 || adopted.fraction < 0.9 {
				t.Fatalf("adoption did not engage: %+v", adopted)
			}
			for name, o := range map[string]outcome{"copied": copied, "adopted": adopted} {
				if o.checksum != base.checksum {
					t.Errorf("%s: checksum %#x, sequential %#x", name, o.checksum, base.checksum)
				}
				if o.digest != base.digest {
					t.Errorf("%s: state digest %#x, sequential %#x", name, o.digest, base.digest)
				}
			}
		})
	}
}

// relocdVersion builds the exclusion fixture: precisely-typed heap
// records carrying a pointer to a static global (which the versioned
// static-layout shift relocates) and a policy-opaque char array. The
// layout never changes, but the conf pointer's remap is not the identity
// on any update, so no record page may move — page adoption must fall
// back to the copying path wholesale.
func relocdVersion(seq, recs int) *program.Version {
	reg := types.NewRegistry()
	conf := types.StructOf("conf_s",
		types.Field{Name: "port", Type: types.Scalar(types.KindUint64)},
	)
	node := &types.Type{Name: "node_s", Kind: types.KindStruct}
	node.Fields = []types.Field{
		{Name: "next", Offset: 0, Type: types.PointerTo(node)},
		{Name: "conf", Offset: 8, Type: types.PointerTo(conf)},
		{Name: "buf", Offset: 16, Type: types.ArrayOf(16, types.Scalar(types.KindUint8))},
	}
	node.Size, node.Align = 32, 8
	reg.Define(conf)
	reg.Define(node)
	anchor := types.StructOf("anchor_s",
		types.Field{Name: "head", Type: types.PointerTo(node)},
	)
	reg.Define(anchor)
	return &program.Version{
		Program: "relocd",
		Release: fmt.Sprintf("v%d", seq+1),
		Seq:     seq,
		Types:   reg,
		Globals: []program.GlobalSpec{
			{Name: "conf", Type: "conf_s"},
			{Name: "anchor", Type: "anchor_s"},
		},
		Annotations: program.NewAnnotations(),
		Main: func(t *program.Thread) error {
			t.Enter("main")
			defer t.Exit()
			if err := t.Call("relocd_init", func() error {
				p := t.Proc()
				confG := p.MustGlobal("conf")
				var first, last *mem.Object
				for i := 0; i < recs; i++ {
					r, err := t.Malloc("node_s")
					if err != nil {
						return err
					}
					if err := p.WriteWordAt(r, 8, uint64(confG.Addr)); err != nil {
						return err
					}
					if last != nil {
						if err := p.WriteWordAt(last, 0, uint64(r.Addr)); err != nil {
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
			return t.Loop("relocd_loop", func() error {
				if err := t.IdleQP("idle@relocd_loop"); err != nil {
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

// TestAdoptExcludesNonIdentityPointers proves the safety gate: pages
// whose objects carry pointer slots that do not remap to themselves (and
// policy-opaque ranges beside them) are never adopted — the update still
// commits, bit-identical to an adoption-off run, with zero pages moved.
func TestAdoptExcludesNonIdentityPointers(t *testing.T) {
	const recs = 200 // spans multiple pages
	run := func(t *testing.T, adopt bool) (uint64, uint64, *trace.Stats) {
		t.Helper()
		e, err := NewEngine(kernel.New(), Options{Adopt: adopt, Audit: true})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := e.Launch(relocdVersion(0, recs)); err != nil {
			t.Fatal(err)
		}
		defer e.Shutdown()
		// Dirty every record's opaque payload so the records must
		// transfer: exclusion has to be proven on needs-copy pages, not
		// on pages the dirty filter skips anyway.
		p := e.Current().Root()
		for _, o := range p.Index().All() {
			if o.Kind != mem.ObjHeap || o.Size != 32 || o.Scratch {
				continue
			}
			if err := p.Space().WriteAt(o.Addr+16, bytes.Repeat([]byte{0xEE}, 16)); err != nil {
				t.Fatal(err)
			}
		}
		rep, err := e.Update(relocdVersion(1, recs))
		if err != nil {
			t.Fatal(err)
		}
		return rep.Transfer.Checksum, mustDigest(t, e.Current()), &rep.Transfer
	}
	sumOff, digOff, _ := run(t, false)
	sumOn, digOn, stats := run(t, true)
	if stats.PagesAdopted != 0 || stats.BytesAdopted != 0 {
		t.Fatalf("non-identity pointer pages were adopted: %+v", stats)
	}
	if sumOn != sumOff || digOn != digOff {
		t.Errorf("adoption path diverged: checksum %#x/%#x digest %#x/%#x",
			sumOn, sumOff, digOn, digOff)
	}
}

// sparsedPages is the span of sparsed's one large buffer.
const sparsedPages = 256

// sparsedVersion builds the neutral-page fixture: one untyped buffer of
// sparsedPages pages, allocated at startup and left demand-zero, rooted in
// an untyped global. With shared set, a record whose pointer to a static
// global never remaps to itself (the relocd rule) is allocated just before
// the buffer, on the buffer's first page.
func sparsedVersion(seq int, shared bool) *program.Version {
	reg := types.NewRegistry()
	conf := types.StructOf("conf_s", types.Field{Name: "port", Type: types.Scalar(types.KindUint64)})
	reg.Define(conf)
	reg.Define(types.StructOf("rec_s", types.Field{Name: "conf", Type: types.PointerTo(conf)}))
	return &program.Version{
		Program: "sparsed",
		Release: fmt.Sprintf("v%d", seq+1),
		Seq:     seq,
		Types:   reg,
		Globals: []program.GlobalSpec{
			{Name: "conf", Type: "conf_s"},
			{Name: "anchor", Size: 64},
		},
		Annotations: program.NewAnnotations(),
		Main: func(t *program.Thread) error {
			t.Enter("main")
			defer t.Exit()
			if err := t.Call("sparsed_init", func() error {
				p := t.Proc()
				anchor := p.MustGlobal("anchor")
				if shared {
					r, err := t.Malloc("rec_s")
					if err != nil {
						return err
					}
					if err := p.WriteWordAt(r, 0, uint64(p.MustGlobal("conf").Addr)); err != nil {
						return err
					}
					if err := p.WriteWordAt(anchor, 8, uint64(r.Addr)); err != nil {
						return err
					}
				}
				b, err := t.MallocBytes(sparsedPages * mem.PageSize)
				if err != nil {
					return err
				}
				return p.WriteWordAt(anchor, 0, uint64(b.Addr))
			}); err != nil {
				return err
			}
			return t.Loop("sparsed_loop", func() error {
				if err := t.IdleQP("idle@sparsed_loop"); err != nil {
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

// TestAdoptMovesOnlyResidentFrames: a page absent on both sides neither
// moves nor blocks. A sparse buffer, dirtied on two pages after startup,
// moves as the frames resident in it and nothing more — PagesAdopted is
// their count, and the new buffer is as sparse as the old — and when its
// one resident page is shared with an object that may not move, it falls
// back to the copy path whole. Either way the transfer checksum and the
// state digest equal those of the copy path and of the sequential engine.
func TestAdoptMovesOnlyResidentFrames(t *testing.T) {
	type outcome struct {
		checksum, digest uint64
		stats            trace.Stats
		before, after    int // resident pages of the buffer, old and new
	}
	resident := func(t *testing.T, inst *program.Instance) (mem.Object, int) {
		t.Helper()
		var buf mem.Object
		for _, o := range inst.Root().Index().All() {
			if o.Kind == mem.ObjHeap && o.Size > buf.Size {
				buf = *o
			}
		}
		n := 0
		if err := inst.Root().Space().WalkResident(buf.Addr, buf.Size, func(mem.Addr, []byte) { n++ }); err != nil {
			t.Fatal(err)
		}
		return buf, n
	}
	run := func(t *testing.T, shared bool, opts Options) outcome {
		t.Helper()
		e, err := NewEngine(kernel.New(), opts)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := e.Launch(sparsedVersion(0, shared)); err != nil {
			t.Fatal(err)
		}
		defer e.Shutdown()
		buf, _ := resident(t, e.Current())
		if buf.Size != sparsedPages*mem.PageSize {
			t.Fatalf("buffer %s, want %d pages", &buf, sparsedPages)
		}
		as := e.Current().Root().Space()
		offs := []uint64{8, 7*mem.PageSize + 100, 200 * mem.PageSize}
		if shared {
			offs = offs[:1] // the first page only, which the record shares
		}
		for _, off := range offs {
			if err := as.WriteAt(buf.Addr+mem.Addr(off), []byte("post-startup state")); err != nil {
				t.Fatal(err)
			}
		}
		_, before := resident(t, e.Current())
		rep, err := e.Update(sparsedVersion(1, shared))
		if err != nil {
			t.Fatal(err)
		}
		_, after := resident(t, e.Current())
		return outcome{rep.Transfer.Checksum, mustDigest(t, e.Current()), rep.Transfer, before, after}
	}
	for _, shared := range []bool{false, true} {
		t.Run(fmt.Sprintf("shared=%v", shared), func(t *testing.T) {
			base := run(t, shared, Options{Sequential: true, Audit: true})
			copied := run(t, shared, Options{Audit: true})
			adopted := run(t, shared, Options{Adopt: true, Audit: true})
			for name, o := range map[string]outcome{"copied": copied, "adopted": adopted} {
				if o.checksum != base.checksum || o.digest != base.digest {
					t.Errorf("%s: checksum %#x, digest %#x; sequential %#x, %#x", name, o.checksum, o.digest, base.checksum, base.digest)
				}
			}
			st := adopted.stats
			if adopted.before > 4 || adopted.after != adopted.before {
				t.Errorf("buffer resident pages: %d before, %d after the update", adopted.before, adopted.after)
			}
			switch {
			case !shared && (st.PagesAdopted != adopted.before || st.BytesAdopted < sparsedPages*mem.PageSize):
				t.Errorf("sparse buffer: %d pages, %d bytes adopted; want its %d resident frames and all of it", st.PagesAdopted, st.BytesAdopted, adopted.before)
			case shared && (st.PagesAdopted != 0 || st.BytesAdopted != 0):
				t.Errorf("buffer sharing its page with an unmovable record: %d pages, %d bytes adopted, want the copy path", st.PagesAdopted, st.BytesAdopted)
			}
		})
	}
}

// TestAdoptRollbackReturnsFrames drives a commit-crash fault through an
// update that already adopted the whole heap: every donated frame must
// return to the old instance with its original bookkeeping, the
// rollback audit must find the old image bit-identical, and nothing
// may leak.
func TestAdoptRollbackReturnsFrames(t *testing.T) {
	const blobs, size = 24, 2048
	plane := faultinject.New(1)
	e, err := NewEngine(kernel.New(), Options{Adopt: true, Audit: true, Faults: plane})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Launch(blobdVersion(0, blobs, size)); err != nil {
		t.Fatal(err)
	}
	defer e.Shutdown()
	dirtyBlobPayloads(t, e.Current())
	old := e.Current()
	d0 := mustDigest(t, old)
	g0 := leakcheck.Goroutines()

	plane.Arm(faultinject.PointCommitCrash)
	rep, err := e.Update(blobdVersion(1, blobs, size))
	if !errors.Is(err, ErrUpdateFailed) {
		t.Fatalf("Update err = %v, want ErrUpdateFailed", err)
	}
	if rep.Transfer.PagesAdopted == 0 {
		t.Fatal("fault fired before any page was adopted; fixture proves nothing")
	}
	if !rep.RolledBack {
		t.Fatalf("not rolled back: %+v", rep)
	}
	if rep.ledger == nil || rep.ledger.Count() != 0 {
		t.Fatalf("adoption ledger still holds frames after rollback: %+v", rep.ledger)
	}
	if !rep.RollbackVerified || !rep.RollbackIdentical {
		t.Fatalf("rollback audit: verified=%v identical=%v",
			rep.RollbackVerified, rep.RollbackIdentical)
	}
	if e.Current() != old {
		t.Fatal("rollback did not keep the old instance current")
	}
	if d1 := mustDigest(t, old); d1 != d0 {
		t.Fatalf("old instance state drifted across rollback: %#x -> %#x", d0, d1)
	}
	if n := consumedPages(old); n != 0 {
		t.Fatalf("%d consumed soft-dirty pages not restored", n)
	}
	if err := leakcheck.CheckGoroutines(g0, 2*time.Second); err != nil {
		t.Fatal(err)
	}
	if err := leakcheck.CheckReservedPids(old); err != nil {
		t.Fatal(err)
	}

	// The engine survives: a clean follow-up update adopts and commits.
	rep2, err := e.Update(blobdVersion(1, blobs, size))
	if err != nil {
		t.Fatalf("follow-up update: %v", err)
	}
	if rep2.RolledBack || rep2.Transfer.PagesAdopted == 0 {
		t.Fatalf("follow-up update did not adopt cleanly: %+v", rep2.Transfer)
	}
}
