package trace

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math/rand"
	"testing"
	"time"

	"repro/internal/mem"
	"repro/internal/program"
	"repro/internal/types"
)

// TestStateDigest pins the digest's two contractual properties: it is
// stable across reads of an untouched instance (taking it twice, or
// letting the instance sit quiesced in between, changes nothing), and any
// byte of drift in any object changes it.
func TestStateDigest(t *testing.T) {
	inst := runV1(t, 3)
	defer inst.Terminate()

	d1, err := StateDigest(inst)
	if err != nil {
		t.Fatal(err)
	}
	if d1 == 0 {
		t.Fatal("zero digest")
	}
	d2, err := StateDigest(inst)
	if err != nil {
		t.Fatal(err)
	}
	if d2 != d1 {
		t.Fatalf("digest not stable: %#x vs %#x", d1, d2)
	}

	// The adoptable-window scenario in miniature: resume, let the server
	// sit idle, re-quiesce — no traffic means no drift.
	inst.Resume()
	time.Sleep(2 * time.Millisecond)
	if _, err := inst.Quiesce(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	d3, err := StateDigest(inst)
	if err != nil {
		t.Fatal(err)
	}
	if d3 != d1 {
		t.Fatalf("idle window drifted state: %#x vs %#x", d1, d3)
	}

	// One-byte mutation must change the digest.
	root := inst.Root()
	objs := root.Index().All()
	if len(objs) == 0 {
		t.Fatal("no objects")
	}
	o := objs[len(objs)/2]
	buf := make([]byte, 1)
	if err := root.Space().ReadAt(o.Addr, buf); err != nil {
		t.Fatal(err)
	}
	if err := root.Space().WriteAt(o.Addr, []byte{buf[0] ^ 0xff}); err != nil {
		t.Fatal(err)
	}
	d4, err := StateDigest(inst)
	if err != nil {
		t.Fatal(err)
	}
	if d4 == d1 {
		t.Fatal("one-byte mutation left the digest unchanged")
	}
}

// referenceStateDigest is StateDigest as it was before it hashed in place:
// every object staged in a buffer of its own through ReadAt.
func referenceStateDigest(inst *program.Instance) (uint64, error) {
	h := fnv.New64a()
	for _, p := range inst.Procs() {
		for _, o := range p.Index().All() {
			if o.Scratch {
				continue
			}
			fmt.Fprintf(h, "%x:%x:%d:%s;", o.Addr, o.Size, o.Kind, o.Name)
			buf := make([]byte, o.Size)
			if err := p.Space().ReadAt(o.Addr, buf); err != nil {
				return 0, err
			}
			h.Write(buf)
		}
	}
	return h.Sum64(), nil
}

// referenceChecksumSource is checksumSource as it was: the source staged
// through ReadAt and hashed whole.
func referenceChecksumSource(pt *procTransfer, o *mem.Object, n uint64, st *Stats) error {
	src := make([]byte, n)
	if err := pt.oldProc.Space().ReadAt(o.Addr, src); err != nil {
		return err
	}
	h := fnv.New64a()
	fmt.Fprintf(h, "%v:%x:%x:%d:%s;", pt.oldProc.Key(), o.Addr, o.Size, o.Kind, o.Name)
	h.Write(src)
	st.Checksum ^= h.Sum64()
	return nil
}

// TestDigestsInPlaceMatchStaged: on the random heaps of the scan tests —
// unaligned objects, objects straddling pages, demand-zero pages in the
// middle of large ones — the digests folded in place (resident fragments,
// each demand-zero gap in one step) are bit-identical to the staged
// definitions: the state digest of the instance, and per object the
// source digest of the whole object or of a prefix.
func TestDigestsInPlaceMatchStaged(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		p := startScanFixture(t)
		planted := plantRandomHeap(t, p, seed)
		rnd := rand.New(rand.NewSource(seed))

		got, err := StateDigest(p.Instance())
		if err != nil {
			t.Fatal(err)
		}
		want, err := referenceStateDigest(p.Instance())
		if err != nil {
			t.Fatal(err)
		}
		if got != want || got == 0 {
			t.Fatalf("seed %d: StateDigest %#x, staged reference %#x", seed, got, want)
		}

		pt := &procTransfer{oldProc: p}
		var gotSt, wantSt Stats
		for _, o := range planted {
			n := o.Size
			if rnd.Intn(4) == 0 {
				n = uint64(rnd.Int63n(int64(o.Size) + 1)) // a shrunk counterpart: a prefix
			}
			if err := pt.checksumSource(o, n, &gotSt); err != nil {
				t.Fatalf("seed %d: %s: %v", seed, o, err)
			}
			if err := referenceChecksumSource(pt, o, n, &wantSt); err != nil {
				t.Fatal(err)
			}
			if gotSt.Checksum != wantSt.Checksum {
				t.Fatalf("seed %d: %s (%d of %d bytes): checksum %#x, staged reference %#x", seed, o, n, o.Size, gotSt.Checksum, wantSt.Checksum)
			}
		}
	}
}

// TestFoldBytesMatchesFNV: folding a range in place — resident fragments
// byte by byte, each demand-zero gap as one multiply by a power of the
// prime — leaves the state hash/fnv's FNV-64a reaches over the bytes ReadAt
// returns, on seeded sparse spaces: ranges starting and ending mid-page,
// inside one page, on resident and absent pages, and runs of absent pages
// up to a whole 256-page space, each after a random prefix.
func TestFoldBytesMatchesFNV(t *testing.T) {
	const base, pages = mem.Addr(0x4000_0000), 256
	for seed := int64(1); seed <= 6; seed++ {
		rnd := rand.New(rand.NewSource(seed))
		as := mem.NewAddressSpace()
		if err := as.Map(base, pages*mem.PageSize, mem.RegionHeap, "sparse"); err != nil {
			t.Fatal(err)
		}
		for pg := 0; pg < pages; pg++ {
			if rnd.Intn(int(seed)+1) != 0 { // ever sparser with the seed
				continue
			}
			buf := make([]byte, 1+rnd.Intn(mem.PageSize))
			rnd.Read(buf)
			if err := as.WriteAt(base+mem.Addr(pg*mem.PageSize+rnd.Intn(mem.PageSize-len(buf)+1)), buf); err != nil {
				t.Fatal(err)
			}
		}
		for k := 0; k < 200; k++ {
			off := rnd.Intn(pages * mem.PageSize)
			n := rnd.Intn(pages*mem.PageSize - off + 1)
			if k%4 == 0 {
				n = rnd.Intn(min(2*mem.PageSize, pages*mem.PageSize-off) + 1)
			}
			prefix := make([]byte, rnd.Intn(40))
			rnd.Read(prefix)
			want := fnv.New64a()
			want.Write(prefix)
			src := make([]byte, n)
			if err := as.ReadAt(base+mem.Addr(off), src); err != nil {
				t.Fatal(err)
			}
			want.Write(src)
			got := newFNV64a()
			got.Write(prefix)
			if err := foldBytes(as, base+mem.Addr(off), uint64(n), func(_ uint64, b []byte) { got.Write(b) }, got.zeroes); err != nil {
				t.Fatal(err)
			}
			if uint64(got) != want.Sum64() {
				t.Fatalf("seed %d: [%#x, +%d): folded %#x, hash/fnv %#x", seed, off, n, uint64(got), want.Sum64())
			}
		}
		if rss := as.RSSBytes(); rss == pages*mem.PageSize {
			t.Fatalf("seed %d: no page of the space is absent", seed)
		}
	}
}

// referenceRemapInBuf is the staged remap the copy path used: the precise
// pointer slots of layout ptrs rewritten inside a private copy of the
// object.
func referenceRemapInBuf(pt *procTransfer, buf []byte, ptrs []types.PtrSlot) {
	for _, slot := range ptrs {
		if slot.Func || slot.Offset+8 > uint64(len(buf)) {
			continue
		}
		v := binary.LittleEndian.Uint64(buf[slot.Offset:])
		if v == 0 {
			continue
		}
		if nv, ok := pt.RemapPtr(v); ok && nv != v {
			binary.LittleEndian.PutUint64(buf[slot.Offset:], nv)
		}
	}
}

// TestRemapSlotsMatchesStagedRemap: rewriting the pointer slots where they
// lie (mem.UpdateResident) leaves the bytes the staged remap produced, for
// every typed object of the random heaps — slots at offsets off the word
// grid, objects at unaligned addresses whose slots cross page boundaries,
// tables with slots on several pages, pages never touched — materializes
// nothing, and dirties exactly the pages holding a slot it rewrote.
func TestRemapSlotsMatchesStagedRemap(t *testing.T) {
	const shift = 0x1000_0000 // every pair target sits this far up
	for seed := int64(1); seed <= 4; seed++ {
		p := startScanFixture(t)
		planted := plantRandomHeap(t, p, seed)
		as := p.Space()
		pol := types.DefaultPolicy()
		pt := &procTransfer{oldProc: p, newProc: p, opts: Options{Policy: pol},
			pairs: make(map[mem.Addr]*pairEntry), layouts: newLayoutMemo(pol)}
		for i, o := range planted {
			if i%5 != 0 { // a fifth of the targets have no counterpart
				pt.pairs[o.Addr] = &pairEntry{oldObj: o, newObj: &mem.Object{Addr: o.Addr + shift, Size: o.Size}}
			}
		}
		rewritten := 0
		for _, o := range planted {
			if o.Type == nil {
				continue
			}
			ptrs := pt.layoutOf(o.Type).Ptrs
			size := o.Size
			if seed%2 == 0 {
				size -= size / 3 // a shrunk counterpart: trailing slots stay
			}
			want := make([]byte, o.Size)
			if err := as.ReadAt(o.Addr, want); err != nil {
				t.Fatal(err)
			}
			before := bytes.Clone(want)
			referenceRemapInBuf(pt, want[:size], ptrs)
			wantDirty := map[mem.Addr]bool{}
			for i := range want {
				if want[i] != before[i] {
					wantDirty[mem.PageBase(o.Addr+mem.Addr(i))] = true
					rewritten++
				}
			}

			as.ClearSoftDirty()
			rss := as.RSSBytes()
			if err := pt.remapSlots(o.Addr, size, ptrs); err != nil {
				t.Fatalf("seed %d: remapSlots(%s): %v", seed, o, err)
			}
			got := make([]byte, o.Size)
			if err := as.ReadAt(o.Addr, got); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("seed %d: %s: in-place remap differs from the staged remap", seed, o)
			}
			if as.RSSBytes() != rss {
				t.Fatalf("seed %d: %s: remap materialized pages", seed, o)
			}
			dirty := as.SoftDirtyPages()
			if len(dirty) != len(wantDirty) {
				t.Fatalf("seed %d: %s: %d pages dirtied, %d hold a rewritten slot", seed, o, len(dirty), len(wantDirty))
			}
			for _, pb := range dirty {
				if !wantDirty[pb] {
					t.Fatalf("seed %d: %s: page %#x dirtied without a rewritten slot", seed, o, pb)
				}
			}
			// Put the object back: later objects' slots point into it.
			if err := as.WriteAt(o.Addr, before); err != nil {
				t.Fatal(err)
			}
		}
		if rewritten == 0 {
			t.Fatalf("seed %d: nothing was remapped", seed)
		}
	}
}
