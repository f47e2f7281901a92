package trace

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/kernel"
	"repro/internal/mem"
	"repro/internal/program"
	"repro/internal/types"
)

// ---- The reference oracle ------------------------------------------------
//
// referenceScan is the word-at-a-time scan AnalyzeProc and scanObject ran
// before resolver.scan replaced both: one locked ReadWord per precise slot
// and per opaque word, one locked ObjectIndex.Containing per candidate. It
// is kept verbatim as the oracle the page-granular scan is compared to.

// add is the oracle's census: one pointer at a time, classified by a switch
// of its own rather than by the scan's regionClass table.
func (b *RegionBreakdown) add(src, targ mem.ObjKind) {
	b.Ptr++
	switch src {
	case mem.ObjStatic, mem.ObjStack:
		b.SrcStatic++
	case mem.ObjHeap, mem.ObjMmap:
		b.SrcDynamic++
	case mem.ObjLib:
		b.SrcLib++
	}
	switch targ {
	case mem.ObjStatic, mem.ObjStack:
		b.TargStatic++
	case mem.ObjHeap, mem.ObjMmap:
		b.TargDynamic++
	case mem.ObjLib:
		b.TargLib++
	}
}

// opaqueRangesOf returns the byte ranges of o that must be scanned
// conservatively under the policy, and the precise pointer slots.
func opaqueRangesOf(o *mem.Object, pol types.Policy) ([]types.OpaqueRange, []types.PtrSlot) {
	if o.Type == nil {
		// Uninstrumented object: fully opaque.
		return []types.OpaqueRange{{Offset: 0, Size: o.Size}}, nil
	}
	l := types.LayoutOf(o.Type, pol)
	return l.Opaques, l.Ptrs
}

func referenceLikelyPointer(ix *mem.ObjectIndex, word uint64) (*mem.Object, bool) {
	if word == 0 {
		return nil, false
	}
	target, ok := ix.Containing(mem.Addr(word))
	if !ok {
		return nil, false
	}
	if target.Type != nil {
		off := uint64(mem.Addr(word) - target.Addr)
		align := target.Type.Align
		if align > 1 && off%4 != 0 {
			return nil, false
		}
	}
	return target, true
}

func referenceScan(p *program.Proc, o *mem.Object, pol types.Policy, precise, likely func(*mem.Object)) error {
	ix, as := p.Index(), p.Space()
	opaques, ptrs := opaqueRangesOf(o, pol)
	for _, slot := range ptrs {
		if slot.Offset+8 > o.Size {
			continue
		}
		word, err := as.ReadWord(o.Addr + mem.Addr(slot.Offset))
		if err != nil {
			return fmt.Errorf("trace: read %s+%d: %w", o, slot.Offset, err)
		}
		if word == 0 || slot.Func {
			continue
		}
		if target, ok := ix.Containing(mem.Addr(word)); ok {
			precise(target)
		}
	}
	for _, r := range opaques {
		end := r.Offset + r.Size
		if end > o.Size {
			end = o.Size
		}
		for off := (r.Offset + 7) &^ 7; off+8 <= end; off += 8 {
			word, err := as.ReadWord(o.Addr + mem.Addr(off))
			if err != nil {
				return fmt.Errorf("trace: scan %s+%d: %w", o, off, err)
			}
			if target, ok := referenceLikelyPointer(ix, word); ok {
				likely(target)
			}
		}
	}
	return nil
}

func referenceAnalyzeProc(p *program.Proc, pol types.Policy, transferLibs map[string]bool) (*Analysis, error) {
	an := &Analysis{
		Immutable:    make(map[mem.Addr]*mem.Object),
		Nonupdatable: make(map[mem.Addr]bool),
	}
	for _, o := range p.Index().All() {
		if o.Kind == mem.ObjLib && !transferLibs[o.Name] {
			continue
		}
		hasLikely := false
		err := referenceScan(p, o, pol,
			func(target *mem.Object) { an.Stats.Precise.add(o.Kind, target.Kind) },
			func(target *mem.Object) {
				hasLikely = true
				an.Stats.Likely.add(o.Kind, target.Kind)
				an.Immutable[target.Addr] = target
				an.Nonupdatable[target.Addr] = true
			})
		if err != nil {
			return nil, err
		}
		if hasLikely {
			an.Nonupdatable[o.Addr] = true
		}
	}
	return an, nil
}

// ---- Fixtures ------------------------------------------------------------

// scanFixtureBase is a mapping of the fixture's own, clear of every region
// a program.Proc lays out, where tests plant objects at arbitrary —
// unaligned, page-straddling — addresses the allocator would never produce.
const (
	scanFixtureBase mem.Addr = 0x5000_0000
	scanFixtureSize          = 4 << 20
)

// startScanFixture runs an idle single-process program (with two library
// images, so lib objects exist in and out of transferLibs) and maps the
// fixture region into its root process. The region is a heap region: it
// grows the way an allocator's does, into a gap the incremental analysis
// tracks.
func startScanFixture(tb testing.TB) *program.Proc {
	tb.Helper()
	v := synthVersion(0, &synthShape{nodes: 4, blobSizes: []int{64, 64}, links: [][3]int{{0, 1, 8}}}, false)
	v.Libs = []program.LibSpec{{Name: "libA", StateSize: 256}, {Name: "libB", StateSize: 256}}
	inst, err := program.NewInstance(v, kernel.New(), program.Options{})
	if err != nil {
		tb.Fatal(err)
	}
	if err := inst.Start(); err != nil {
		tb.Fatal(err)
	}
	if err := inst.WaitStartup(10 * time.Second); err != nil {
		tb.Fatal(err)
	}
	inst.CompleteStartup()
	tb.Cleanup(inst.Terminate)
	p := inst.Root()
	if err := p.Space().Map(scanFixtureBase, scanFixtureSize, mem.RegionHeap, "scanfix"); err != nil {
		tb.Fatal(err)
	}
	return p
}

// scanFixtureTypes is the typed-object catalogue of the random heaps:
// precise slots, opaque sub-ranges of every policy class, a function
// pointer, a slot at an offset that is not a multiple of 8, and an array
// long enough to put precise slots on several pages.
func scanFixtureTypes() []*types.Type {
	node := &types.Type{Name: "fx_node", Kind: types.KindStruct}
	node.Fields = []types.Field{
		{Name: "value", Offset: 0, Type: types.Scalar(types.KindInt64)},
		{Name: "next", Offset: 8, Type: types.PointerTo(node)},
		{Name: "any", Offset: 16, Type: types.PointerTo(nil)},
	}
	node.Size, node.Align = 24, 8
	mixed := types.StructOf("fx_mixed",
		types.Field{Name: "tag", Type: types.Scalar(types.KindInt32)},
		types.Field{Name: "buf", Type: types.ArrayOf(40, types.Scalar(types.KindUint8))},
		types.Field{Name: "p", Type: types.PointerTo(node)},
		types.Field{Name: "u", Type: types.Scalar(types.KindUintPtr)},
		types.Field{Name: "fn", Type: types.Scalar(types.KindFuncPtr)},
		types.Field{Name: "un", Type: types.UnionOf("fx_un",
			types.Field{Name: "p", Type: types.PointerTo(node)},
			types.Field{Name: "raw", Type: types.ArrayOf(24, types.Scalar(types.KindUint8))})},
		types.Field{Name: "blob", Type: types.Opaque(72)},
	)
	packed := &types.Type{Name: "fx_packed", Kind: types.KindStruct, Size: 20, Align: 1}
	packed.Fields = []types.Field{
		{Name: "c", Offset: 0, Type: types.Scalar(types.KindUint8)},
		{Name: "p", Offset: 4, Type: types.PointerTo(nil)},
		{Name: "q", Offset: 12, Type: types.PointerTo(nil)},
	}
	table := types.ArrayOf(400, node) // 9600 bytes: slots on three pages
	table.Name = "fx_table"
	return []*types.Type{node, mixed, packed, table}
}

// plantRandomHeap fills the fixture region with a seeded random heap:
// typed and untyped objects of every kind, starts that are not 8-aligned,
// objects straddling pages, library objects, and pages deliberately never
// touched (demand-zero) in the middle of large objects. Contents mix nil,
// small integers, text, and pointers — exact, interior, misaligned, into
// gaps, and into the program's own objects.
func plantRandomHeap(tb testing.TB, p *program.Proc, seed int64) []*mem.Object {
	tb.Helper()
	rnd := rand.New(rand.NewSource(seed))
	as, ix := p.Space(), p.Index()
	catalogue := scanFixtureTypes()
	kinds := []mem.ObjKind{mem.ObjHeap, mem.ObjHeap, mem.ObjStatic, mem.ObjMmap, mem.ObjLib}

	var planted []*mem.Object
	cursor := scanFixtureBase + mem.Addr(rnd.Intn(64))
	for len(planted) < 160 {
		o := &mem.Object{Kind: kinds[rnd.Intn(len(kinds))], Site: uint64(1 + len(planted))}
		switch rnd.Intn(10) {
		case 0, 1, 2:
			o.Type = catalogue[rnd.Intn(len(catalogue))]
			o.Size = o.Type.Size
		case 3:
			o.Size = uint64(3*mem.PageSize + rnd.Intn(9*mem.PageSize)) // large, untyped
		case 4:
			o.Size = uint64(1 + rnd.Intn(15)) // too small to hold a word, or barely
		default:
			o.Size = uint64(8 + rnd.Intn(600))
		}
		if o.Kind == mem.ObjLib {
			o.Name = []string{"libA.extra", "libB.extra", "libC.extra"}[rnd.Intn(3)]
		}
		if rnd.Intn(3) > 0 {
			cursor = (cursor + 7) &^ 7 // most objects are aligned; a third are not
		}
		o.Addr = cursor
		if o.End() > scanFixtureBase+scanFixtureSize {
			break
		}
		if err := ix.Insert(o); err != nil {
			tb.Fatal(err)
		}
		planted = append(planted, o)
		cursor = o.End() + mem.Addr(rnd.Intn(48))
	}

	// Pages that stay demand-zero: whatever overlaps them reads as nil.
	dark := make(map[mem.Addr]bool)
	for pb := scanFixtureBase; pb < cursor; pb += mem.PageSize {
		if rnd.Intn(4) == 0 {
			dark[pb] = true
		}
	}
	all := ix.All()
	pointer := func() uint64 {
		t := all[rnd.Intn(len(all))]
		switch rnd.Intn(6) {
		case 0:
			return uint64(t.Addr)
		case 1:
			return uint64(t.Addr) + uint64(rnd.Int63n(int64(t.Size)))&^7
		case 2:
			return uint64(t.Addr) + uint64(rnd.Int63n(int64(t.Size))) // maybe misaligned
		case 3:
			return uint64(t.End()) + uint64(rnd.Intn(16)) // a gap, or the next object
		case 4:
			return uint64(t.Addr) - uint64(1+rnd.Intn(16))
		default:
			return uint64(scanFixtureBase) + uint64(rnd.Int63n(scanFixtureSize))
		}
	}
	var word [8]byte
	for _, o := range planted {
		// Words at every offset class: the scan's own grid (multiples of 8
		// from the object start) and, now and then, off it.
		for off := uint64(0); off+8 <= o.Size; off += 8 {
			var v uint64
			switch rnd.Intn(8) {
			case 0, 1:
				continue
			case 2:
				v = uint64(rnd.Intn(4096))
			case 3:
				v = 0x2065687420646e61 // "and the "
			default:
				v = pointer()
			}
			at := o.Addr + mem.Addr(off)
			if rnd.Intn(16) == 0 && off+12 <= o.Size {
				at += 4
			}
			if dark[mem.PageBase(at)] || dark[mem.PageBase(at+7)] {
				continue
			}
			binary.LittleEndian.PutUint64(word[:], v)
			if err := as.WriteAt(at, word[:]); err != nil {
				tb.Fatal(err)
			}
		}
	}
	return planted
}

// analysisDiff reports how two analyses differ, or "" when they agree in
// Immutable keys (and objects), Nonupdatable keys and every counter.
func analysisDiff(got, want *Analysis) string {
	if got.Stats != want.Stats {
		return fmt.Sprintf("stats: got %+v, want %+v", got.Stats, want.Stats)
	}
	if len(got.Immutable) != len(want.Immutable) {
		return fmt.Sprintf("immutable: got %d objects, want %d", len(got.Immutable), len(want.Immutable))
	}
	for a, o := range want.Immutable {
		if got.Immutable[a] != o {
			return fmt.Sprintf("immutable: %s missing", o)
		}
	}
	if !reflect.DeepEqual(got.Nonupdatable, want.Nonupdatable) {
		return fmt.Sprintf("nonupdatable: got %d keys, want %d", len(got.Nonupdatable), len(want.Nonupdatable))
	}
	return ""
}

var scanPolicies = []struct {
	name string
	pol  types.Policy
}{
	{"default", types.DefaultPolicy()},
	{"precise", types.FullyPrecisePolicy()},
}

var scanLibSets = []map[string]bool{
	nil,
	{"libA.state": true, "libB.extra": true},
}

// ---- Differential tests --------------------------------------------------

// TestScanMatchesReferenceOnRandomHeaps: over seeded random heaps, both
// policies and both library sets, the page-granular AnalyzeProc equals the
// word-at-a-time reference in Immutable, Nonupdatable and every
// PointerStats counter, and scanObject visits exactly the reference's
// targets (as a multiset) for every object.
func TestScanMatchesReferenceOnRandomHeaps(t *testing.T) {
	for _, seed := range []int64{5, 7, 41, 42, 43, 44} {
		p := startScanFixture(t)
		planted := plantRandomHeap(t, p, seed)
		unaligned, straddling := 0, 0
		for _, o := range planted {
			if o.Addr&7 != 0 {
				unaligned++
				if mem.PageBase(o.Addr) != mem.PageBase(o.End()-1) {
					straddling++
				}
			}
		}
		if unaligned == 0 || straddling == 0 {
			t.Fatalf("seed %d: fixture has %d unaligned / %d unaligned page-straddling objects", seed, unaligned, straddling)
		}
		for _, pc := range scanPolicies {
			for li, libs := range scanLibSets {
				name := fmt.Sprintf("seed=%d/%s/libs=%d", seed, pc.name, li)
				want, err := referenceAnalyzeProc(p, pc.pol, libs)
				if err != nil {
					t.Fatalf("%s: reference: %v", name, err)
				}
				got, err := AnalyzeProc(p, pc.pol, libs)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if d := analysisDiff(got, want); d != "" {
					t.Errorf("%s: AnalyzeProc differs from the reference: %s", name, d)
				}
				if want.Stats.Likely.Ptr == 0 || want.Stats.Precise.Ptr == 0 {
					t.Fatalf("%s: fixture has no pointers to find: %+v", name, want.Stats)
				}

				pt := &procTransfer{oldProc: p, opts: Options{Policy: pc.pol, TransferLibs: libs}}
				pt.oldObjs = p.Index().All()
				r := newResolver(pt.oldObjs, pt.opts.Policy)
				for _, o := range pt.oldObjs {
					var gotV, wantV []mem.Addr
					if err := pt.scanObject(o, r, func(t *mem.Object) { gotV = append(gotV, t.Addr) }); err != nil {
						t.Fatalf("%s: scanObject %s: %v", name, o, err)
					}
					visit := func(t *mem.Object) {
						if t.Kind != mem.ObjLib || libs[t.Name] {
							wantV = append(wantV, t.Addr)
						}
					}
					if err := referenceScan(p, o, pc.pol, visit, visit); err != nil {
						t.Fatalf("%s: reference scan %s: %v", name, o, err)
					}
					sort.Slice(gotV, func(i, j int) bool { return gotV[i] < gotV[j] })
					sort.Slice(wantV, func(i, j int) bool { return wantV[i] < wantV[j] })
					if !reflect.DeepEqual(gotV, wantV) {
						t.Errorf("%s: scanObject %s visits %d targets, reference %d", name, o, len(gotV), len(wantV))
					}
				}
			}
		}
	}
}

// TestScanWordsAcrossPageBoundaries pins the one case the fragments cannot
// see: a scanned word cut by a page boundary, with both pages resident,
// only the low one, or only the high one (the absent half reads as zero
// and the word can still be a pointer). Untyped objects at addresses ≡ 4
// (mod 8) put a grid word on each boundary; a packed struct puts a precise
// slot there.
func TestScanWordsAcrossPageBoundaries(t *testing.T) {
	p := startScanFixture(t)
	as, ix := p.Space(), p.Index()
	libA, ok := ix.At(program.LibBase)
	if !ok || libA.Kind != mem.ObjLib {
		t.Fatalf("expected libA.state at LibBase, found %v", libA)
	}
	target := &mem.Object{Addr: scanFixtureBase + 0x100, Size: 64, Kind: mem.ObjHeap, Site: 1}
	packed := scanFixtureTypes()[2]
	insert := func(o *mem.Object) *mem.Object {
		t.Helper()
		if err := ix.Insert(o); err != nil {
			t.Fatal(err)
		}
		return o
	}
	insert(target)
	put := func(at mem.Addr, b []byte) {
		t.Helper()
		if err := as.WriteAt(at, b); err != nil {
			t.Fatal(err)
		}
	}
	le := func(v uint64) []byte { return binary.LittleEndian.AppendUint64(nil, v) }
	page := func(n int) mem.Addr { return scanFixtureBase + mem.Addr(n)*mem.PageSize }

	// Both halves resident: the word at page(3)-4 points at the target.
	both := insert(&mem.Object{Addr: page(2) + 0x804, Size: mem.PageSize, Kind: mem.ObjHeap, Site: 2})
	put(page(3)-4, le(uint64(target.Addr)+8))
	// Only the low half resident: the fixture lies below 4 GiB, so the four
	// low bytes are the whole pointer and the absent high half is zero.
	low := insert(&mem.Object{Addr: page(5) + 0x804, Size: mem.PageSize, Kind: mem.ObjMmap, Site: 3})
	put(page(6)-4, le(uint64(target.Addr))[:4])
	// Only the high half resident: LibBase has zero low bytes.
	high := insert(&mem.Object{Addr: page(8) + 0x804, Size: mem.PageSize, Kind: mem.ObjStatic, Site: 4})
	put(page(9), le(uint64(program.LibBase))[4:])
	// A precise slot (offset 4 of a packed struct) cut by a boundary.
	slot := insert(&mem.Object{Addr: page(12) - 8, Size: packed.Size, Type: packed, Kind: mem.ObjHeap, Site: 5})
	put(slot.Addr+4, le(uint64(target.Addr)))

	for _, pb := range []mem.Addr{page(6), page(8)} {
		resident := false
		if err := as.WalkResident(pb, mem.PageSize, func(mem.Addr, []byte) { resident = true }); err != nil {
			t.Fatal(err)
		}
		if resident {
			t.Fatalf("page %#x was meant to stay demand-zero", pb)
		}
	}

	pol := types.DefaultPolicy()
	want, err := referenceAnalyzeProc(p, pol, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := AnalyzeProc(p, pol, nil)
	if err != nil {
		t.Fatal(err)
	}
	if d := analysisDiff(got, want); d != "" {
		t.Fatalf("AnalyzeProc differs from the reference: %s", d)
	}
	if !got.IsImmutable(target.Addr) || !got.IsImmutable(libA.Addr) {
		t.Errorf("boundary words not followed: target pinned=%v, libA pinned=%v",
			got.IsImmutable(target.Addr), got.IsImmutable(libA.Addr))
	}
	for _, o := range []*mem.Object{both, low, high} {
		if !got.Nonupdatable[o.Addr] {
			t.Errorf("%s holds a likely pointer across a page boundary but is not nonupdatable", o)
		}
	}
	if got.Stats.Precise.Ptr == 0 {
		t.Error("precise slot across a page boundary was not censused")
	}
}

// randomObjectList lays out a seeded random, address-sorted object list
// from base: untyped objects spanning several pages, pages packed with 64
// abutting 64-byte objects, runs of abutting objects of random sizes, and
// gaps, some of them whole pages. A third of the objects carry a type that
// rejects words at offsets that are not multiples of 4.
func randomObjectList(rnd *rand.Rand, base mem.Addr, n int) []*mem.Object {
	aligned := scanFixtureTypes()[0] // Align 8
	packed := scanFixtureTypes()[2]  // Align 1: any offset is plausible
	var objs []*mem.Object
	add := func(at mem.Addr, size uint64) mem.Addr {
		o := &mem.Object{Addr: at, Size: size, Kind: []mem.ObjKind{mem.ObjHeap, mem.ObjStatic, mem.ObjLib}[rnd.Intn(3)]}
		switch rnd.Intn(3) {
		case 0:
			o.Type = aligned
		case 1:
			o.Type = packed
		}
		objs = append(objs, o)
		return o.End()
	}
	at := base + mem.Addr(rnd.Intn(64))
	for len(objs) < n {
		switch rnd.Intn(5) {
		case 0: // spanning pages
			at = add(at, uint64(mem.PageSize+rnd.Intn(4*mem.PageSize)))
		case 1: // 64 objects on one page
			at = mem.PageBase(at) + mem.PageSize
			for i := 0; i < 64; i++ {
				at = add(at, 64)
			}
		case 2: // abutting, random sizes
			for i := rnd.Intn(8); i >= 0; i-- {
				at = add(at, uint64(1+rnd.Intn(300)))
			}
		case 3: // a gap of whole pages
			at += mem.Addr(mem.PageSize * (1 + rnd.Intn(3)))
		default:
			at = add(at+mem.Addr(rnd.Intn(40)), uint64(8+rnd.Intn(600)))
		}
	}
	return objs
}

// binaryContaining is the plain binary search the page table stands in
// front of: the index of the object containing w, or -1.
func binaryContaining(objs []*mem.Object, w uint64) int {
	i := sort.Search(len(objs), func(i int) bool { return uint64(objs[i].Addr) > w }) - 1
	if i < 0 || w-uint64(objs[i].Addr) >= objs[i].Size {
		return -1
	}
	return i
}

// TestScanResolverMatchesBinarySearch: over seeded random object lists,
// page-keyed resolution (containing, likelyTarget) answers every candidate
// exactly as a binary search over the list does — the target, its class
// and the alignment verdict — in a shuffled order, with tables small
// enough that pages share slots, and with words on pages no object
// overlaps (the holes the resolver remembers) in between. A list rebuilt under a kept table (the
// incremental analysis's step) retires the old slots: an object that left
// or moved, or an address another object took over, never resolves to
// what the old list had there.
func TestScanResolverMatchesBinarySearch(t *testing.T) {
	pol := types.DefaultPolicy()
	for _, seed := range []int64{1, 2, 3, 4, 5, 6} {
		rnd := rand.New(rand.NewSource(seed))
		base := mem.Addr(0x10_0000 + rnd.Intn(16)*mem.PageSize)
		candidates := func(objs []*mem.Object) []uint64 {
			var ws []uint64
			for _, o := range objs {
				a := uint64(o.Addr)
				ws = append(ws, a, a+1, a+2, a+3, a+4, a+o.Size-1, a+o.Size, a-1,
					a+uint64(rnd.Int63n(int64(o.Size))), uint64(mem.PageBase(o.Addr)))
			}
			last := uint64(objs[len(objs)-1].End())
			for i := 0; i < 500; i++ {
				ws = append(ws, uint64(base)+uint64(rnd.Int63n(int64(last-uint64(base)+mem.PageSize))))
			}
			rnd.Shuffle(len(ws), func(i, j int) { ws[i], ws[j] = ws[j], ws[i] })
			return ws
		}
		check := func(name string, r *resolver, objs []*mem.Object) {
			t.Helper()
			for pass := 0; pass < 2; pass++ { // cold slots, then warm ones
				for _, w := range candidates(objs) {
					want := binaryContaining(objs, w)
					if got := r.containing(w); got != want {
						t.Fatalf("seed %d %s: containing(%#x) = %d, binary search %d", seed, name, w, got, want)
					}
					wantLikely := want
					if want >= 0 {
						if o := objs[want]; o.Type != nil && o.Type.Align > 1 && (w-uint64(o.Addr))%4 != 0 {
							wantLikely = -1
						}
					}
					gotLikely := -1
					if s := r.likelyTarget(w); s != nil {
						gotLikely = int(s.idx)
						if o := objs[s.idx]; s.class != regionClass[o.Kind] || s.lo != uint64(o.Addr) || s.size != o.Size {
							t.Fatalf("seed %d %s: slot for %#x describes [%#x,+%d) class %d, object is %s", seed, name, w, s.lo, s.size, s.class, o)
						}
					}
					if gotLikely != wantLikely {
						t.Fatalf("seed %d %s: likelyTarget(%#x) = %d, want %d", seed, name, w, gotLikely, wantLikely)
					}
				}
			}
		}

		objs := randomObjectList(rnd, base, 400)
		check("own table", newResolver(objs, pol), objs)
		tiny := pageTable{slots: make([]pageSlot, 4)} // every fourth page shares a slot
		tiny.advance()
		check("4 slots", newTableResolver(objs, pol, &tiny), objs)

		// Rebuild the list under the kept table, as a step does: drop
		// every third object, give every fifth survivor's address to a
		// new object of another size and type, and add objects in the
		// gaps the drops left.
		var rebuilt []*mem.Object
		for i, o := range objs {
			switch {
			case i%3 == 0:
				if i%2 == 0 && o.Size > 16 {
					rebuilt = append(rebuilt, &mem.Object{Addr: o.Addr + 8, Size: o.Size / 2, Kind: mem.ObjHeap})
				}
			case i%5 == 0:
				rebuilt = append(rebuilt, &mem.Object{Addr: o.Addr, Size: max(1, o.Size/3), Kind: mem.ObjMmap, Type: scanFixtureTypes()[0]})
			default:
				rebuilt = append(rebuilt, o)
			}
		}
		var kept pageTable // as a step keeps it: advanced, then sized
		kept.advance()
		kept.reserve(32)
		check("kept table, old list", newTableResolver(objs, pol, &kept), objs)
		kept.advance()
		check("kept table, rebuilt list", newTableResolver(rebuilt, pol, &kept), rebuilt)
	}
}

// TestWarmRefreshFailsValidationOnMidScanStore races a writer against an
// off-window analysis refresh of the same process (run under -race: the
// in-place scan and the stores meet only through the address-space lock).
// Stores landing while the sweep runs stamp their page past the epoch the
// sweep captured before it read anything, so the entry fails validation,
// Resolve scans that page again — the process counts as re-analyzed, not
// reused — and what it returns is the analysis of the final state.
func TestWarmRefreshFailsValidationOnMidScanStore(t *testing.T) {
	p := startScanFixture(t)
	planted := plantRandomHeap(t, p, 99)
	inst := p.Instance()
	victim := planted[len(planted)/2]

	// The writer stores from before the capture is taken until after the
	// scan has finished: it reads scanDone before each store, so its last
	// store is strictly later than the end of the scan.
	var scanDone atomic.Bool
	started := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := uint64(0); ; i++ {
			last := scanDone.Load()
			// Alternate a pointer and nil in the victim's first word.
			v := uint64(planted[0].Addr) * (i & 1)
			if err := p.Space().WriteWord((victim.Addr+7)&^7, v); err != nil {
				t.Error(err)
				return
			}
			if i == 0 {
				close(started)
			}
			if last {
				return
			}
		}
	}()
	<-started
	w := NewWarmAnalysis(types.DefaultPolicy(), nil)
	w.Refresh(inst)
	scanDone.Store(true)
	wg.Wait()

	analyses, rs, err := w.Resolve(inst)
	reused := rs.Revalidated
	if err != nil {
		t.Fatal(err)
	}
	if reused != 0 || rs.PagesRescanned == 0 {
		t.Fatalf("reused = %d, %d pages rescanned: a store during/after the scan passed validation", reused, rs.PagesRescanned)
	}
	if rs.PagesReused == 0 {
		t.Errorf("one word changed and no page summary was reused: %+v", rs)
	}
	want, err := referenceAnalyzeProc(p, types.DefaultPolicy(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if d := analysisDiff(analyses[p.Key()], want); d != "" {
		t.Errorf("resolved analysis differs from the reference over the final state: %s", d)
	}
}

// ---- adoptPages' page/object settlement ----------------------------------

// referenceSettle is the fixpoint settleAdoptable replaced, kept as its
// oracle: rescan every candidate page until nothing changes. A page that
// is not a candidate at all (absent on both sides) blocks nothing.
func referenceSettle(cand map[mem.Addr]bool, onPage func(mem.Addr) []*mem.Object) {
	pagesOf := func(o *mem.Object) []mem.Addr {
		var out []mem.Addr
		for pb := o.Addr &^ mem.Addr(mem.PageSize-1); pb < o.End(); pb += mem.PageSize {
			out = append(out, pb)
		}
		return out
	}
	for changed := true; changed; {
		changed = false
		for pb, ok := range cand {
			if !ok {
				continue
			}
			for _, po := range onPage(pb) {
				if po.Scratch {
					continue
				}
				whole := true
				for _, opb := range pagesOf(po) {
					if ok, in := cand[opb]; in && !ok { // a page off the list is neutral
						whole = false
						break
					}
				}
				if !whole {
					cand[pb] = false
					changed = true
					break
				}
			}
		}
	}
}

// randomAdoptLayout builds what adoptPages hands the settlement: objects
// laid over pages (some sharing a page, some spanning many, a few scratch
// overlays, a few ineligible), and the candidate map — the pages of
// eligible objects that are resident on either side (a fifth are absent on
// both, and off the map), false where the per-page checks failed or an
// ineligible object intrudes.
func randomAdoptLayout(rnd *rand.Rand, pages int) (map[mem.Addr]bool, map[mem.Addr][]*mem.Object) {
	const base = mem.Addr(0x10_0000)
	byPage := make(map[mem.Addr][]*mem.Object)
	cand := make(map[mem.Addr]bool)
	neutral := make(map[mem.Addr]bool)
	var inelig []*mem.Object
	end := base + mem.Addr(pages)*mem.PageSize
	for cursor := base; cursor < end; {
		size := uint64(16 + rnd.Intn(3000))
		if rnd.Intn(5) == 0 {
			size = uint64((1 + rnd.Intn(6)) * mem.PageSize)
		}
		o := &mem.Object{Addr: cursor, Size: size, Scratch: rnd.Intn(25) == 0}
		if o.End() > end {
			break
		}
		eligible := o.Scratch || rnd.Intn(30) > 0
		for pb := mem.PageBase(o.Addr); pb < o.End(); pb += mem.PageSize {
			byPage[pb] = append(byPage[pb], o)
			if eligible && !o.Scratch {
				if _, seen := cand[pb]; !seen && !neutral[pb] {
					if rnd.Intn(5) == 0 {
						neutral[pb] = true
					} else {
						cand[pb] = rnd.Intn(40) > 0
					}
				}
			}
		}
		if !eligible {
			inelig = append(inelig, o)
		}
		cursor = o.End() + mem.Addr(rnd.Intn(512))
	}
	for _, o := range inelig {
		for pb := mem.PageBase(o.Addr); pb < o.End(); pb += mem.PageSize {
			if _, shared := cand[pb]; shared {
				cand[pb] = false
			}
		}
	}
	return cand, byPage
}

// TestSettleAdoptableMatchesFixpoint: on random layouts the worklist ends
// in exactly the old fixpoint's candidate set, and gets there expanding
// each page at most once however far a demotion propagates.
func TestSettleAdoptableMatchesFixpoint(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		rnd := rand.New(rand.NewSource(seed))
		cand, byPage := randomAdoptLayout(rnd, 50+rnd.Intn(400))
		want := make(map[mem.Addr]bool, len(cand))
		for pb, ok := range cand {
			want[pb] = ok
		}
		referenceSettle(want, func(pb mem.Addr) []*mem.Object { return byPage[pb] })

		calls := 0
		settleMap(cand, func(pb mem.Addr) []*mem.Object { calls++; return byPage[pb] })
		if !reflect.DeepEqual(cand, want) {
			t.Fatalf("seed %d: worklist and fixpoint disagree on %d pages", seed, len(cand))
		}
		if calls > len(cand) {
			t.Fatalf("seed %d: %d page expansions for %d candidate pages", seed, calls, len(cand))
		}
	}
	// The old fixpoint's worst case: one long chain of two-page objects,
	// each sharing a page with the next, and a single failed page at one
	// end. Every page falls; each is expanded once.
	const n = 2000
	byPage := make(map[mem.Addr][]*mem.Object)
	cand := make(map[mem.Addr]bool)
	for i := 0; i < n; i++ {
		o := &mem.Object{Addr: mem.Addr(i)*mem.PageSize + 2048, Size: mem.PageSize}
		for pb := mem.PageBase(o.Addr); pb < o.End(); pb += mem.PageSize {
			byPage[pb] = append(byPage[pb], o)
			cand[pb] = pb != 0
		}
	}
	calls := 0
	settleMap(cand, func(pb mem.Addr) []*mem.Object { calls++; return byPage[pb] })
	for pb, ok := range cand {
		if ok {
			t.Fatalf("chain: page %#x survived", pb)
		}
	}
	if calls > len(cand) {
		t.Fatalf("chain: %d page expansions for %d pages", calls, len(cand))
	}

	pages, ok, onPage := bigObjectLayout(n)
	calls = 0
	settleAdoptable(pages, ok, func(pb mem.Addr) []*mem.Object { calls++; return onPage(pb) })
	if i := slices.Index(ok, true); i >= 0 {
		t.Fatalf("big object: page %#x survived", pages[i])
	}
	if calls > len(pages) {
		t.Fatalf("big object: %d page expansions for %d pages", calls, len(pages))
	}
}

// settleMap runs settleAdoptable over a candidate map, handed over as
// adoptPages hands it — ascending pages and their verdicts — and writes
// the verdicts back.
func settleMap(cand map[mem.Addr]bool, onPage func(mem.Addr) []*mem.Object) {
	pages := make([]mem.Addr, 0, len(cand))
	for pb := range cand {
		pages = append(pages, pb)
	}
	slices.Sort(pages)
	ok := make([]bool, len(pages))
	for i, pb := range pages {
		ok[i] = cand[pb]
	}
	settleAdoptable(pages, ok, onPage)
	for i, pb := range pages {
		cand[pb] = ok[i]
	}
}

// adoptBase is where adoptFixture maps the region its objects live in.
const adoptBase = scanFixtureBase + 64<<20

// adoptFixture returns an old and a new process, each with an empty heap
// region of the given pages at adoptBase.
func adoptFixture(tb testing.TB, pages int) (oldP, newP *program.Proc) {
	tb.Helper()
	oldP, newP = startScanFixture(tb), startScanFixture(tb)
	for _, p := range []*program.Proc{oldP, newP} {
		if err := p.Space().Map(adoptBase, uint64(pages)*mem.PageSize, mem.RegionHeap, "adopt"); err != nil {
			tb.Fatal(err)
		}
	}
	return oldP, newP
}

// insertPairs inserts each object into the old index and a same-address,
// same-size counterpart into the new one, and returns the pairs.
func insertPairs(tb testing.TB, oldP, newP *program.Proc, objs ...*mem.Object) map[mem.Addr]*pairEntry {
	tb.Helper()
	pairs := make(map[mem.Addr]*pairEntry)
	for _, o := range objs {
		n := *o
		if err := oldP.Index().Insert(o); err != nil {
			tb.Fatal(err)
		}
		if err := newP.Index().Insert(&n); err != nil {
			tb.Fatal(err)
		}
		pairs[o.Addr] = &pairEntry{oldObj: o, newObj: &n}
	}
	return pairs
}

// adoptTransfer is the part of a procTransfer adoptPages reads, between
// the two processes.
func adoptTransfer(oldP, newP *program.Proc, pairs map[mem.Addr]*pairEntry) *procTransfer {
	pol := types.DefaultPolicy()
	return &procTransfer{oldProc: oldP, newProc: newP, opts: Options{Adopt: true, Policy: pol},
		ann: program.NewAnnotations(), layouts: newLayoutMemo(pol), pairs: pairs}
}

// TestAdoptPagesMovesResidentCandidates: adoptPages' candidates are the
// pages resident on either side, and nothing else decides. Four eligible
// objects: A's last page is shared with an old object that may not move,
// so A stays behind; B has one page resident on the old side and one on
// the new side only, and both frames move, the absent one clearing the
// new side's page as the copy would; C is absent on both sides and moves
// with no frame at all; D's page holds a new-only object, so D stays. A
// struck object ahead of an adopted one is the order in which a candidate
// list reused as the list of moving pages would misjudge A.
func TestAdoptPagesMovesResidentCandidates(t *testing.T) {
	oldP, newP := adoptFixture(t, 24)
	page := func(i int) mem.Addr { return adoptBase + mem.Addr(i)*mem.PageSize }
	a := &mem.Object{Addr: page(0) + 64, Size: 3*mem.PageSize + 1024, Kind: mem.ObjHeap, Site: 1}
	b := &mem.Object{Addr: page(5) + 64, Size: 8 * mem.PageSize, Kind: mem.ObjHeap, Site: 2}
	c := &mem.Object{Addr: page(16), Size: 4 * mem.PageSize, Kind: mem.ObjHeap, Site: 3}
	d := &mem.Object{Addr: page(20) + 512, Size: 2 * mem.PageSize, Kind: mem.ObjHeap, Site: 4}
	pairs := insertPairs(t, oldP, newP, a, b, c, d)
	x := &mem.Object{Addr: a.End(), Size: 64, Kind: mem.ObjHeap, Site: 5}       // old side only
	y := &mem.Object{Addr: page(20) + 64, Size: 64, Kind: mem.ObjHeap, Site: 6} // new side only
	if err := oldP.Index().Insert(x); err != nil {
		t.Fatal(err)
	}
	if err := newP.Index().Insert(y); err != nil {
		t.Fatal(err)
	}
	write := func(p *program.Proc, at mem.Addr, s string) {
		if err := p.Space().WriteAt(at, []byte(s)); err != nil {
			t.Fatal(err)
		}
	}
	write(oldP, a.Addr+mem.PageSize, "a's data")
	write(oldP, x.Addr, "x's data")
	write(oldP, page(6)+8, "b's data")
	write(newP, page(9)+8, "the new version's own bytes")
	write(oldP, d.Addr, "d's data")
	write(newP, y.Addr, "y's data")

	pt := adoptTransfer(oldP, newP, pairs)
	if err := pt.adoptPages([]*mem.Object{a, b, c, d}); err != nil {
		t.Fatal(err)
	}
	if pt.adopted[a.Addr] || !pt.adopted[b.Addr] || !pt.adopted[c.Addr] || pt.adopted[d.Addr] {
		t.Fatalf("adopted %v; want b and c, not a or d", pt.adopted)
	}
	if pt.stats.PagesAdopted != 2 || pt.stats.BytesAdopted != b.Size+c.Size {
		t.Fatalf("%d frames, %d bytes adopted; want 2 frames, %d bytes", pt.stats.PagesAdopted, pt.stats.BytesAdopted, b.Size+c.Size)
	}
	resident := func(p *program.Proc) (pages []int) {
		if err := p.Space().WalkResident(adoptBase, 24*mem.PageSize, func(at mem.Addr, _ []byte) {
			pages = append(pages, int((at-adoptBase)/mem.PageSize))
		}); err != nil {
			t.Fatal(err)
		}
		return pages
	}
	if got, want := resident(oldP), []int{1, 3, 20}; !slices.Equal(got, want) {
		t.Errorf("old side resident pages %v, want %v", got, want)
	}
	if got, want := resident(newP), []int{6, 9, 20}; !slices.Equal(got, want) {
		t.Errorf("new side resident pages %v, want %v", got, want)
	}
	got := make([]byte, 32)
	if err := newP.Space().ReadAt(page(9), got); err != nil || !slices.Equal(got, make([]byte, 32)) {
		t.Errorf("new side page 9 reads %q (%v), want the old side's zeroes", got, err)
	}
}

// ---- Cost ----------------------------------------------------------------

// Cost fixtures: the fixture region holds scanTargets small objects and,
// after them, one untyped object of the size under test.
const (
	scanTargets    = 1024
	scanTargetSize = 64
	scanBigBase    = scanFixtureBase + scanTargets*scanTargetSize
	scanBigMax     = scanFixtureSize - scanTargets*scanTargetSize
)

// oneBigObject builds that process, the big object filled by fill one
// page at a time.
func oneBigObject(tb testing.TB, size int, fill func(page []byte, at mem.Addr)) *program.Proc {
	tb.Helper()
	p := startScanFixture(tb)
	for i := 0; i < scanTargets; i++ {
		o := &mem.Object{Addr: scanFixtureBase + mem.Addr(i*scanTargetSize), Size: scanTargetSize, Kind: mem.ObjHeap, Site: 2}
		if err := p.Index().Insert(o); err != nil {
			tb.Fatal(err)
		}
	}
	o := &mem.Object{Addr: scanBigBase, Size: uint64(size), Kind: mem.ObjHeap, Site: 1}
	if err := p.Index().Insert(o); err != nil {
		tb.Fatal(err)
	}
	page := make([]byte, mem.PageSize)
	for off := 0; off < size; off += mem.PageSize {
		at := scanBigBase + mem.Addr(off)
		fill(page, at)
		if err := p.Space().WriteAt(at, page); err != nil {
			tb.Fatal(err)
		}
	}
	return p
}

var scanFills = []struct {
	name string
	fill func(page []byte, at mem.Addr)
	// chunk, when set, splits the big object into untyped objects of this
	// many bytes after the fill (chunked).
	chunk int
}{
	{"zero", func(page []byte, _ mem.Addr) {
		for i := range page {
			page[i] = 0
		}
	}, 0},
	{"text", func(page []byte, _ mem.Addr) {
		const s = "GET /index.html HTTP/1.1\r\nHost: example.org\r\n"
		for i := range page {
			page[i] = s[i%len(s)]
		}
	}, 0},
	{"pointers", func(page []byte, at mem.Addr) {
		// Every word is an interior pointer into one of the targets,
		// hopping between them: all candidates, all hits, and the 64
		// targets on a page seldom hit twice in a row.
		for i := 0; i < len(page); i += 8 {
			n := (uint64(at) + uint64(i)) / 8 * 2654435761 % scanTargets
			binary.LittleEndian.PutUint64(page[i:], uint64(scanFixtureBase)+n*scanTargetSize+8)
		}
	}, 0},
	{"records", fillRecords, recordChunk},
}

// The records fill is httpd's keepalive state: 8 KiB chunks of an
// uninstrumented region allocator, each packed with request records. A
// record is four words — a pointer into the config object (the first
// target), the previous record (in this chunk, or at the end of the one
// before), its own body and a small integer (the connection's fd) — and
// the request text as its body. Three candidates a record, all hits,
// alternating between the config object and the record's own chunk: a
// cache of the one last target would miss two in three.
const (
	recordChunk = 8 << 10
	recordSize  = 80
	recordsPer  = recordChunk / recordSize // the chunk's tail stays zero
)

func fillRecords(page []byte, at mem.Addr) {
	const text = "GET /keepalive?seq=000042 HTTP/1.1\r\nHost: a.org\r\n"
	for i := 0; i < len(page); i += 8 {
		off := uint64(at-scanBigBase) + uint64(i)
		chunk, k, field := off/recordChunk, off%recordChunk/recordSize, off%recordChunk%recordSize
		rec := uint64(scanBigBase) + chunk*recordChunk + k*recordSize
		var v uint64
		switch {
		case k == recordsPer:
			// the chunk's tail
		case field == 0:
			v = uint64(scanFixtureBase) + 8
		case field == 8 && k > 0:
			v = rec - recordSize
		case field == 8 && chunk > 0:
			v = rec - recordChunk + (recordsPer-1)*recordSize
		case field == 16:
			v = rec + 32
		case field == 24:
			v = 7 + k
		case field >= 32:
			v = binary.LittleEndian.Uint64([]byte(text[field-32:]))
		}
		binary.LittleEndian.PutUint64(page[i:], v)
	}
}

// chunked replaces oneBigObject's big object by untyped objects of chunk
// bytes each over the same memory.
func chunked(tb testing.TB, p *program.Proc, size, chunk int) {
	tb.Helper()
	ix := p.Index()
	if _, ok := ix.Remove(scanBigBase); !ok {
		tb.Fatal("no big object")
	}
	for off := 0; off < size; off += chunk {
		o := &mem.Object{Addr: scanBigBase + mem.Addr(off), Size: uint64(min(chunk, size-off)), Kind: mem.ObjHeap, Site: 1}
		if err := ix.Insert(o); err != nil {
			tb.Fatal(err)
		}
	}
}

// TestAnalyzeProcAllocsIndependentOfHeapBytes: the analysis allocates per
// object (snapshot, layouts, result maps) and per resident page (its
// summary), never per byte scanned — on a heap where every word is a
// pointer, 63 times the pages cost a few allocations each, not 512. And
// bringing a current analysis up to date — no page stored into, no
// allocation or free since — allocates nothing at all.
func TestAnalyzeProcAllocsIndependentOfHeapBytes(t *testing.T) {
	allocs := func(size int) float64 {
		p := oneBigObject(t, size, scanFills[2].fill)
		return testing.AllocsPerRun(5, func() {
			if _, err := AnalyzeProc(p, types.DefaultPolicy(), nil); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(64<<10), allocs(scanBigMax)
	if perPage := (large - small) / float64((scanBigMax-64<<10)/mem.PageSize); perPage > 4 {
		t.Errorf("AnalyzeProc allocations grew with heap bytes: %.0f at 64 KiB, %.0f at %d KiB: %.1f per page",
			small, large, scanBigMax>>10, perPage)
	}

	p := oneBigObject(t, 64<<10, scanFills[2].fill)
	w := NewWarmAnalysis(types.DefaultPolicy(), nil)
	w.Refresh(p.Instance())
	var rs WarmRefresh
	idle := testing.AllocsPerRun(20, func() {
		if _, err := w.bring(p, &rs); err != nil {
			t.Fatal(err)
		}
	})
	if idle != 0 || rs.Reanalyzed != 0 || rs.PagesRescanned != 0 {
		t.Errorf("a step with nothing dirty allocated %.0f times (tally %+v), want 0", idle, rs)
	}
}

// BenchmarkAnalyzeProc is the conservative analysis of one process whose
// state is one opaque object (plus its 1024 possible targets), by size and
// by content: resident zeroes, text (every word fails the range
// pre-filter), pointers (every word is a hit on a page of 64 targets, and
// a distinct pin) and httpd's records (the same bytes as 8 KiB chunks of
// records, each pointing at the config object, the record before and its
// own body). MB/s is the scan rate.
func BenchmarkAnalyzeProc(b *testing.B) {
	for _, size := range []int{256 << 10, scanBigMax} {
		for _, f := range scanFills {
			b.Run(fmt.Sprintf("bytes=%dK/%s", size>>10, f.name), func(b *testing.B) {
				p := oneBigObject(b, size, f.fill)
				if f.chunk > 0 {
					chunked(b, p, size, f.chunk)
				}
				b.SetBytes(int64(size))
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := AnalyzeProc(p, types.DefaultPolicy(), nil); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// bigObjectLayout is nginx's shape gone wrong: one object spanning n pages
// with a small neighbour on each, and the per-page checks failed on the
// last page only. The old fixpoint rebuilt the object's page list once per
// candidate page per round; every page must fall, each expanded once.
func bigObjectLayout(n int) ([]mem.Addr, []bool, func(mem.Addr) []*mem.Object) {
	big := &mem.Object{Addr: 0x10_0000, Size: uint64(n) * mem.PageSize}
	pages, ok := make([]mem.Addr, 0, n), make([]bool, 0, n)
	for pb := big.Addr; pb < big.End(); pb += mem.PageSize {
		pages = append(pages, pb)
		ok = append(ok, pb+mem.PageSize < big.End())
	}
	one := []*mem.Object{big}
	return pages, ok, func(mem.Addr) []*mem.Object { return one }
}

// BenchmarkAdoptPages is the page/object settlement of adoptPages on that
// layout, by page count: ns/page must stay flat across the decades. The
// sparse case is all of adoptPages over one eligible 4 000-page object
// with 2 pages resident: its cost must follow the 2, not the 4 000.
func BenchmarkAdoptPages(b *testing.B) {
	for _, n := range []int{100, 1000, 10000} {
		b.Run(fmt.Sprintf("pages=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				pages, ok, onPage := bigObjectLayout(n)
				b.StartTimer()
				settleAdoptable(pages, ok, onPage)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/page")
		})
	}
	b.Run("sparse/pages=4000/resident=2", func(b *testing.B) {
		const n = 4000
		oldP, newP := adoptFixture(b, n+1)
		o := &mem.Object{Addr: adoptBase + 64, Size: n * mem.PageSize, Kind: mem.ObjHeap, Site: 1}
		pairs := insertPairs(b, oldP, newP, o)
		resident := []mem.Addr{adoptBase + 10*mem.PageSize, adoptBase + 3000*mem.PageSize}
		for _, pb := range resident {
			if err := oldP.Space().WriteAt(pb+8, []byte{1}); err != nil {
				b.Fatal(err)
			}
		}
		reachable := []*mem.Object{o}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			pt := adoptTransfer(oldP, newP, pairs)
			if err := pt.adoptPages(reachable); err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
			if pt.stats.PagesAdopted != len(resident) {
				b.Fatalf("%d frames moved, want %d", pt.stats.PagesAdopted, len(resident))
			}
			if err := mem.MoveFrames(newP.Space(), oldP.Space(), resident, nil); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
		}
	})
}
