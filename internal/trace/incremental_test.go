package trace

import (
	"encoding/binary"
	"fmt"
	"maps"
	"math/bits"
	"math/rand"
	"runtime"
	"testing"
	"unsafe"

	"repro/internal/mem"
	"repro/internal/program"
	"repro/internal/types"
)

// ---- Differential property test ------------------------------------------
//
// The incremental analysis is compared to the from-scratch word-at-a-time
// oracle (referenceAnalyzeProc) after seeded interleavings of everything
// that can change what the analysis reads: stores through every write path
// of mem, allocations, frees, address reuse under another type, region
// growth, forks and frame moves — with Refresh or Resolve run at random
// points in between, so every step starts from whatever mixture of stale
// pages and stale index the previous ones left.

// fixtureMutator applies random mutations to the fixture region of one
// process.
type fixtureMutator struct {
	tb   testing.TB
	rnd  chooser
	inst *program.Instance
	end  map[program.ProcKey]mem.Addr // end of each process's fixture mapping
	site uint64
}

func (m *fixtureMutator) procs() []*program.Proc { return m.inst.Procs() }

// fixtureObjects returns p's live objects inside the fixture region.
func (m *fixtureMutator) fixtureObjects(p *program.Proc) []*mem.Object {
	var out []*mem.Object
	for _, o := range p.Index().All() {
		if o.Addr >= scanFixtureBase && o.End() <= m.end[p.Key()] {
			out = append(out, o)
		}
	}
	return out
}

// word returns a value of one of the classes the scan tells apart.
func (m *fixtureMutator) word(p *program.Proc) uint64 {
	all := p.Index().All()
	t := all[m.rnd.Intn(len(all))]
	switch m.rnd.Intn(13) {
	case 0:
		return 0
	case 12:
		// Just past the mapping: in span once the region grows.
		return uint64(m.end[p.Key()]) + uint64(m.rnd.Intn(3*mem.PageSize))
	case 1:
		return uint64(m.rnd.Intn(4096))
	case 2:
		return 0x2065687420646e61 // "and the "
	case 3:
		return uint64(t.Addr)
	case 4:
		return uint64(t.Addr) + uint64(m.rnd.Int63n(int64(t.Size)))&^7
	case 5:
		return uint64(t.Addr) + uint64(m.rnd.Int63n(int64(t.Size))) // maybe misaligned
	case 6:
		return uint64(t.End()) + uint64(m.rnd.Intn(64)) // a gap, or the next object
	case 7:
		return uint64(t.Addr) - uint64(1+m.rnd.Intn(64))
	case 8:
		return uint64(program.LibBase) + uint64(m.rnd.Intn(256))
	default:
		// Anywhere in the fixture mapping, grown part included: dangling
		// today, maybe under an object tomorrow.
		return uint64(scanFixtureBase) + uint64(m.rnd.Int63n(int64(m.end[p.Key()]-scanFixtureBase)))
	}
}

// store writes one word (or half of one) into a live fixture object, on or
// off the scan's grid; pages never touched before become resident.
func (m *fixtureMutator) store(p *program.Proc) {
	objs := m.fixtureObjects(p)
	o := objs[m.rnd.Intn(len(objs))]
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], m.word(p))
	n := 8
	if m.rnd.Intn(6) == 0 {
		n = 4
	}
	if o.Size < uint64(n) {
		return
	}
	off := uint64(m.rnd.Int63n(int64(o.Size-uint64(n)+1))) &^ 7
	if m.rnd.Intn(8) == 0 && off+4+uint64(n) <= o.Size {
		off += 4
	}
	if err := p.Space().WriteAt(o.Addr+mem.Addr(off), b[:n]); err != nil {
		m.tb.Fatal(err)
	}
}

// gaps returns the free byte ranges of p's fixture mapping.
func (m *fixtureMutator) gaps(p *program.Proc) [][2]mem.Addr {
	var out [][2]mem.Addr
	cursor := scanFixtureBase
	for _, o := range m.fixtureObjects(p) {
		if o.Addr > cursor {
			out = append(out, [2]mem.Addr{cursor, o.Addr})
		}
		cursor = o.End()
	}
	if end := m.end[p.Key()]; end > cursor {
		out = append(out, [2]mem.Addr{cursor, end})
	}
	return out
}

// randomObject shapes an object of at most max bytes at addr.
func (m *fixtureMutator) randomObject(addr mem.Addr, max uint64) *mem.Object {
	kinds := []mem.ObjKind{mem.ObjHeap, mem.ObjHeap, mem.ObjStatic, mem.ObjMmap, mem.ObjLib}
	m.site++
	o := &mem.Object{Addr: addr, Kind: kinds[m.rnd.Intn(len(kinds))], Site: 1000 + m.site}
	if o.Kind == mem.ObjLib {
		o.Name = []string{"libA.extra", "libB.extra", "libC.extra"}[m.rnd.Intn(3)]
	}
	catalogue := scanFixtureTypes()
	if t := catalogue[m.rnd.Intn(len(catalogue))]; m.rnd.Intn(3) == 0 && t.Size <= max {
		o.Type, o.Size = t, t.Size
		return o
	}
	switch m.rnd.Intn(8) {
	case 0:
		o.Size = max // the whole gap
	case 1:
		o.Size = 1 + uint64(m.rnd.Int63n(int64(min(max, 3*mem.PageSize))))
	default:
		o.Size = 1 + uint64(m.rnd.Int63n(int64(min(max, 600))))
	}
	return o
}

// alloc inserts a new object into a free range — over whatever bytes the
// last tenant left there.
func (m *fixtureMutator) alloc(p *program.Proc) {
	gaps := m.gaps(p)
	if len(gaps) == 0 {
		return
	}
	g := gaps[m.rnd.Intn(len(gaps))]
	addr := g[0] + mem.Addr(m.rnd.Int63n(int64(g[1]-g[0])))
	if m.rnd.Intn(3) > 0 {
		if a := (addr + 7) &^ 7; a < g[1] {
			addr = a
		}
	}
	if err := p.Index().Insert(m.randomObject(addr, uint64(g[1]-addr))); err != nil {
		m.tb.Fatal(err)
	}
}

// free removes a fixture object; its bytes stay.
func (m *fixtureMutator) free(p *program.Proc) *mem.Object {
	objs := m.fixtureObjects(p)
	if len(objs) < 20 {
		return nil
	}
	o := objs[m.rnd.Intn(len(objs))]
	if _, ok := p.Index().Remove(o.Addr); !ok {
		m.tb.Fatalf("remove %s", o)
	}
	return o
}

// retype frees an object and allocates another at the same address with
// another shape: the words are the same, which of them are traced is not,
// and neither is what a pointer into them may be.
func (m *fixtureMutator) retype(p *program.Proc) {
	if o := m.free(p); o != nil {
		if err := p.Index().Insert(m.randomObject(o.Addr, o.Size)); err != nil {
			m.tb.Fatal(err)
		}
	}
}

// grow extends the fixture mapping: new room for objects, and words that
// pointed past its end now point into it.
func (m *fixtureMutator) grow(p *program.Proc) {
	delta := uint64(1+m.rnd.Intn(3)) * mem.PageSize
	if err := p.Space().GrowRegion("scanfix", delta); err != nil {
		m.tb.Fatal(err)
	}
	m.end[p.Key()] += mem.Addr(delta)
}

// fork clones the root into a new process (which inherits the fixture).
func (m *fixtureMutator) fork() {
	if len(m.procs()) >= 3 {
		return
	}
	root := m.inst.Root()
	err := m.inst.RunHandler(func(th *program.Thread) error {
		child, err := th.ForkProc("fixture_child", func(t *program.Thread) error {
			t.Enter("fixture_child")
			defer t.Exit()
			return synthIdle(t)
		})
		if err == nil {
			m.end[child.Key()] = m.end[root.Key()]
		}
		return err
	})
	if err != nil {
		m.tb.Fatal(err)
	}
}

// donor returns a scratch address space with the fixture mapped and n
// random pages written at pb.
func (m *fixtureMutator) donor(p *program.Proc, pb mem.Addr, n int) *mem.AddressSpace {
	d := mem.NewAddressSpace()
	if err := d.Map(scanFixtureBase, uint64(m.end[p.Key()]-scanFixtureBase), mem.RegionMmap, "scanfix"); err != nil {
		m.tb.Fatal(err)
	}
	page := make([]byte, mem.PageSize)
	for i := 0; i < n; i++ {
		if m.rnd.Intn(4) == 0 {
			continue // absent in the donor: arrives as a zero page
		}
		for off := 0; off < len(page); off += 8 {
			binary.LittleEndian.PutUint64(page[off:], m.word(p))
		}
		if err := d.WriteAt(pb+mem.Addr(i)*mem.PageSize, page); err != nil {
			m.tb.Fatal(err)
		}
	}
	return d
}

func (m *fixtureMutator) randomPages(p *program.Proc, n int) mem.Addr {
	pages := int(m.end[p.Key()]-scanFixtureBase) / mem.PageSize
	return scanFixtureBase + mem.Addr(m.rnd.Intn(pages-n+1))*mem.PageSize
}

// moveFrames installs whole frames from another address space, the way
// page adoption does, and now and then takes them back (rollback): the
// pages go absent again.
func (m *fixtureMutator) moveFrames(p *program.Proc) {
	n := 1 + m.rnd.Intn(3)
	pb := m.randomPages(p, n)
	d := m.donor(p, pb, n)
	pages := make([]mem.Addr, n)
	for i := range pages {
		pages[i] = pb + mem.Addr(i)*mem.PageSize
	}
	var ledger mem.AdoptLedger
	if err := mem.MoveFrames(d, p.Space(), pages, &ledger); err != nil {
		m.tb.Fatal(err)
	}
	if m.rnd.Intn(3) == 0 {
		if err := ledger.ReturnAll(); err != nil {
			m.tb.Fatal(err)
		}
	}
}

// copyRange overwrites a byte range page to page (mem.CopyRange).
func (m *fixtureMutator) copyRange(p *program.Proc) {
	pb := m.randomPages(p, 2)
	d := m.donor(p, pb, 2)
	from := pb + mem.Addr(m.rnd.Intn(mem.PageSize))
	size := uint64(1 + m.rnd.Intn(mem.PageSize))
	if err := mem.CopyRange(p.Space(), from, d, from, size); err != nil {
		m.tb.Fatal(err)
	}
}

// rewrite stores through the in-place write path (mem.UpdateResident),
// the one the transfer's pointer remap uses.
func (m *fixtureMutator) rewrite(p *program.Proc) {
	pb := m.randomPages(p, 2)
	v := m.word(p)
	err := p.Space().UpdateResident(pb+8*mem.Addr(m.rnd.Intn(64)), 8*uint64(1+m.rnd.Intn(600)), func(_ mem.Addr, data []byte) bool {
		if len(data) < 8 || m.rnd.Intn(2) == 0 {
			return false
		}
		binary.LittleEndian.PutUint64(data[8*m.rnd.Intn(len(data)/8):], v)
		return true
	})
	if err != nil {
		m.tb.Fatal(err)
	}
}

// chooser is where a mutator's choices come from: a seeded *rand.Rand, or
// a fuzzer's input (fuzzChoices).
type chooser interface {
	Intn(n int) int
	Int63n(n int64) int64
}

// mutation is one kind of change the mutator makes.
type mutation int

const (
	// Plain stores: bytes change on at most three pages, nothing else does.
	mStore mutation = iota
	mRewrite
	mCopyRange
	// Index changes, and growth: pages and objects come and go, the shape
	// of the space stays.
	mAlloc
	mFree
	mRetype
	mGrow
	// What an incremental step cannot follow: a process never seen, or a
	// frame taken away (moveFrames returns what it moved now and then).
	mFork
	mMoveFrames
	nMutations
)

// storeOnly reports whether k is a plain store.
func (k mutation) storeOnly() bool { return k <= mCopyRange }

// apply makes one mutation of kind k to p (a fork forks the root).
func (m *fixtureMutator) apply(k mutation, p *program.Proc) {
	switch k {
	case mStore:
		m.store(p)
	case mRewrite:
		m.rewrite(p)
	case mCopyRange:
		m.copyRange(p)
	case mAlloc:
		m.alloc(p)
	case mFree:
		m.free(p)
	case mRetype:
		m.retype(p)
	case mGrow:
		m.grow(p)
	case mFork:
		m.fork()
	case mMoveFrames:
		m.moveFrames(p)
	}
}

// mutationMix is how often step picks each kind, in percent.
var mutationMix = []struct {
	k   mutation
	pct int
}{
	{mStore, 40}, {mRewrite, 6}, {mCopyRange, 6}, {mAlloc, 12}, {mFree, 11},
	{mRetype, 12}, {mMoveFrames, 6}, {mGrow, 4}, {mFork, 3},
}

// step applies one random mutation to a random process and returns its
// kind.
func (m *fixtureMutator) step() mutation {
	procs := m.procs()
	p := procs[m.rnd.Intn(len(procs))]
	n, i := m.rnd.Intn(100), 0
	for ; n >= mutationMix[i].pct; i++ {
		n -= mutationMix[i].pct
	}
	m.apply(mutationMix[i].k, p)
	return mutationMix[i].k
}

// checkAgainstReference compares the processes' analyses — those Resolve
// returned, or else the entries Refresh left — to the oracle.
func checkAgainstReference(t *testing.T, when string, w *WarmAnalysis, procs []*program.Proc, got map[program.ProcKey]*Analysis) {
	t.Helper()
	for _, p := range procs {
		want, err := referenceAnalyzeProc(p, w.pol, w.libs)
		if err != nil {
			t.Fatalf("%s: reference: %v", when, err)
		}
		an := got[p.Key()]
		if got == nil {
			e := w.entry(p.Key())
			if !e.current(p) {
				t.Fatalf("%s: %s has no current entry after a refresh of an idle instance", when, p.Key())
			}
			an = e.an
		}
		if d := analysisDiff(an, want); d != "" {
			t.Fatalf("%s: %s: incremental analysis differs from the from-scratch reference: %s", when, p.Key(), d)
		}
	}
}

func TestIncrementalMatchesReferenceUnderMutation(t *testing.T) {
	steps := 120
	if testing.Short() {
		steps = 60
	}
	// Coverage is tallied over the whole run, not per seed: a shorter run
	// need not fork or store-only in every seed. grewPasses counts the
	// passes that followed a growth and no fork or frame move, storePasses
	// those that followed only stores after the warm-up, forkedRuns the
	// seeds that saw a second process.
	grewPasses, storePasses, forkedRuns := 0, 0, 0
	warmup := steps / 6
	for i, seed := range []int64{3, 17, 58, 101} {
		pc, libs := scanPolicies[i%len(scanPolicies)], scanLibSets[(i/2)%len(scanLibSets)]
		t.Run(fmt.Sprintf("seed=%d/%s", seed, pc.name), func(t *testing.T) {
			p := startScanFixture(t)
			plantRandomHeap(t, p, seed)
			inst := p.Instance()
			m := &fixtureMutator{tb: t, rnd: rand.New(rand.NewSource(seed)), inst: inst,
				end: map[program.ProcKey]mem.Addr{p.Key(): scanFixtureBase + scanFixtureSize}}
			w := NewWarmAnalysis(pc.pol, libs)
			// stores counts the mutations since the last pass while they
			// were all plain stores (-1 once one was not). shaped is set by a
			// mutation since the last pass that an incremental step cannot
			// follow.
			stores := 0
			shaped, grew := true, false
			for s := 0; s < steps; s++ {
				k := m.step()
				if k.storeOnly() && stores >= 0 {
					stores++
				} else {
					stores = -1
				}
				shaped = shaped || k >= mFork
				grew = grew || k == mGrow
				if m.rnd.Intn(4) > 0 && s < steps-1 {
					continue // let mutations pile up across kinds
				}
				// The oracle is a locked load per word: one process a pass
				// (a wrong summary stays wrong until its page is scanned
				// again), all of them at the end.
				check := inst.Procs()
				if s < steps-1 {
					check = check[m.rnd.Intn(len(check)):][:1]
				}
				when := fmt.Sprintf("step %d", s)
				var rs WarmRefresh
				if m.rnd.Intn(2) == 0 {
					rs = w.Refresh(inst)
					checkAgainstReference(t, when+" (Refresh)", w, check, nil)
				} else {
					got, tally, err := w.Resolve(inst)
					if err != nil {
						t.Fatal(err)
					}
					rs = tally
					checkAgainstReference(t, when+" (Resolve)", w, check, got)
				}
				// The point of it all: after stores alone a pass scans the
				// pages they wrote (three at most, and one before each for
				// a straddling word), whatever the heap holds. The fixture
				// is too densely linked to say as much of a free — nearly
				// every page points into every object.
				if stores > 0 && s > warmup {
					storePasses++
					if rs.PagesRescanned > 6*stores {
						t.Errorf("%s: %d stores cost %d pages rescanned (%d reused)", when, stores, rs.PagesRescanned, rs.PagesReused)
					}
				}
				// Allocation, free and heap growth are followed page by
				// page: only a new process or a frame taken away starts a
				// process over.
				if !shaped && rs.Full.Total() != 0 {
					t.Errorf("%s: no fork or frame move since the last pass, yet %v", when, rs.Full)
				}
				if rs.Full.Remapped != 0 {
					t.Errorf("%s: nothing was mapped or unmapped, yet %v", when, rs.Full)
				}
				if grew && !shaped {
					grewPasses++
				}
				stores, shaped, grew = 0, false, false
			}
			if len(inst.Procs()) > 1 {
				forkedRuns++
			}
		})
	}
	if forkedRuns == 0 || storePasses == 0 {
		t.Errorf("%d steps a seed saw a second process in %d seeds and %d passes after stores alone", steps, forkedRuns, storePasses)
	}
	if grewPasses == 0 {
		t.Error("no pass followed a growth without a fork or frame move: the seeds do not test growth")
	}
}

// fuzzChoices is a chooser that reads its choices from a fuzzer's input.
// A choice among n options takes the fewest whole bytes that can tell them
// apart and scales them onto [0, n): 0x00… picks the first option, 0xff…
// the last, whatever n is. An exhausted input reads as zeros.
type fuzzChoices struct{ b []byte }

func (c *fuzzChoices) Int63n(n int64) int64 {
	k := (bits.Len64(uint64(n-1)) + 7) / 8
	var v uint64
	for range k {
		v <<= 8
		if len(c.b) > 0 {
			v |= uint64(c.b[0])
			c.b = c.b[1:]
		}
	}
	hi, _ := bits.Mul64(v<<(64-8*k), uint64(n))
	return int64(hi)
}

func (c *fuzzChoices) Intn(n int) int { return int(c.Int63n(int64(n))) }

// FuzzIncrementalMatchesReference is the differential test with the
// fuzzer choosing: the input is a script of mutations — each a kind, a
// process and the mutation's own choices — and Refresh or Resolve passes,
// read off by fuzzChoices; the seed byte picks the planted heap, the policy
// and the library set. After every pass each process's analysis must equal
// the from-scratch oracle, and a pass that followed no fork and no frame
// move must not have analyzed any process from nothing.
func FuzzIncrementalMatchesReference(f *testing.F) {
	f.Fuzz(func(t *testing.T, seed uint8, script []byte) {
		if len(script) > 512 {
			t.Skip("a longer script adds mutations between the same few passes, not reach")
		}
		pc, libs := scanPolicies[int(seed)%len(scanPolicies)], scanLibSets[int(seed/2)%len(scanLibSets)]
		p := startScanFixture(t)
		plantRandomHeap(t, p, int64(seed))
		inst := p.Instance()
		src := &fuzzChoices{b: script}
		m := &fixtureMutator{tb: t, rnd: src, inst: inst,
			end: map[program.ProcKey]mem.Addr{p.Key(): scanFixtureBase + scanFixtureSize}}
		w := NewWarmAnalysis(pc.pol, libs)
		shaped := true // the first pass analyzes every process from nothing
		for pass := 0; ; {
			k := mutation(src.Intn(int(nMutations) + 2))
			if k < nMutations && len(src.b) > 0 {
				procs := m.procs()
				m.apply(k, procs[src.Intn(len(procs))])
				shaped = shaped || k >= mFork
				continue
			}
			when := fmt.Sprintf("pass %d", pass)
			var rs WarmRefresh
			if k == nMutations {
				rs = w.Refresh(inst)
				checkAgainstReference(t, when+" (Refresh)", w, inst.Procs(), nil)
			} else {
				got, tally, err := w.Resolve(inst)
				if err != nil {
					t.Fatal(err)
				}
				rs = tally
				checkAgainstReference(t, when+" (Resolve)", w, inst.Procs(), got)
			}
			if rs.Full.Remapped != 0 || (!shaped && rs.Full.Total() != 0) {
				t.Fatalf("%s: %v after a script that mapped nothing (fork or frame move since the last pass: %v)", when, rs.Full, shaped)
			}
			// The oracle reads every word of every process: a script is
			// a few passes, however many it asks for.
			if len(src.b) == 0 || pass == 8 {
				return
			}
			pass++
			shaped = false
		}
	})
}

// ---- Named cases -----------------------------------------------------------

// incrementalFixture is one process with an empty fixture region and a
// warm analysis of it, plus the helpers the named cases share.
type incrementalFixture struct {
	t    *testing.T
	p    *program.Proc
	w    *WarmAnalysis
	libA *mem.Object
}

func newIncrementalFixture(t *testing.T) *incrementalFixture {
	p := startScanFixture(t)
	libA, ok := p.Index().At(program.LibBase)
	if !ok || libA.Kind != mem.ObjLib {
		t.Fatalf("expected libA.state at LibBase, found %v", libA)
	}
	return &incrementalFixture{t: t, p: p, w: NewWarmAnalysis(types.DefaultPolicy(), nil), libA: libA}
}

func fixturePage(n int) mem.Addr { return scanFixtureBase + mem.Addr(n)*mem.PageSize }

func (f *incrementalFixture) insert(o *mem.Object) *mem.Object {
	f.t.Helper()
	if err := f.p.Index().Insert(o); err != nil {
		f.t.Fatal(err)
	}
	return o
}

func (f *incrementalFixture) put(at mem.Addr, b []byte) {
	f.t.Helper()
	if err := f.p.Space().WriteAt(at, b); err != nil {
		f.t.Fatal(err)
	}
}

// resolve steps the analysis and checks it against the oracle; it returns
// the process's analysis and the pass's tally.
func (f *incrementalFixture) resolve(when string) (*Analysis, WarmRefresh) {
	f.t.Helper()
	got, rs, err := f.w.Resolve(f.p.Instance())
	if err != nil {
		f.t.Fatal(err)
	}
	checkAgainstReference(f.t, when, f.w, f.p.Instance().Procs(), got)
	return got[f.p.Key()], rs
}

func le64(v uint64) []byte { return binary.LittleEndian.AppendUint64(nil, v) }

// TestIncrementalStraddlingWord: a scanned word cut by a page boundary
// belongs to the page it starts on, but half of its value lives on the
// next one. Writing only that second page must bring the word's page back
// under the scan — also when the first page has never been touched at all.
func TestIncrementalStraddlingWord(t *testing.T) {
	for _, firstResident := range []bool{true, false} {
		t.Run(fmt.Sprintf("firstPageResident=%v", firstResident), func(t *testing.T) {
			f := newIncrementalFixture(t)
			// An untyped object at an address ≡ 4 (mod 8) puts a grid word
			// on the boundary between pages 3 and 4.
			holder := f.insert(&mem.Object{Addr: fixturePage(2) + 0x804, Size: 2 * mem.PageSize, Kind: mem.ObjHeap, Site: 1})
			if firstResident {
				f.put(fixturePage(3)+0x10, le64(7))
			}
			f.put(fixturePage(4)+0x100, le64(7)) // page 4 resident, the word's high half still zero
			if an, _ := f.resolve("before"); an.IsImmutable(f.libA.Addr) || an.Nonupdatable[holder.Addr] {
				t.Fatal("nothing points anywhere yet")
			}
			// LibBase has zero low bytes: its high half alone, on page 4,
			// completes the pointer. Page 3 is not written.
			f.put(fixturePage(4), le64(uint64(program.LibBase))[4:])
			an, rs := f.resolve("after the high half landed")
			if !an.IsImmutable(f.libA.Addr) || !an.Nonupdatable[holder.Addr] {
				t.Errorf("the straddling word was not re-read: libA pinned=%v, holder nonupdatable=%v",
					an.IsImmutable(f.libA.Addr), an.Nonupdatable[holder.Addr])
			}
			if rs.PagesRescanned != 2 {
				t.Errorf("rescanned %d pages, want 2 (the written page and the one the word starts on)", rs.PagesRescanned)
			}
		})
	}
}

// TestIncrementalDanglingWordGainsTarget: a word on a page nobody writes
// points at free memory; an allocation under it turns it into a likely
// pointer, and the page must be scanned again although its bytes did not
// change. Freeing the object turns it back.
func TestIncrementalDanglingWordGainsTarget(t *testing.T) {
	f := newIncrementalFixture(t)
	holder := f.insert(&mem.Object{Addr: fixturePage(1), Size: 256, Kind: mem.ObjHeap, Site: 1})
	bystander := f.insert(&mem.Object{Addr: fixturePage(2), Size: 256, Kind: mem.ObjHeap, Site: 2})
	f.put(bystander.Addr, le64(uint64(f.libA.Addr)))
	spot := fixturePage(9) + 0x340
	f.put(holder.Addr+16, le64(uint64(spot)+8))
	if an, _ := f.resolve("dangling"); an.Nonupdatable[holder.Addr] {
		t.Fatal("a dangling word made its holder nonupdatable")
	}
	target := f.insert(&mem.Object{Addr: spot, Size: 64, Kind: mem.ObjHeap, Site: 3})
	an, rs := f.resolve("allocated under the word")
	if !an.IsImmutable(target.Addr) || !an.Nonupdatable[holder.Addr] {
		t.Errorf("target pinned=%v, holder nonupdatable=%v", an.IsImmutable(target.Addr), an.Nonupdatable[holder.Addr])
	}
	// The holder's page and the (absent) page of the new object; not the
	// bystander's, whose word points elsewhere.
	if rs.PagesRescanned != 2 {
		t.Errorf("rescanned %d pages, want 2", rs.PagesRescanned)
	}
	if _, ok := f.p.Index().Remove(target.Addr); !ok {
		t.Fatal("remove")
	}
	if an, _ := f.resolve("freed again"); an.IsImmutable(target.Addr) || an.Nonupdatable[holder.Addr] {
		t.Error("the freed target is still pinned")
	}
}

// TestIncrementalPreciseTargetFreed: a precise pointer is censused only
// while it points into a live object, and a typed target rejects likely
// pointers to odd offsets that an untyped one at the same address accepts.
func TestIncrementalPreciseTargetFreed(t *testing.T) {
	f := newIncrementalFixture(t)
	node := scanFixtureTypes()[0]
	a := f.insert(&mem.Object{Addr: fixturePage(1), Size: node.Size, Type: node, Kind: mem.ObjHeap, Site: 1})
	b := f.insert(&mem.Object{Addr: fixturePage(5) + 64, Size: node.Size, Type: node, Kind: mem.ObjHeap, Site: 2})
	blob := f.insert(&mem.Object{Addr: fixturePage(7), Size: 64, Kind: mem.ObjHeap, Site: 3})
	f.put(a.Addr+8, le64(uint64(b.Addr)))    // a.next = b, precise
	f.put(blob.Addr, le64(uint64(b.Addr)+2)) // a likely pointer b's type rules out
	before, _ := f.resolve("linked")
	if before.Stats.Precise.Ptr == 0 || before.IsImmutable(b.Addr) {
		t.Fatalf("precise=%d, b pinned=%v", before.Stats.Precise.Ptr, before.IsImmutable(b.Addr))
	}
	if _, ok := f.p.Index().Remove(b.Addr); !ok {
		t.Fatal("remove")
	}
	after, _ := f.resolve("target freed")
	if after.Stats.Precise.Ptr != before.Stats.Precise.Ptr-1 {
		t.Errorf("precise pointers %d -> %d, want one fewer", before.Stats.Precise.Ptr, after.Stats.Precise.Ptr)
	}
	// The same address, untyped: the odd-offset word is a likely pointer now.
	raw := f.insert(&mem.Object{Addr: b.Addr, Size: node.Size, Kind: mem.ObjHeap, Site: 4})
	if an, _ := f.resolve("address reused untyped"); an.Immutable[raw.Addr] != raw || !an.Nonupdatable[blob.Addr] {
		t.Errorf("untyped tenant pinned=%v, blob nonupdatable=%v", an.Immutable[raw.Addr] == raw, an.Nonupdatable[blob.Addr])
	}
}

// TestIncrementalFramesAndMappings: the changes that leave no stamped page
// behind. An adopted frame arrives stamped and is scanned like a store; a
// frame taken back (rollback) leaves an absent page whose summary must go,
// and the process is analyzed again from nothing. A grown heap region puts
// words that pointed past its top in span, so an object allocated there
// finds its pointers though their pages were never written again — and
// the step that finds it is not a full one. A region of another kind
// tracks no gap above it: an object allocated in its grown part still
// starts the process over, as the mapping of the region did.
func TestIncrementalFramesAndMappings(t *testing.T) {
	f := newIncrementalFixture(t)
	as := f.p.Space()
	target := f.insert(&mem.Object{Addr: fixturePage(1), Size: 64, Kind: mem.ObjHeap, Site: 1})
	holder := f.insert(&mem.Object{Addr: fixturePage(3), Size: mem.PageSize, Kind: mem.ObjHeap, Site: 2})
	beyond := scanFixtureBase + scanFixtureSize + 0x40
	f.put(target.Addr, le64(uint64(beyond)+8)) // points past the mapping
	full := func(when string, rs WarmRefresh, want FullSteps) {
		t.Helper()
		if rs.Full != want {
			t.Errorf("%s: %v, want %v", when, rs.Full, want)
		}
	}
	an, rs := f.resolve("empty holder")
	if an.IsImmutable(target.Addr) {
		t.Fatal("nothing points at the target yet")
	}
	full("first step", rs, FullSteps{New: 1})

	donor := mem.NewAddressSpace()
	if err := donor.Map(scanFixtureBase, scanFixtureSize, mem.RegionMmap, "scanfix"); err != nil {
		t.Fatal(err)
	}
	if err := donor.WriteAt(holder.Addr+8, le64(uint64(target.Addr))); err != nil {
		t.Fatal(err)
	}
	var ledger mem.AdoptLedger
	if err := mem.MoveFrames(donor, as, []mem.Addr{holder.Addr}, &ledger); err != nil {
		t.Fatal(err)
	}
	an, rs = f.resolve("frame adopted")
	if !an.IsImmutable(target.Addr) || rs.PagesRescanned != 1 {
		t.Errorf("adopted frame: target pinned=%v, %d pages rescanned (want 1)", an.IsImmutable(target.Addr), rs.PagesRescanned)
	}
	full("frame adopted", rs, FullSteps{})
	if err := ledger.ReturnAll(); err != nil {
		t.Fatal(err)
	}
	an, rs = f.resolve("frame returned")
	if an.IsImmutable(target.Addr) || an.Nonupdatable[holder.Addr] {
		t.Error("the pointer left with its frame, the pin did not")
	}
	full("frame returned", rs, FullSteps{FrameTaken: 1})

	if err := as.GrowRegion("scanfix", mem.PageSize); err != nil {
		t.Fatal(err)
	}
	late := f.insert(&mem.Object{Addr: beyond, Size: 64, Kind: mem.ObjHeap, Site: 3})
	an, rs = f.resolve("allocated in the grown part")
	if !an.IsImmutable(late.Addr) || !an.Nonupdatable[target.Addr] {
		t.Errorf("late object pinned=%v, its holder nonupdatable=%v", an.IsImmutable(late.Addr), an.Nonupdatable[target.Addr])
	}
	full("allocated in a heap's grown part", rs, FullSteps{})
	if rs.PagesRescanned != 2 {
		t.Errorf("allocated in a heap's grown part: %d pages rescanned, want 2 (the object's and the one pointing at it)", rs.PagesRescanned)
	}

	other := scanFixtureBase + 2*scanFixtureSize
	if err := as.Map(other, mem.PageSize, mem.RegionMmap, "scanmmap"); err != nil {
		t.Fatal(err)
	}
	f.put(target.Addr+8, le64(uint64(other)+mem.PageSize+8)) // past the new region's end
	_, rs = f.resolve("region mapped")
	full("region mapped", rs, FullSteps{Remapped: 1})
	if err := as.GrowRegion("scanmmap", mem.PageSize); err != nil {
		t.Fatal(err)
	}
	_, rs = f.resolve("mmap region grown")
	full("mmap region grown, nothing allocated there", rs, FullSteps{})
	mm := f.insert(&mem.Object{Addr: other + mem.PageSize, Size: 64, Kind: mem.ObjMmap, Site: 4})
	an, rs = f.resolve("allocated in an mmap region's grown part")
	if !an.IsImmutable(mm.Addr) {
		t.Error("the object in the mmap region's grown part is not pinned")
	}
	full("allocated in an mmap region's grown part", rs, FullSteps{Remapped: 1})
}

// TestResolvedAnalysisIsNotMutatedLater: what Resolve hands out belongs to
// the caller — the engine keeps it across a rollback and a re-arm, or a
// canary window, while the daemon's next Refresh moves the analysis on.
func TestResolvedAnalysisIsNotMutatedLater(t *testing.T) {
	p := startScanFixture(t)
	plantRandomHeap(t, p, 23)
	inst := p.Instance()
	m := &fixtureMutator{tb: t, rnd: rand.New(rand.NewSource(23)), inst: inst,
		end: map[program.ProcKey]mem.Addr{p.Key(): scanFixtureBase + scanFixtureSize}}
	w := NewWarmAnalysis(types.DefaultPolicy(), nil)
	moved := 0
	for i := 0; i < 30; i++ {
		held, _, err := w.Resolve(inst)
		if err != nil {
			t.Fatal(err)
		}
		an := held[p.Key()]
		frozen := Analysis{Immutable: maps.Clone(an.Immutable), Nonupdatable: maps.Clone(an.Nonupdatable), Stats: an.Stats}
		for j := 0; j < 5; j++ {
			m.step()
		}
		w.Refresh(inst)
		if d := analysisDiff(an, &frozen); d != "" {
			t.Fatalf("round %d: a later Refresh changed an analysis Resolve had handed out: %s", i, d)
		}
		if now := w.entry(p.Key()).an; len(now.Nonupdatable) != len(frozen.Nonupdatable) {
			moved++
		}
	}
	if moved < 5 {
		t.Fatalf("the mutations changed the nonupdatable set in %d rounds of 30: the test shows little", moved)
	}
}

// ---- Footprint and cost ----------------------------------------------------

// summaryBytes is what one process's page summaries retain: the structs,
// their address lists, and the map that holds them (at a generous 48 bytes
// an entry). The two count maps are not page state: they hold one entry per
// key of the published Analysis.Nonupdatable.
func summaryBytes(st *procAnalysis) uintptr {
	n := uintptr(len(st.pages)) * 48
	for _, s := range st.pages {
		n += unsafe.Sizeof(*s) + uintptr(cap(s.refs))*unsafe.Sizeof(mem.Addr(0))
	}
	return n
}

// TestSummaryFootprintPerResidentPage bounds what the incremental analysis
// keeps per resident page on a heap of 35 000 small objects: typed list
// nodes allocated in order (precise pointers with the locality an
// allocator gives them) and, every few nodes, an opaque buffer holding a
// likely pointer. The daemon keeps this for every process of a fork-heavy
// server, so it has to stay a small fraction of the pages it describes.
func TestSummaryFootprintPerResidentPage(t *testing.T) {
	p := startScanFixture(t)
	as, ix := p.Space(), p.Index()
	node := scanFixtureTypes()[0]
	const objects = 35000
	rnd := rand.New(rand.NewSource(1))
	var addrs []mem.Addr
	cursor := scanFixtureBase
	for i := 0; i < objects; i++ {
		o := &mem.Object{Addr: cursor, Size: node.Size, Type: node, Kind: mem.ObjHeap, Site: uint64(1 + i)}
		if i%8 == 7 {
			o.Type, o.Size = nil, 64
		}
		if err := ix.Insert(o); err != nil {
			t.Fatal(err)
		}
		addrs = append(addrs, o.Addr)
		cursor = o.End()
		if i == 0 {
			continue
		}
		near := addrs[max(0, i-1-rnd.Intn(32))] // a neighbour in allocation order
		if o.Type != nil {
			err := as.WriteAt(o.Addr+8, le64(uint64(addrs[i-1]))) // next
			if err == nil {
				err = as.WriteAt(o.Addr+16, le64(uint64(near))) // any
			}
			if err != nil {
				t.Fatal(err)
			}
		} else if err := as.WriteAt(o.Addr+8, le64(uint64(near)+8)); err != nil {
			t.Fatal(err)
		}
	}
	var st procAnalysis
	scanned, _, _, err := st.step(p, types.DefaultPolicy(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.stats.Precise.Ptr < objects || st.stats.Likely.Ptr < objects/10 {
		t.Fatalf("fixture has too few pointers: %+v", st.stats)
	}
	resident := int(as.RSSBytes() / mem.PageSize)
	perPage := int(summaryBytes(&st)) / resident
	t.Logf("%d objects on %d resident pages (%d scanned): %d summaries, %d B retained per resident page",
		objects, resident, scanned, len(st.pages), perPage)
	if perPage > 512 {
		t.Errorf("page summaries retain %d B per resident page, want <= 512 (an eighth of the page)", perPage)
	}
	if n := len(st.holds) + len(st.pins); n > len(st.an.Nonupdatable)+len(st.an.Immutable) {
		t.Errorf("%d counted objects for %d nonupdatable ones", n, len(st.an.Nonupdatable))
	}

	// The daemon steps such a process every few milliseconds while it
	// allocates and frees. Each step needs the current object list, and must
	// not allocate one: at 8 bytes an object that is 70 resident pages' worth
	// of garbage a step, which a pass rate the old whole-process analysis
	// never reached turns into the heap's main churn (and the benchmark's
	// peak RSS). The list is merged into a buffer the analysis keeps.
	extra := &mem.Object{Addr: cursor + 64, Size: 64, Kind: mem.ObjHeap, Site: objects + 1}
	churn := func() {
		if err := ix.Insert(extra); err != nil {
			t.Fatal(err)
		}
		if n, _, _, err := st.step(p, types.DefaultPolicy(), nil); err != nil || n == 0 {
			t.Fatalf("step after an allocation scanned %d pages, err %v", n, err)
		}
		ix.Remove(extra.Addr)
		if _, _, _, err := st.step(p, types.DefaultPolicy(), nil); err != nil {
			t.Fatal(err)
		}
	}
	churn() // both buffers grown
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	const rounds = 10
	for i := 0; i < rounds; i++ {
		churn()
	}
	runtime.ReadMemStats(&after)
	perStep := (after.TotalAlloc - before.TotalAlloc) / (2 * rounds)
	t.Logf("%d B allocated per step over a moved index of %d objects", perStep, len(st.objs))
	if perStep > 8*objects/8 {
		t.Errorf("a step over a moved index allocates %d B: an object list is %d B", perStep, 8*objects)
	}
}

// BenchmarkAnalyzeIncremental is the step the update engine runs in-window
// and the daemon runs every pass: one page of N stored into since the last
// step, by heap size. ns/op must not grow with N beyond the page listing.
func BenchmarkAnalyzeIncremental(b *testing.B) {
	for _, size := range []int{256 << 10, scanBigMax} {
		b.Run(fmt.Sprintf("pages=%d/dirty=1", size/mem.PageSize), func(b *testing.B) {
			p := oneBigObject(b, size, scanFills[2].fill)
			var st procAnalysis
			if _, _, _, err := st.step(p, types.DefaultPolicy(), nil); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				at := scanBigBase + mem.Addr(i%(size/mem.PageSize))*mem.PageSize + 64
				if err := p.Space().WriteWord(at, uint64(scanFixtureBase)+8*uint64(i%scanTargets)); err != nil {
					b.Fatal(err)
				}
				if n, _, _, err := st.step(p, types.DefaultPolicy(), nil); err != nil || n != 1 {
					b.Fatalf("scanned %d pages, err %v", n, err)
				}
			}
		})
	}
}
