package trace

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	"repro/internal/mem"
	"repro/internal/program"
	"repro/internal/types"
)

// The conservative analysis of one process is the fold of per-page scan
// summaries, and bringing it up to date re-scans pages, not the process:
//
//   - a page stored into since the last step (mem.StoredSince: page stamps
//     against the epoch captured by that step, read from the space's store
//     journal when that step was its last listing, so they too cost what
//     changed), because its words changed;
//   - every page an inserted or removed object overlaps, because the
//     object's layout decides which of its words are traced — the index's
//     journal names them (mem.ObjectIndex.ChangesSince), and merged into
//     the step's own object list they cost what changed, not what lives;
//   - every page holding a traced word that points into such an object's
//     pages, because a word's resolution can only change when an object on
//     the page it points into changed — so each summary keeps the targets
//     its words found and the pages its other in-span words point into;
//   - the page before any of these when a traced word straddles the
//     boundary between the two: a word belongs to the page it starts on.
//
// Every other summary stands as it is. The cold analysis is the same step
// with every resident page to scan. A change to the shape of the address
// space (a mapping change, or a frame taken away) moves what "in span"
// means, or removes pages without a trace, and falls back to that; so does
// a process whose index changed more since the last step than its journal
// reaches back (lapsed), where the delta would cost a full step anyway. Heap
// growth does not: the span a heap's dangling words are kept within runs
// up to the next region (trackedSpans), so the object later allocated in
// the grown part re-scans the pages that point at it like any other. An
// object outside that span — in the grown part of another region — falls
// back as a mapping change.

// regionClass maps an object kind to the memory class Table 2 reports:
// static (globals and stack variables), dynamic, lib.
var regionClass = [...]uint8{mem.ObjStatic: 0, mem.ObjStack: 0, mem.ObjHeap: 1, mem.ObjMmap: 1, mem.ObjLib: 2}

// census counts one page's pointers of one sort by [source][target] class:
// a RegionBreakdown in a sixth of the bytes (a page holds at most 513 traced
// words), and exactly subtractable.
type census [3][3]uint16

// fold adds (sign +1) or subtracts (sign -1) a page's census.
func (b *RegionBreakdown) fold(c *census, sign int) {
	src := [3]*int{&b.SrcStatic, &b.SrcDynamic, &b.SrcLib}
	targ := [3]*int{&b.TargStatic, &b.TargDynamic, &b.TargLib}
	for s := range c {
		for t, n := range c[s] {
			d := sign * int(n)
			b.Ptr += d
			*src[s] += d
			*targ[t] += d
		}
	}
}

// pageSummary is what the scan of one page found, in the form the process
// analysis folds and unfolds: the two census contributions and three
// address lists. It names objects by start address, never by pointer, so it
// outlives the object list it was resolved against and pins no freed
// object.
type pageSummary struct {
	precise, likely census
	// refs is three ascending, duplicate-free lists back to back in one
	// allocation: the objects that hold a likely pointer on this page, the
	// objects a likely pointer on this page points into, and the pages the
	// page's other in-span traced words point into — precise pointers
	// (the page their target starts on) and words that found no target
	// (the page they name). The second and third together are the page's
	// side of "who must be re-scanned when this object comes or goes".
	refs        []mem.Addr
	nHold, nPin uint16
}

func (s *pageSummary) holders() []mem.Addr     { return s.refs[:s.nHold] }
func (s *pageSummary) pinned() []mem.Addr      { return s.refs[s.nHold:][:s.nPin] }
func (s *pageSummary) targetPages() []mem.Addr { return s.refs[s.nHold:][s.nPin:] }

// touches reports whether the resolution of any word on the page may have
// changed with the insertion or removal of the delta objects (ascending by
// address).
func (s *pageSummary) touches(delta []*mem.Object) bool {
	pins, i := s.pinned(), 0
	for _, x := range delta {
		for i < len(pins) && pins[i] < x.Addr {
			i++
		}
		if i < len(pins) && pins[i] == x.Addr {
			return true
		}
	}
	tps, i := s.targetPages(), 0
	for _, x := range delta {
		for lo := mem.PageBase(x.Addr); i < len(tps) && tps[i] < lo; {
			i++
		}
		if i < len(tps) && tps[i] < x.End() {
			return true
		}
	}
	return false
}

// procAnalysis is the incremental analysis of one process: the summaries,
// their fold, and what the fold was computed against. Not safe for
// concurrent use.
type procAnalysis struct {
	objs  []*mem.Object // the live objects the summaries resolve against, by address
	gen   uint64        // Index().Gen() as of objs
	spans []mem.Region  // the span dangling words are kept within (trackedSpans), as of the last full step
	epoch uint64        // Mutations as of the last step's page listing
	pages map[mem.Addr]*pageSummary
	// bufs are objs and its predecessor, by turns: a step that finds the
	// index moved merges the changes since gen (mem.ObjectIndex.
	// ChangesSince) into the buffer objs is not in, so following a process
	// that keeps allocating allocates nothing once they have grown. A full
	// step takes the index's shared snapshot as objs, in neither buffer.
	bufs [2][]*mem.Object
	cur  int // the buffer the last merge wrote
	// changes and delta are the buffers of the last merge's input and
	// output (catchUp).
	changes []mem.Change
	delta   []*mem.Object
	// look is the resolver's page table over objs, kept across steps and
	// advanced with every rebuild of the list (pageTable).
	look pageTable
	// holds and pins count, per object, the pages on which it holds a
	// likely pointer and the pages holding one into it: an object is
	// immutable while pins has it, nonupdatable while either does.
	holds, pins map[mem.Addr]int32
	stats       PointerStats
	// changed: the key sets of holds/pins, or an object behind a key of
	// pins, moved since an was built.
	changed bool
	// an is the published fold. It is never written after publication: a
	// step that changes the result builds a new one (sharing the maps when
	// only the census moved), so a caller may keep what it was handed.
	an *Analysis
}

// fullCause says why a step scanned every resident page (notFull: it did
// not).
type fullCause uint8

const (
	notFull        fullCause = iota
	fullNew                  // nothing to step from
	fullRemapped             // a region mapped or unmapped, or an object outside the tracked span
	fullFrameTaken           // a resident frame taken away
	fullLapsed               // the index's journal no longer reaches the last step
)

// trackedSpans turns a space's regions (a fresh copy, sorted by start) into
// the span its dangling words are kept within: each region, a heap region
// extended over the gap above it up to the next one — the room it grows
// into.
func trackedSpans(regions []mem.Region) []mem.Region {
	for i := range regions[:max(len(regions)-1, 0)] {
		if r := &regions[i]; r.Kind == mem.RegionHeap {
			r.Size = uint64(regions[i+1].Start - r.Start)
		}
	}
	return regions
}

// step brings the analysis up to date with p and returns how many pages it
// scanned, how many summaries stood as they were, and why it scanned every
// page if it did. After an error the state is partial and must be
// discarded.
func (st *procAnalysis) step(p *program.Proc, pol types.Policy, libs map[string]bool) (scanned, kept int, full fullCause, err error) {
	as, ix := p.Space(), p.Index()
	// Every capture is of one instant or precedes what it vouches for — the
	// object list comes with its generation, the page listing is the epoch —
	// so whatever races this step is seen, again, by the next one, never
	// missed.
	objs, gen, cur := st.objs, st.gen, st.cur
	var delta []*mem.Object
	switch {
	case st.pages == nil:
		full = fullNew
	case ix.Gen() != gen:
		var ok bool
		if objs, delta, gen, ok = st.catchUp(ix); !ok {
			full = fullLapsed
		} else {
			cur ^= 1
			st.look.advance()
		}
	}
	var (
		now  uint64
		todo []mem.Addr
	)
	if full == notFull {
		var reshaped bool
		now, todo, reshaped = as.StoredSince(st.epoch)
		// A mapping change moves the tracked span; a frame taken away
		// leaves it as it was.
		switch {
		case reshaped && slices.Equal(trackedSpans(as.Regions()), st.spans):
			full = fullFrameTaken
		case reshaped || !st.inSpan(delta):
			full = fullRemapped
		}
	}
	if full != notFull {
		*st = procAnalysis{
			bufs:    st.bufs,
			changes: st.changes,
			delta:   st.delta,
			look:    st.look,
			pages:   make(map[mem.Addr]*pageSummary),
			holds:   make(map[mem.Addr]int32),
			pins:    make(map[mem.Addr]int32),
		}
		objs, gen = ix.Snapshot()
		st.look.advance()
		now, todo, _ = as.StoredSince(0)
		st.look.reserve(len(todo))
		st.spans = trackedSpans(as.Regions()) // after the listing: a later mapping change shows as reshaped
		delta = nil
	}
	if len(delta) > 0 {
		for _, x := range delta {
			for pb := mem.PageBase(x.Addr); pb < x.End(); pb += mem.PageSize {
				todo = append(todo, pb)
			}
		}
		for pb, s := range st.pages {
			if s.touches(delta) {
				todo = append(todo, pb)
			}
		}
		slices.Sort(todo)
		todo = slices.Compact(todo)
	}
	sc := newPageScanner(as, objs, &st.look, pol, libs, st.spans)
	todo = sc.withStraddled(todo)
	kept = len(st.pages)
	for i := 0; i < len(todo); {
		j := i + 1
		for j < len(todo) && todo[j] == todo[j-1]+mem.PageSize {
			j++
		}
		sums, err := sc.scanRun(todo[i], j-i)
		if err != nil {
			return 0, 0, full, err
		}
		for k, s := range sums {
			// New before old, so an object both sides name never passes
			// through zero and the key sets read as unchanged.
			pb := todo[i+k]
			old := st.pages[pb]
			st.fold(s, +1)
			st.fold(old, -1)
			if old != nil {
				kept--
			}
			if s != nil {
				st.pages[pb] = s
			} else if old != nil {
				delete(st.pages, pb)
			}
		}
		i = j
	}
	for _, x := range delta {
		if _, pinned := st.pins[x.Addr]; pinned {
			st.changed = true // the key stayed; the object behind it may not have
		}
	}
	st.objs, st.cur, st.gen, st.epoch = objs, cur, gen, now
	st.publish()
	return len(todo), kept, full, nil
}

// catchUp takes the index's changes since the list the summaries were
// resolved against and merges them into the buffer that list is not in. It
// returns the current list, the objects removed and inserted between the
// two (ascending) and the generation the list describes; ok is false when
// the index's journal no longer reaches the list's generation. It changes
// nothing the step commits: objs, cur and gen stay as they were.
func (st *procAnalysis) catchUp(ix *mem.ObjectIndex) (objs, delta []*mem.Object, gen uint64, ok bool) {
	st.changes, gen, ok = ix.ChangesSince(st.gen, st.changes[:0])
	if !ok {
		return nil, nil, gen, false
	}
	next := st.cur ^ 1
	st.bufs[next], st.delta = mem.MergeChanges(st.bufs[next][:0], st.delta[:0], st.objs, st.changes)
	return st.bufs[next], st.delta, gen, true
}

// inSpan reports whether every object of delta lies within the span the
// summaries keep dangling words within: one outside it cannot be followed
// page by page.
func (st *procAnalysis) inSpan(delta []*mem.Object) bool {
	for _, x := range delta {
		if x.Size > 0 && !(within(st.spans, x.Addr) && within(st.spans, x.End()-1)) {
			return false
		}
	}
	return true
}

// within reports whether a lies in one of the regions (sorted by start).
func within(regions []mem.Region, a mem.Addr) bool {
	i := sort.Search(len(regions), func(i int) bool { return regions[i].End() > a })
	return i < len(regions) && regions[i].Start <= a
}

// fold adds (sign +1) or subtracts (sign -1) one page's summary.
func (st *procAnalysis) fold(s *pageSummary, sign int32) {
	if s == nil {
		return
	}
	st.stats.Precise.fold(&s.precise, int(sign))
	st.stats.Likely.fold(&s.likely, int(sign))
	count := func(m map[mem.Addr]int32, keys []mem.Addr) {
		for _, a := range keys {
			n := m[a] + sign
			if n == 0 {
				delete(m, a)
			} else {
				m[a] = n
			}
			if n == 0 || n == sign {
				st.changed = true // a key left, or arrived
			}
		}
	}
	count(st.holds, s.holders())
	count(st.pins, s.pinned())
}

// publish makes st.an the fold of the current summaries.
func (st *procAnalysis) publish() {
	switch {
	case st.an == nil || st.changed:
		an := &Analysis{
			Immutable:    make(map[mem.Addr]*mem.Object, len(st.pins)),
			Nonupdatable: make(map[mem.Addr]bool, len(st.pins)+len(st.holds)),
			Stats:        st.stats,
		}
		for a := range st.pins {
			i, _ := slices.BinarySearchFunc(st.objs, a, func(o *mem.Object, a mem.Addr) int { return cmp.Compare(o.Addr, a) })
			an.Immutable[a] = st.objs[i]
			an.Nonupdatable[a] = true
		}
		for a := range st.holds {
			an.Nonupdatable[a] = true
		}
		st.an, st.changed = an, false
	case st.an.Stats != st.stats:
		st.an = &Analysis{Immutable: st.an.Immutable, Nonupdatable: st.an.Nonupdatable, Stats: st.stats}
	}
}

// pageScanner scans pages of one process against one object list, a run of
// consecutive pages at a time. Runs must be scanned in ascending order.
type pageScanner struct {
	r     *resolver
	as    *mem.AddressSpace
	libs  map[string]bool
	spans []mem.Region // trackedSpans: where a word that resolves to nothing is kept
	next  int          // r.objs[:next] end at or before the start of the last run scanned

	// The run in progress: where it starts, and its pages' summaries so far.
	lo  mem.Addr
	out []*pageSummary

	// The page in progress, and the callbacks that fill it (bound once).
	page                mem.Addr
	src                 *mem.Object // the object being scanned
	srcClass            uint8
	precise, likely     census
	holds, pins, tpages []mem.Addr
	onHits              func(precise, likely []int32)
	onMiss              func(w uint64)
	// recent remembers, by low bits, targets already in pins: most of a
	// page's likely pointers repeat a few targets, and the sort that makes
	// pins a set should see each about once. A collision only costs a
	// duplicate.
	recent [64]int32
	// span caches the last tracked span a miss fell into, gap the last
	// hole between spans one fell into.
	span          mem.Region
	gapLo, gapLen mem.Addr
}

func newPageScanner(as *mem.AddressSpace, objs []*mem.Object, look *pageTable, pol types.Policy, libs map[string]bool, spans []mem.Region) *pageScanner {
	sc := &pageScanner{r: newTableResolver(objs, pol, look), as: as, libs: libs, spans: spans}
	if n := len(spans); n > 0 {
		// A word that points nowhere today is remembered if an object
		// could ever be allocated under it: pre-filter by the tracked
		// span, not by the span of today's objects.
		sc.r.cover(spans[0].Start, spans[n-1].End())
	}
	for i := range sc.recent {
		sc.recent[i] = -1
	}
	// A fragment belongs to the page it lies on: the scan of an object that
	// spans several moves from page to page as its fragments arrive.
	sc.r.onFragment = func(base mem.Addr, data []byte) {
		sc.enter(mem.PageBase(base))
		sc.r.fragment(base, data)
	}
	// The census is the resolver's tally, folded per source object and
	// page (noteHolder); what is left per target is the page's lists.
	sc.onHits = func(precise, likely []int32) {
		objs := sc.r.objs
		for _, ti := range precise {
			sc.notePage(mem.PageBase(objs[ti].Addr))
		}
		for _, ti := range likely {
			if slot := &sc.recent[ti&63]; *slot != ti {
				*slot = ti
				sc.pins = append(sc.pins, objs[ti].Addr)
			}
		}
	}
	sc.onMiss = func(w uint64) {
		a := mem.Addr(w)
		if a-sc.gapLo < sc.gapLen {
			return // integers that look like addresses cluster: the same hole again
		}
		if !sc.span.Contains(a) {
			i := sort.Search(len(sc.spans), func(i int) bool { return sc.spans[i].End() > a })
			if i == len(sc.spans) {
				return
			}
			if next := sc.spans[i].Start; next > a {
				sc.gapLo = 0
				if i > 0 {
					sc.gapLo = sc.spans[i-1].End()
				}
				sc.gapLen = next - sc.gapLo
				return
			}
			sc.span = sc.spans[i]
		}
		sc.notePage(mem.PageBase(a))
	}
	return sc
}

func (sc *pageScanner) notePage(pb mem.Addr) {
	if n := len(sc.tpages); n == 0 || sc.tpages[n-1] != pb {
		sc.tpages = append(sc.tpages, pb)
	}
}

// scanned reports whether o's words are traced at all: library objects are
// only when listed (§6: "MCR does not conservatively analyze nor transfer
// shared library state by default").
func (sc *pageScanner) scanned(o *mem.Object) bool {
	return o.Kind != mem.ObjLib || sc.libs[o.Name]
}

// withStraddled adds, to an ascending page list, the page before each
// listed one wherever a traced word may start on the former and end on the
// latter: that word is the earlier page's, and its value just changed. The
// earlier page need not be resident — its absent half of the word reads as
// zero.
func (sc *pageScanner) withStraddled(pages []mem.Addr) []mem.Addr {
	var out []mem.Addr // built only once a page has to be added
	for i, pb := range pages {
		if i > 0 && pages[i-1] == pb-mem.PageSize {
			// already listed
		} else if ti := sc.r.containing(uint64(pb)); ti >= 0 {
			if o := sc.r.objs[ti]; o.Addr < pb && sc.scanned(o) && sc.r.mayCross(o) {
				if out == nil {
					out = append(make([]mem.Addr, 0, len(pages)+1), pages[:i]...)
				}
				out = append(out, pb-mem.PageSize)
			}
		}
		if out != nil {
			out = append(out, pb)
		}
	}
	if out == nil {
		return pages
	}
	return out
}

// scanRun scans every traced word that starts on one of the n consecutive
// pages from lo and returns the pages' summaries in order: nil for a page
// that holds nothing to remember. The slice is valid until the next call.
//
// The run is read object by object, each in one walk (mem.WalkResident: one
// hold of the read lock per 64 pages), not page by page: a scan of the whole
// heap takes the lock about once per object, as seldom as a scan that keeps
// no per-page account would, and the serving program's stores wait no more
// often for one than for the other.
func (sc *pageScanner) scanRun(lo mem.Addr, n int) ([]*pageSummary, error) {
	objs, hi := sc.r.objs, lo+mem.Addr(n)*mem.PageSize
	sc.lo, sc.page = lo, lo
	sc.out = append(sc.out[:0], make([]*pageSummary, n)...)
	// Disjoint and sorted by start, objs is sorted by end too.
	k, _ := slices.BinarySearchFunc(objs[sc.next:], lo+1, func(o *mem.Object, a mem.Addr) int { return cmp.Compare(o.End(), a) })
	sc.next += k
	for i := sc.next; i < len(objs) && objs[i].Addr < hi; i++ {
		o := objs[i]
		if !sc.scanned(o) {
			continue
		}
		sc.src, sc.srcClass = o, regionClass[o.Kind]
		from, to := max(o.Addr, lo), min(o.End(), hi)
		if !sc.r.mayCross(o) {
			if err := sc.scanSource(from, to); err != nil {
				return nil, err
			}
		} else {
			// A word cut by a page boundary is read after the walk that
			// passed it (scanRange): walk such an object a page at a time,
			// so that the word still finds the page it starts on open —
			// resident or not.
			for pb := mem.PageBase(from); pb < to; pb += mem.PageSize {
				sc.enter(pb)
				if err := sc.scanSource(max(from, pb), min(to, pb+mem.PageSize)); err != nil {
					return nil, err
				}
			}
		}
		sc.noteHolder()
	}
	sc.closePage()
	return sc.out, nil
}

func (sc *pageScanner) scanSource(from, to mem.Addr) error {
	if err := sc.r.scanRange(sc.as, sc.src, from, to, sc.onHits, sc.onMiss); err != nil {
		return fmt.Errorf("trace: scan %s: %w", sc.src, err)
	}
	return nil
}

// enter makes pb the page in progress, closing the one before it.
func (sc *pageScanner) enter(pb mem.Addr) {
	if pb != sc.page {
		sc.closePage()
		sc.page = pb
	}
}

// noteHolder folds the object being scanned into the page in progress: its
// pointers into the census, and the object into the holders if it was seen
// to hold a likely pointer there.
func (sc *pageScanner) noteHolder() {
	t := &sc.r.cur.tally
	precise, likely := t[0][0]|t[0][1]|t[0][2], t[1][0]|t[1][1]|t[1][2]
	if precise|likely == 0 {
		return // the common case, once per object: ORed, as an array compare calls memequal
	}
	for k, n := range t[0] {
		sc.precise[sc.srcClass][k] += n
	}
	for k, n := range t[1] {
		sc.likely[sc.srcClass][k] += n
	}
	if likely != 0 {
		sc.holds = append(sc.holds, sc.src.Addr)
	}
	*t = [2][3]uint16{}
}

// closePage files the summary of the page in progress and clears the slate
// for the next.
func (sc *pageScanner) closePage() {
	sc.noteHolder()
	if len(sc.pins)+len(sc.tpages) == 0 {
		return // no pointer found, and no word a later allocation could turn into one: nothing was noted
	}
	slices.Sort(sc.pins)
	sc.pins = slices.Compact(sc.pins)
	slices.Sort(sc.tpages)
	sc.tpages = slices.Compact(sc.tpages)
	s := &pageSummary{precise: sc.precise, likely: sc.likely, nHold: uint16(len(sc.holds)), nPin: uint16(len(sc.pins))}
	s.refs = make([]mem.Addr, 0, len(sc.holds)+len(sc.pins)+len(sc.tpages))
	s.refs = append(append(append(s.refs, sc.holds...), sc.pins...), sc.tpages...)
	sc.out[(sc.page-sc.lo)/mem.PageSize] = s
	sc.precise, sc.likely = census{}, census{}
	sc.holds, sc.pins, sc.tpages = sc.holds[:0], sc.pins[:0], sc.tpages[:0]
	for i := range sc.recent {
		sc.recent[i] = -1
	}
}
