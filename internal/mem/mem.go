// Package mem implements the simulated virtual memory substrate MCR runs
// on. The paper's implementation manipulates a real Linux process image:
// ptmalloc heaps, the static data segment, shared-library mappings,
// MAP_FIXED remapping, and kernel soft-dirty page bits. A Go process cannot
// expose its own memory that way, so — per the reproduction's substitution
// rule — this package provides an address space with the same observable
// semantics: sparse 4 KiB pages, byte-addressable loads/stores with real
// 64-bit pointer values, region bookkeeping (static/heap/stack/lib/mmap),
// fixed-address mapping, and per-page soft-dirty bits that behave exactly
// like /proc/pid/clear_refs + pagemap on Linux ≥3.11.
package mem

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
)

// Addr is a virtual address in the simulated address space.
type Addr uint64

// Page geometry of the simulated MMU.
const (
	PageShift = 12
	PageSize  = 1 << PageShift
	pageMask  = PageSize - 1
)

// Sentinel errors for address-space operations.
var (
	ErrUnmapped = errors.New("mem: access to unmapped address")
	ErrOverlap  = errors.New("mem: mapping overlaps an existing region")
	ErrNoRegion = errors.New("mem: no such region")
)

// RegionKind classifies an address-space region, mirroring the memory
// classes Table 2 of the paper reports (Static / Dynamic / Lib).
type RegionKind uint8

// Region kinds.
const (
	RegionStatic RegionKind = iota // data segment: globals, strings
	RegionHeap                     // allocator-managed heap
	RegionStack                    // per-thread stacks (metadata overlays)
	RegionLib                      // shared-library images
	RegionMmap                     // anonymous/file mappings
)

var regionKindNames = [...]string{"static", "heap", "stack", "lib", "mmap"}

func (k RegionKind) String() string {
	if int(k) < len(regionKindNames) {
		return regionKindNames[k]
	}
	return fmt.Sprintf("region(%d)", uint8(k))
}

// Region is a contiguous mapped range of the address space.
type Region struct {
	Start Addr
	Size  uint64
	Kind  RegionKind
	Name  string
}

// End returns the first address past the region.
func (r Region) End() Addr { return r.Start + Addr(r.Size) }

// Contains reports whether addr falls inside the region.
func (r Region) Contains(addr Addr) bool { return addr >= r.Start && addr < r.End() }

type page struct {
	data      [PageSize]byte
	softDirty bool
	// detached marks a frame no address space holds: DonatePage hands one
	// out, installing it clears the mark, and only a detached frame can be
	// installed — one frame is never resident twice.
	detached bool
	// stamp is the owning space's mutations value at the last store into
	// the frame, or at its installation: what StoredSince compares. Unlike
	// the soft-dirty bits nobody clears it, so any number of readers can
	// each ask "what changed since I last looked" without disturbing the
	// checkpoint's dirty tracking. (The struct stays in the allocator's
	// 4864-byte size class: the stamp costs no memory.) Every stamp goes
	// through stampLocked, which keeps the store journal.
	stamp uint64
}

// AddressSpace is one process's simulated virtual memory. The zero value is
// not usable; call NewAddressSpace.
type AddressSpace struct {
	mu      sync.RWMutex
	pages   map[Addr]*page // keyed by page base address
	regions []Region       // sorted by Start
	// mutations counts every operation that can change what a reader
	// observes: data stores and region mapping changes. Soft-dirty bit
	// operations deliberately do not count — they alter tracking state,
	// not contents — so clearing bits does not invalidate a concurrently
	// captured speculative analysis.
	mutations uint64
	// reshaped is the mutations value at the last change to the *shape* of
	// the space: a region mapped or unmapped, or a resident frame taken
	// away (donated, or restored to absence). Such a change leaves no page
	// behind to carry a stamp, so StoredSince reports it separately.
	// Growth is not one: the grown part holds no resident page, and the
	// first store into it stamps the page it lands on. A reader that
	// filters by the mapped span follows growth itself.
	reshaped uint64
	// stored is the store journal, the write barrier's remembered set: the
	// bases of the pages stamped since the last StoredSince listing, which
	// answered as of generation listed. A page is journaled at its first
	// stamp past listed; an installed frame at every installation, since
	// the stamp it arrives with is another space's count. It is kept only
	// while journaling is set: from the first listing until it would
	// outgrow the resident page count (a walk of the page map then costs no
	// more than reading it), and never in a fresh Clone.
	stored     []Addr
	listed     uint64
	journaling bool
}

// NewAddressSpace returns an empty address space with no mappings.
func NewAddressSpace() *AddressSpace {
	return &AddressSpace{pages: make(map[Addr]*page)}
}

// Map establishes a region. Fixed-address semantics: the exact range is
// honored (MAP_FIXED), and overlap with an existing region is an error —
// MCR only ever remaps into known-free ranges.
func (as *AddressSpace) Map(start Addr, size uint64, kind RegionKind, name string) error {
	if size == 0 {
		return fmt.Errorf("mem: Map %q: zero size", name)
	}
	as.mu.Lock()
	defer as.mu.Unlock()
	end := start + Addr(size)
	for _, r := range as.regions {
		if start < r.End() && r.Start < end {
			return fmt.Errorf("mem: Map %q [%#x,%#x) vs %q [%#x,%#x): %w",
				name, start, end, r.Name, r.Start, r.End(), ErrOverlap)
		}
	}
	as.regions = append(as.regions, Region{Start: start, Size: size, Kind: kind, Name: name})
	sort.Slice(as.regions, func(i, j int) bool { return as.regions[i].Start < as.regions[j].Start })
	as.reshapeLocked()
	return nil
}

// Unmap removes the region starting exactly at start and drops its pages.
func (as *AddressSpace) Unmap(start Addr) error {
	as.mu.Lock()
	defer as.mu.Unlock()
	for i, r := range as.regions {
		if r.Start != start {
			continue
		}
		as.regions = append(as.regions[:i], as.regions[i+1:]...)
		for pb := PageBase(r.Start); pb < r.End(); pb += PageSize {
			delete(as.pages, pb)
		}
		as.reshapeLocked()
		return nil
	}
	return fmt.Errorf("mem: Unmap %#x: %w", start, ErrNoRegion)
}

// GrowRegion extends the named region by delta bytes (sbrk-style heap
// growth). The extension must not collide with the next region. It counts
// as a mutation, not as a reshape: no page appears or disappears.
func (as *AddressSpace) GrowRegion(name string, delta uint64) error {
	as.mu.Lock()
	defer as.mu.Unlock()
	for i := range as.regions {
		r := &as.regions[i]
		if r.Name != name {
			continue
		}
		newEnd := r.End() + Addr(delta)
		for j := range as.regions {
			if j != i && as.regions[j].Start >= r.Start && as.regions[j].Start < newEnd {
				return fmt.Errorf("mem: GrowRegion %q: %w", name, ErrOverlap)
			}
		}
		r.Size += delta
		as.mutations++
		return nil
	}
	return fmt.Errorf("mem: GrowRegion %q: %w", name, ErrNoRegion)
}

// RegionAt returns the region containing addr.
func (as *AddressSpace) RegionAt(addr Addr) (Region, bool) {
	as.mu.RLock()
	defer as.mu.RUnlock()
	return as.regionAtLocked(addr)
}

func (as *AddressSpace) regionAtLocked(addr Addr) (Region, bool) {
	i := sort.Search(len(as.regions), func(i int) bool { return as.regions[i].End() > addr })
	if i < len(as.regions) && as.regions[i].Contains(addr) {
		return as.regions[i], true
	}
	return Region{}, false
}

// Regions returns a snapshot of all mapped regions sorted by start address.
func (as *AddressSpace) Regions() []Region {
	as.mu.RLock()
	defer as.mu.RUnlock()
	out := make([]Region, len(as.regions))
	copy(out, as.regions)
	return out
}

// Mapped reports whether the whole range [addr, addr+size) is mapped.
func (as *AddressSpace) Mapped(addr Addr, size uint64) bool {
	as.mu.RLock()
	defer as.mu.RUnlock()
	for a := addr; a < addr+Addr(size); {
		r, ok := as.regionAtLocked(a)
		if !ok {
			return false
		}
		a = r.End()
	}
	return true
}

// reshapeLocked counts a mapping change: a mutation that also moves the
// reshaped mark. Caller holds the write lock.
func (as *AddressSpace) reshapeLocked() {
	as.mutations++
	as.reshaped = as.mutations
}

// PageBase returns the start of the page holding a.
func PageBase(a Addr) Addr { return a &^ Addr(pageMask) }

// WriteAt stores buf at addr, demand-allocating pages and setting their
// soft-dirty bits. Stores outside mapped regions fail like a segfault.
func (as *AddressSpace) WriteAt(addr Addr, buf []byte) error {
	if len(buf) == 0 {
		return nil
	}
	as.mu.Lock()
	defer as.mu.Unlock()
	if err := as.checkRangeLocked(addr, uint64(len(buf))); err != nil {
		return err
	}
	as.mutations++
	for off := 0; off < len(buf); {
		pb := PageBase(addr + Addr(off))
		p := as.pages[pb]
		if p == nil {
			p = &page{}
			as.pages[pb] = p
		}
		p.softDirty = true
		as.stampLocked(pb, p, false)
		po := int(addr+Addr(off)) & pageMask
		n := copy(p.data[po:], buf[off:])
		off += n
	}
	return nil
}

// ReadAt loads len(buf) bytes from addr. Reads of mapped-but-untouched
// pages return zeroes (demand-zero semantics).
func (as *AddressSpace) ReadAt(addr Addr, buf []byte) error {
	if len(buf) == 0 {
		return nil
	}
	as.mu.RLock()
	defer as.mu.RUnlock()
	if err := as.checkRangeLocked(addr, uint64(len(buf))); err != nil {
		return err
	}
	for off := 0; off < len(buf); {
		pb := PageBase(addr + Addr(off))
		po := int(addr+Addr(off)) & pageMask
		n := PageSize - po
		if rem := len(buf) - off; n > rem {
			n = rem
		}
		if p := as.pages[pb]; p != nil {
			copy(buf[off:off+n], p.data[po:po+n])
		} else {
			for i := off; i < off+n; i++ {
				buf[i] = 0
			}
		}
		off += n
	}
	return nil
}

func (as *AddressSpace) checkRangeLocked(addr Addr, size uint64) error {
	for a := addr; a < addr+Addr(size); {
		r, ok := as.regionAtLocked(a)
		if !ok {
			return fmt.Errorf("mem: [%#x,%#x): %w", addr, addr+Addr(size), ErrUnmapped)
		}
		a = r.End()
	}
	return nil
}

// WriteWord stores a 64-bit little-endian word (the pointer store
// primitive).
func (as *AddressSpace) WriteWord(addr Addr, v uint64) error {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	return as.WriteAt(addr, b[:])
}

// ReadWord loads a 64-bit little-endian word.
func (as *AddressSpace) ReadWord(addr Addr) (uint64, error) {
	var b [8]byte
	if err := as.ReadAt(addr, b[:]); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(b[:]), nil
}

// WriteUint32 stores a 32-bit little-endian value.
func (as *AddressSpace) WriteUint32(addr Addr, v uint32) error {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], v)
	return as.WriteAt(addr, b[:])
}

// ReadUint32 loads a 32-bit little-endian value.
func (as *AddressSpace) ReadUint32(addr Addr) (uint32, error) {
	var b [4]byte
	if err := as.ReadAt(addr, b[:]); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(b[:]), nil
}

// ClearSoftDirty clears every page's soft-dirty bit, the equivalent of
// writing "4" to /proc/pid/clear_refs. MCR calls this when program startup
// completes so that later writes identify post-startup ("dirty") state.
func (as *AddressSpace) ClearSoftDirty() {
	as.mu.Lock()
	defer as.mu.Unlock()
	for _, p := range as.pages {
		p.softDirty = false
	}
}

// ReadAndClearSoftDirty atomically collects the base addresses of all
// soft-dirty pages (ascending) and clears their bits — the pagemap scan +
// clear_refs write as one step. Under the address-space write lock, a
// concurrent store cannot fall between the read and the clear. The update
// never calls it: the dirty-since-startup set it reads at quiescence is
// SoftDirtyPages.
//
// Deprecated: kept only for the benchmark's mem.softdirty_scan_us row
// (bench/probe.go); it goes with that row.
func (as *AddressSpace) ReadAndClearSoftDirty() []Addr {
	as.mu.Lock()
	defer as.mu.Unlock()
	var out []Addr
	for pb, p := range as.pages {
		if p.softDirty {
			p.softDirty = false
			out = append(out, pb)
		}
	}
	slices.Sort(out)
	return out
}

// SoftDirtyCount returns the number of soft-dirty pages without
// materializing the page list. O(resident pages), but allocation- and
// sort-free.
func (as *AddressSpace) SoftDirtyCount() int {
	as.mu.RLock()
	defer as.mu.RUnlock()
	n := 0
	for _, p := range as.pages {
		if p.softDirty {
			n++
		}
	}
	return n
}

// Mutations returns the address space's write generation: a counter that
// advances on every data store and mapping change, and stays put across
// reads and soft-dirty bit operations. Two equal readings bracket a span
// in which nothing a reader could observe has changed — the delta query
// the update engine uses to validate an analysis captured speculatively
// while the program was still serving.
func (as *AddressSpace) Mutations() uint64 {
	as.mu.RLock()
	defer as.mu.RUnlock()
	return as.mutations
}

// stampLocked stamps p, resident at pb, as stored into now, and journals
// pb if this is the page's first stamp since the last listing or installed
// says p was just installed. Caller holds the write lock, has linked p at
// pb and has counted the mutation.
func (as *AddressSpace) stampLocked(pb Addr, p *page, installed bool) {
	if as.journaling && (installed || p.stamp <= as.listed) {
		if len(as.stored) < len(as.pages) {
			as.stored = append(as.stored, pb)
		} else {
			as.stored, as.journaling = nil, false // lapsed: the next listing walks
		}
	}
	p.stamp = as.mutations
}

// StoredSince is the delta query behind Mutations: it returns, ascending,
// the resident pages stored into or installed after the write generation
// epoch (an earlier Mutations reading; 0 lists every resident page), the
// generation now that the listing describes — the epoch to pass next time —
// and whether the space was reshaped since epoch: a region mapped or
// unmapped, or a resident frame taken away, which no surviving page can
// report. A grown region is not reported: nothing is resident in the grown
// part until a store stamps it. A store racing the call lands on one side
// of it: either its page is listed, or its stamp is past now and the next
// call lists it.
//
// An epoch at or past the last listing's now is answered from the store
// journal, in time proportional to the pages stored since; any other — the
// first listing, epoch 0, a second reader's, a listing in a fresh clone or
// after the journal lapsed — walks the page map, with the same answer.
// Every listing restarts the journal from now, so it takes the write lock.
// It leaves the soft-dirty bits alone.
func (as *AddressSpace) StoredSince(epoch uint64) (now uint64, pages []Addr, reshaped bool) {
	as.mu.Lock()
	if as.journaling && epoch >= as.listed {
		for _, pb := range as.stored {
			if p := as.pages[pb]; p != nil && p.stamp > epoch {
				pages = append(pages, pb)
			}
		}
	} else {
		for pb, p := range as.pages {
			if p.stamp > epoch {
				pages = append(pages, pb)
			}
		}
	}
	now, reshaped = as.mutations, as.reshaped > epoch
	as.stored, as.listed, as.journaling = as.stored[:0], now, true
	as.mu.Unlock()
	slices.Sort(pages)                          // a whole heap's worth on a walk: not under the lock
	return now, slices.Compact(pages), reshaped // a page gone and back, or installed twice, is journaled twice
}

// SoftDirtyPages returns the base addresses of all soft-dirty pages in
// ascending order, the equivalent of scanning pagemap bit 55.
func (as *AddressSpace) SoftDirtyPages() []Addr {
	as.mu.RLock()
	var out []Addr
	for pb, p := range as.pages {
		if p.softDirty {
			out = append(out, pb)
		}
	}
	as.mu.RUnlock()
	slices.Sort(out) // not under the lock, as in StoredSince
	return out
}

// SoftDirtyPagesOf returns, ascending, the soft-dirty pages that overlap
// any of objs (in any order): SoftDirtyPages filtered to the objects'
// pages, for a probe of each page they span — or, when they span more
// pages than are resident, for the one walk of the page map SoftDirtyPages
// makes. The pagemap analogue is reading the entries of the objects'
// ranges rather than of the whole address space.
func (as *AddressSpace) SoftDirtyPagesOf(objs []*Object) []Addr {
	var span uint64
	for _, o := range objs {
		span += uint64(o.End()-PageBase(o.Addr)+pageMask) >> PageShift
	}
	var out []Addr
	if span > as.RSSBytes()/PageSize {
		dirty := as.SoftDirtyPages()
		for _, o := range objs {
			i, _ := slices.BinarySearch(dirty, PageBase(o.Addr))
			for ; i < len(dirty) && dirty[i] < o.End(); i++ {
				out = append(out, dirty[i])
			}
		}
	} else {
		as.mu.RLock()
		for _, o := range objs {
			for pb := PageBase(o.Addr); pb < o.End(); pb += PageSize {
				if p := as.pages[pb]; p != nil && p.softDirty {
					out = append(out, pb)
				}
			}
		}
		as.mu.RUnlock()
	}
	slices.Sort(out)
	return slices.Compact(out) // objects sharing a page list it once each
}

// PageSoftDirty reports the soft-dirty bit of the page containing addr.
// Untouched pages are clean.
func (as *AddressSpace) PageSoftDirty(addr Addr) bool {
	as.mu.RLock()
	defer as.mu.RUnlock()
	p := as.pages[PageBase(addr)]
	return p != nil && p.softDirty
}

// RSSBytes returns the resident set size: bytes of pages actually touched.
// It backs the memory-usage experiment (§8, Memory usage).
func (as *AddressSpace) RSSBytes() uint64 {
	as.mu.RLock()
	defer as.mu.RUnlock()
	return uint64(len(as.pages)) * PageSize
}

// MappedBytes returns the total size of all mapped regions (virtual size).
func (as *AddressSpace) MappedBytes() uint64 {
	as.mu.RLock()
	defer as.mu.RUnlock()
	var total uint64
	for _, r := range as.regions {
		total += r.Size
	}
	return total
}
