package mem

import (
	"fmt"
	"sync"

	"repro/internal/types"
)

// RegionAllocator models the custom region-based allocation schemes of the
// evaluated servers: nginx uses slabs and regions, Apache httpd uses nested
// regions (Berger et al. [14] in the paper). A region bump-allocates from
// large raw chunks and frees everything at once.
//
// Instrumentation is the key MCR trade-off (§8, Table 2/3): an
// *uninstrumented* region leaves one big untyped chunk that conservative
// tracing must scan for likely pointers — every pointed-into object gets
// pinned immutable. An *instrumented* region (the paper's nginxreg
// configuration) registers each sub-allocation with its type tag, enabling
// precise tracing at extra allocator cost.
type RegionAllocator struct {
	heap         *Allocator
	name         string
	instrumented bool
	chunkSize    uint64
	parent       *RegionAllocator // nested regions (httpd)

	// mu guards the mutable region state: httpd's pool threads carve
	// per-request subregions out of a shared per-worker root concurrently
	// (apr pools take a per-pool mutex for exactly this). Lock ordering is
	// strictly parent before child (Destroy recursion); children never
	// lock their parent.
	mu        sync.Mutex
	chunks    []regionChunk
	cursor    Addr
	curEnd    Addr
	subObjs   []*Object // instrumented mode only
	blobs     []*Object // uninstrumented mode: one opaque object per chunk
	children  []*RegionAllocator
	destroyed bool
}

type regionChunk struct {
	addr Addr
	size uint64
}

// NewRegionAllocator creates a region drawing chunks of chunkSize bytes
// from heap. If instrumented, sub-allocations are registered as typed
// objects; otherwise each chunk is tracked as a single opaque object.
func NewRegionAllocator(heap *Allocator, name string, chunkSize uint64, instrumented bool) *RegionAllocator {
	if chunkSize == 0 {
		chunkSize = 8192
	}
	return &RegionAllocator{
		heap:         heap,
		name:         name,
		instrumented: instrumented,
		chunkSize:    chunkSize,
	}
}

// NewSubRegion creates a child region (httpd's nested regions). Destroying
// the parent destroys all children.
func (r *RegionAllocator) NewSubRegion(name string) *RegionAllocator {
	child := NewRegionAllocator(r.heap, name, r.chunkSize, r.instrumented)
	child.parent = r
	r.mu.Lock()
	r.children = append(r.children, child)
	r.mu.Unlock()
	return child
}

// Alloc bump-allocates size bytes, 16-aligned. site is the allocation-site
// call-stack ID (meaningful only when instrumented).
func (r *RegionAllocator) Alloc(size uint64, t *types.Type, site uint64) (Addr, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.destroyed {
		return 0, fmt.Errorf("mem: region %q already destroyed", r.name)
	}
	need := (size + chunkAlign - 1) &^ uint64(chunkAlign-1)
	if r.cursor+Addr(need) > r.curEnd {
		cs := r.chunkSize
		if need > cs {
			cs = need
		}
		if err := r.grow(cs); err != nil {
			return 0, err
		}
	}
	addr := r.cursor
	r.cursor += Addr(need)
	if r.instrumented {
		r.heap.mu.Lock()
		r.heap.siteSeq[site]++
		seq := r.heap.siteSeq[site]
		r.heap.stats.MetadataBytes += chunkHeaderSize // tag table entry
		r.heap.mu.Unlock()
		o := &Object{Addr: addr, Size: size, Type: t, Site: site, Seq: seq,
			Startup: r.heap.startupMode(), Kind: ObjHeap}
		if err := r.heap.index.Insert(o); err != nil {
			return 0, err
		}
		r.subObjs = append(r.subObjs, o)
	}
	return addr, nil
}

func (r *RegionAllocator) grow(chunkSize uint64) error {
	addr, err := r.heap.AllocRaw(chunkSize)
	if err != nil {
		return fmt.Errorf("mem: region %q grow: %w", r.name, err)
	}
	r.chunks = append(r.chunks, regionChunk{addr: addr, size: chunkSize})
	r.cursor = addr
	r.curEnd = addr + Addr(chunkSize)
	if !r.instrumented {
		o := &Object{Addr: addr, Size: chunkSize, Kind: ObjHeap,
			Startup: r.heap.startupMode(),
			Name:    fmt.Sprintf("region:%s#%d", r.name, len(r.chunks))}
		if err := r.heap.index.Insert(o); err != nil {
			return err
		}
		r.blobs = append(r.blobs, o)
	}
	return nil
}

// Destroy releases all chunks of this region and its children.
func (r *RegionAllocator) Destroy() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.destroyed {
		return nil
	}
	r.destroyed = true
	for _, c := range r.children {
		if err := c.Destroy(); err != nil {
			return err
		}
	}
	for _, o := range r.subObjs {
		r.heap.index.Remove(o.Addr)
		r.heap.mu.Lock()
		r.heap.stats.MetadataBytes -= chunkHeaderSize
		r.heap.mu.Unlock()
	}
	r.subObjs = nil
	for _, o := range r.blobs {
		r.heap.index.Remove(o.Addr)
	}
	r.blobs = nil
	for _, c := range r.chunks {
		r.heap.FreeRaw(c.addr, c.size)
	}
	r.chunks = nil
	r.cursor, r.curEnd = 0, 0
	return nil
}

// BytesHeld returns the total chunk bytes currently held by the region.
func (r *RegionAllocator) BytesHeld() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	var total uint64
	for _, c := range r.chunks {
		total += c.size
	}
	for _, c := range r.children {
		total += c.BytesHeld()
	}
	return total
}

func (a *Allocator) startupMode() bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.startup
}

// SlabAllocator models nginx's slab allocator: fixed-size object classes
// carved from raw chunks. Like regions, it is uninstrumented by default.
type SlabAllocator struct {
	heap         *Allocator
	name         string
	objSize      uint64
	perSlab      uint64
	instrumented bool
	typ          *types.Type

	// mu guards the free list and slab bookkeeping (same exposure as the
	// region allocator: server threads may share one slab class).
	mu    sync.Mutex
	free  []Addr
	slabs []regionChunk
	blobs []*Object
	live  map[Addr]*Object
}

// NewSlabAllocator creates a slab class of objSize-byte objects.
func NewSlabAllocator(heap *Allocator, name string, objSize uint64, instrumented bool, t *types.Type) *SlabAllocator {
	if objSize < chunkAlign {
		objSize = chunkAlign
	}
	objSize = (objSize + chunkAlign - 1) &^ uint64(chunkAlign-1)
	return &SlabAllocator{
		heap:         heap,
		name:         name,
		objSize:      objSize,
		perSlab:      64,
		instrumented: instrumented,
		typ:          t,
		live:         make(map[Addr]*Object),
	}
}

// Alloc returns one object slot.
func (s *SlabAllocator) Alloc(site uint64) (Addr, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.free) == 0 {
		slabBytes := s.objSize * s.perSlab
		addr, err := s.heap.AllocRaw(slabBytes)
		if err != nil {
			return 0, fmt.Errorf("mem: slab %q grow: %w", s.name, err)
		}
		s.slabs = append(s.slabs, regionChunk{addr: addr, size: slabBytes})
		for i := uint64(0); i < s.perSlab; i++ {
			s.free = append(s.free, addr+Addr(i*s.objSize))
		}
		if !s.instrumented {
			o := &Object{Addr: addr, Size: slabBytes, Kind: ObjHeap,
				Startup: s.heap.startupMode(),
				Name:    fmt.Sprintf("slab:%s#%d", s.name, len(s.slabs))}
			if err := s.heap.index.Insert(o); err != nil {
				return 0, err
			}
			s.blobs = append(s.blobs, o)
		}
	}
	addr := s.free[len(s.free)-1]
	s.free = s.free[:len(s.free)-1]
	if s.instrumented {
		s.heap.mu.Lock()
		s.heap.siteSeq[site]++
		seq := s.heap.siteSeq[site]
		s.heap.stats.MetadataBytes += chunkHeaderSize
		s.heap.mu.Unlock()
		o := &Object{Addr: addr, Size: s.objSize, Type: s.typ, Site: site, Seq: seq,
			Startup: s.heap.startupMode(), Kind: ObjHeap}
		if err := s.heap.index.Insert(o); err != nil {
			return 0, err
		}
		s.live[addr] = o
	}
	return addr, nil
}

// Free returns a slot to the slab free list. This is the aggressive
// free-list reuse §6 warns about for liveness accuracy: the slot's stale
// contents remain in memory and are rescanned if the slab is opaque.
func (s *SlabAllocator) Free(addr Addr) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.instrumented {
		if _, ok := s.live[addr]; ok {
			s.heap.index.Remove(addr)
			delete(s.live, addr)
			s.heap.mu.Lock()
			s.heap.stats.MetadataBytes -= chunkHeaderSize
			s.heap.mu.Unlock()
		}
	}
	s.free = append(s.free, addr)
}
