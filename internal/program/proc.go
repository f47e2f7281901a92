package program

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/kernel"
	"repro/internal/mem"
	"repro/internal/replaylog"
	"repro/internal/types"
)

// Address-space geometry. The static region base is shared by every
// version (so immutable statics can be pinned at old addresses), with a
// per-version cursor shift modelling recompilation layout changes. The
// heap base is version-independent so immutable heap objects can be
// reallocated in place. Libraries are pre-linked at fixed addresses.
const (
	StaticBase  mem.Addr = 0x0060_0000
	StaticSize  uint64   = 8 << 20
	staticShift uint64   = 0x2_0000 // per-version cursor shift

	HeapBase mem.Addr = 0x2000_0000

	LibBase mem.Addr = 0x7f00_0000_0000
	LibSize uint64   = 16 << 20

	StackBase mem.Addr = 0x7ffd_0000_0000
	StackSize uint64   = 16 << 20
)

// Proc is a program-level process: a kernel process plus a simulated
// address space, heap allocator, object index, global table and startup
// log. Fork duplicates all of it.
type Proc struct {
	inst  *Instance
	key   ProcKey
	kproc *kernel.Proc

	as    *mem.AddressSpace
	index *mem.ObjectIndex
	heap  *mem.Allocator

	stackSeg *mem.Segment
	globals  map[string]*mem.Object

	log       *replaylog.Log
	inStartup atomic.Bool
	// startupDone is set once the memory half of completing startup has
	// run: the allocator out of startup mode, deferred frees flushed, the
	// soft-dirty bits cleared. A child inherits it with the memory it
	// describes. It is not inStartup: a session process a reinitialization
	// handler re-forks during the new version's startup records nothing,
	// yet its memory is still in startup until the instance completes it.
	startupDone atomic.Bool

	// mainClass is the thread class of the process's main thread ("main"
	// for roots, the fork class for children); reinitialization handlers
	// use it to respawn session processes with the right handler class.
	mainClass string

	mu      sync.Mutex
	forkSeq map[uint64]uint64 // fork-site call-stack ID -> ordinal

	threads int // live threads, guarded by inst.mu

	// Edge-triggered in-process wakeup (the pthread_cond_signal analog):
	// producers Notify after publishing work in simulated memory; CondQP
	// and IdleQP waiters wake on it.
	notifyMu sync.Mutex
	notifyCh chan struct{}

	runtimeMu sync.Mutex // see RuntimeLock
}

// RuntimeLock returns the process-wide mutex server code serializes its
// shared simulated-memory structures with (the pthread_mutex analog that
// pairs with Notify). It is pure runtime state: never transferred, fresh
// in a forked child, and it lives and dies with the Proc.
func (p *Proc) RuntimeLock() *sync.Mutex { return &p.runtimeMu }

// Notify wakes every CondQP and IdleQP waiter of this process (call after
// writing work or a state change into shared simulated memory, e.g.
// enqueueing a connection or setting a session's quit flag).
func (p *Proc) Notify() {
	p.notifyMu.Lock()
	ch := p.notifyCh
	p.notifyCh = nil
	p.notifyMu.Unlock()
	if ch != nil {
		close(ch)
	}
}

func (p *Proc) notifyChan() <-chan struct{} {
	p.notifyMu.Lock()
	defer p.notifyMu.Unlock()
	if p.notifyCh == nil {
		p.notifyCh = make(chan struct{})
	}
	return p.notifyCh
}

// newRootProc builds the root process: maps segments, lays out globals
// and libraries, creates the heap, seeds the startup log.
func (inst *Instance) newRootProc() (*Proc, error) {
	v := inst.version
	p := &Proc{
		inst:      inst,
		key:       RootKey,
		kproc:     inst.kern.NewProc(),
		as:        mem.NewAddressSpace(),
		index:     mem.NewObjectIndex(),
		globals:   make(map[string]*mem.Object),
		log:       replaylog.NewLog(),
		mainClass: "main",
		forkSeq:   make(map[uint64]uint64),
	}
	p.inStartup.Store(true)

	staticSeg, err := mem.NewSegment(p.as, p.index, StaticBase, StaticSize,
		mem.RegionStatic, mem.ObjStatic, "data")
	if err != nil {
		return nil, err
	}
	// Version-dependent layout shift: later releases lay their globals out
	// at different addresses, forcing state transfer to relocate objects.
	if v.Seq > 0 {
		shift := StaticBase + mem.Addr(uint64(v.Seq)*staticShift)
		if err := staticSeg.SetCursor(shift); err != nil {
			return nil, err
		}
	}
	// Pinned statics first (offline-relinked immutable objects).
	for _, g := range v.Globals {
		addr, pinned := inst.opts.PinnedStatics[g.Name]
		if !pinned {
			continue
		}
		t, err := p.globalType(g)
		if err != nil {
			return nil, err
		}
		o, err := staticSeg.PlaceAt(mem.Addr(addr), g.Name, t)
		if err != nil {
			return nil, fmt.Errorf("program: pin %q: %w", g.Name, err)
		}
		p.globals[g.Name] = o
	}
	for _, g := range v.Globals {
		if _, pinned := inst.opts.PinnedStatics[g.Name]; pinned {
			continue
		}
		var o *mem.Object
		if g.Type == "" {
			o, err = staticSeg.PlaceOpaque(g.Name, g.Size)
		} else {
			var t *types.Type
			t, err = p.globalType(g)
			if err == nil {
				o, err = staticSeg.Place(g.Name, t)
			}
		}
		if err != nil {
			return nil, fmt.Errorf("program: place %q: %w", g.Name, err)
		}
		p.globals[g.Name] = o
	}

	if len(v.Libs) > 0 {
		libSeg, err := mem.NewSegment(p.as, p.index, LibBase, LibSize,
			mem.RegionLib, mem.ObjLib, "libs")
		if err != nil {
			return nil, err
		}
		for _, lib := range v.Libs {
			if _, err := libSeg.PlaceOpaque(lib.Name+".state", lib.StateSize); err != nil {
				return nil, fmt.Errorf("program: lib %q: %w", lib.Name, err)
			}
		}
	}

	p.heap, err = mem.NewAllocator(p.as, p.index, HeapBase, "heap")
	if err != nil {
		return nil, err
	}
	p.heap.SetStartupMode(true)
	p.heap.SetDeferFree(true)
	p.heap.SetTagging(inst.opts.Instr >= InstrStatic)

	p.stackSeg, err = mem.NewSegment(p.as, p.index, StackBase, StackSize,
		mem.RegionStack, mem.ObjStack, "stacks")
	if err != nil {
		return nil, err
	}

	// Dynamic instrumentation preloads the MCR runtime (libmcr.so): a
	// per-process library image whose resident pages are a dominant part
	// of the paper's memory overhead. Mapped but not object-indexed: the
	// runtime's own state is never program state.
	if inst.opts.Instr >= InstrDynamic {
		const libmcrBase mem.Addr = 0x7f10_0000_0000
		const libmcrSize = 64 << 10
		if err := p.as.Map(libmcrBase, libmcrSize, mem.RegionLib, "libmcr.so"); err != nil {
			return nil, err
		}
		touched := make([]byte, 32<<10)
		for i := range touched {
			touched[i] = 0x90
		}
		if err := p.as.WriteAt(libmcrBase, touched); err != nil {
			return nil, err
		}
	}

	inst.addProc(p)
	return p, nil
}

func (p *Proc) globalType(g GlobalSpec) (*types.Type, error) {
	if g.Type == "" {
		return nil, nil
	}
	t, ok := p.inst.version.Types.Lookup(g.Type)
	if !ok {
		return nil, fmt.Errorf("program: global %q: unknown type %q", g.Name, g.Type)
	}
	return t, nil
}

// MainClass returns the thread class of the process's main thread.
func (p *Proc) MainClass() string { return p.mainClass }

// fork duplicates the process for a child with the given key.
func (p *Proc) fork(key ProcKey) (*Proc, error) {
	kchild, err := p.kproc.Fork()
	if err != nil {
		return nil, err
	}
	cas := p.as.Clone()
	cix := p.index.Clone()
	child := &Proc{
		inst:    p.inst,
		key:     key,
		kproc:   kchild,
		as:      cas,
		index:   cix,
		heap:    p.heap.CloneInto(cas, cix),
		globals: make(map[string]*mem.Object, len(p.globals)),
		log:     replaylog.NewLog(),
		forkSeq: make(map[uint64]uint64),
	}
	child.inStartup.Store(p.inStartup.Load())
	child.startupDone.Store(p.startupDone.Load())
	if !child.inStartup.Load() {
		child.log = nil // post-startup children record nothing
	}
	for name, o := range p.globals {
		co, ok := cix.At(o.Addr)
		if !ok {
			return nil, fmt.Errorf("program: fork lost global %q", name)
		}
		child.globals[name] = co
	}
	child.stackSeg = mem.NewSegmentView(cas, cix,
		p.stackSeg.Region(), p.stackSeg.Region().Start+mem.Addr(p.stackSeg.Used()), mem.ObjStack)
	p.inst.addProc(child)
	return child, nil
}

// completeStartup transitions the process out of its startup phase: it
// seals the startup log if the process still records one, and completes
// the memory half once.
func (p *Proc) completeStartup() {
	if p.inStartup.Swap(false) && p.log != nil {
		p.log.Seal()
	}
	if p.startupDone.Swap(true) {
		return
	}
	p.heap.SetStartupMode(false)
	// Separability: deferred frees stay queued; the engine flushes them
	// once control migration in a subsequent update no longer needs the
	// addresses, or immediately after startup for the running version.
	p.heap.SetDeferFree(false)
	if err := p.heap.FlushDeferred(); err != nil {
		p.inst.recordError(fmt.Errorf("program: flush deferred frees: %w", err))
	}
	// Page-align the heap frontier so post-startup allocations never
	// dirty a page shared with clean startup state (keeps the soft-dirty
	// filter effective at object granularity).
	p.heap.AlignBrk(mem.PageSize)
	p.as.ClearSoftDirty()
}

// Key returns the process's creation key.
func (p *Proc) Key() ProcKey { return p.key }

// Instance returns the owning instance.
func (p *Proc) Instance() *Instance { return p.inst }

// KProc returns the kernel process.
func (p *Proc) KProc() *kernel.Proc { return p.kproc }

// Space returns the process address space.
func (p *Proc) Space() *mem.AddressSpace { return p.as }

// Index returns the live-object index.
func (p *Proc) Index() *mem.ObjectIndex { return p.index }

// Heap returns the process heap allocator.
func (p *Proc) Heap() *mem.Allocator { return p.heap }

// Log returns the startup log (nil for post-startup children).
func (p *Proc) Log() *replaylog.Log { return p.log }

// Global returns the named global variable's object.
func (p *Proc) Global(name string) (*mem.Object, bool) {
	o, ok := p.globals[name]
	return o, ok
}

// MustGlobal is Global that panics on unknown names (server code uses it
// for its own declared globals; a miss is a programming error).
func (p *Proc) MustGlobal(name string) *mem.Object {
	o, ok := p.globals[name]
	if !ok {
		panic(fmt.Sprintf("program: unknown global %q in %s", name, p.inst.version))
	}
	return o
}

// Globals returns the global table (name -> object).
func (p *Proc) Globals() map[string]*mem.Object {
	out := make(map[string]*mem.Object, len(p.globals))
	for k, v := range p.globals {
		out[k] = v
	}
	return out
}

// nextForkSeq returns the ordinal for a fork from the given site.
func (p *Proc) nextForkSeq(site uint64) uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.forkSeq[site]++
	return p.forkSeq[site]
}

// noteForkSeq records that the ordinal seq for a fork site is taken
// (reconstruction under an explicit key), so later natural forks from the
// same site can never collide with a restored process key.
func (p *Proc) noteForkSeq(site, seq uint64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.forkSeq[site] < seq {
		p.forkSeq[site] = seq
	}
}
