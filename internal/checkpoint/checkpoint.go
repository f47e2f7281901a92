// Package checkpoint is the warm-standby daemon's shadow store: the layer
// between the memory substrate (internal/mem) and the transfer engine
// (internal/trace) that keeps per-process copies of recently written
// objects while the old version serves.
//
// Each epoch atomically reads-and-clears the soft-dirty page bits of every
// process, maps the dirty pages back to the objects overlapping them
// (mem.ObjectIndex's page buckets), and copies those objects into
// per-process shadow buffers keyed by object identity. The Daemon runs
// epochs between updates; nothing else in the engine does.
//
// At quiescence, the transfer phase consults the store through two
// queries: EverDirtyPages (the pages whose bits epochs consumed, so the
// dirty-object set stays identical to a run without shadows) and Shadow
// (the captured bytes of one object). An object whose pages carry no
// soft-dirty bit at transfer time was not written after the epoch that
// captured its shadow — the shadow is bit-identical to live memory and
// the copy can skip the locked read of the live address space.
//
// Consumed-bit accounting lives in the address space itself (a per-page
// "consumed" mark set by ReadAndClearSoftDirty): a fork clones it
// together with the data and the soft-dirty bits, so a child created
// between epochs stays exactly accountable with no extra bookkeeping
// here. Epochs are speculative: Discard hands every consumed bit back
// (rollback must leave a later update attempt with the full
// dirty-since-startup set).
package checkpoint

import (
	"sync"

	"repro/internal/faultinject"
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/program"
	"repro/internal/trace"
)

// Options configures a Snapshotter.
type Options struct {
	// Recorder, when set, receives one flight-recorder span per epoch
	// (dirty-page count attached) on the daemon track, where epochs nest
	// under the daemon's pass spans.
	Recorder *obs.Recorder
	// Faults consults the fault-injection plane at the epoch seam
	// (faultinject.PointEpochFail): a firing poisons the snapshotter
	// instead of producing a half-trusted epoch. nil never fires.
	Faults *faultinject.Plane
}

// EpochStats describes one epoch.
type EpochStats struct {
	DirtyPages int // soft-dirty pages consumed
}

// Snapshotter holds the shadows of one running (old-version) instance.
type Snapshotter struct {
	inst *program.Instance
	opts Options

	mu        sync.Mutex
	procs     map[program.ProcKey]*ProcShadow
	discarded bool
	err       error // poisoned: shadows cannot be trusted (failed epoch / shot daemon pass)
}

// New builds a snapshotter over the running instance. Epochs run when
// Epoch is called; the instance keeps serving throughout.
func New(inst *program.Instance, opts Options) *Snapshotter {
	return &Snapshotter{
		inst:  inst,
		opts:  opts,
		procs: make(map[program.ProcKey]*ProcShadow),
	}
}

// Epoch runs one epoch over every live process: read-and-clear its
// soft-dirty bits, then shadow the objects overlapping the dirty pages.
// Safe to call while the instance's threads run: bit reads/clears and
// object copies synchronize through each address space's lock.
func (s *Snapshotter) Epoch() EpochStats {
	sp := s.opts.Recorder.Span(obs.TrackDaemon, obs.PhaseEpoch)
	es := s.epoch()
	sp.EndArg("dirty_pages", int64(es.DirtyPages))
	return es
}

// epoch is the shared pass: consume every process's soft-dirty bits and
// shadow the objects on the consumed pages.
func (s *Snapshotter) epoch() EpochStats {
	es := EpochStats{}
	// Injected epoch failure: the pass dies before consuming anything,
	// and the snapshotter is poisoned — an epoch that failed partway
	// cannot vouch for which shadows are current, so the update that
	// adopts this checkpoint must abort rather than trust them.
	if err := s.opts.Faults.Check(faultinject.PointEpochFail); err != nil {
		s.fail(err)
		return es
	}
	for _, p := range s.inst.Procs() {
		pages := p.Space().ReadAndClearSoftDirty()
		if len(pages) == 0 {
			continue
		}
		ps := s.shadowOf(p)
		if ps == nil {
			// Discarded concurrently — after this epoch's read-and-clear,
			// so Discard's own restore pass ran too early to see these
			// bits. Hand them back here: anything Discard already
			// restored is no longer marked consumed, so this only
			// returns what this epoch just took.
			p.Space().RestoreSoftDirty()
			break
		}
		es.DirtyPages += len(pages)
		for _, o := range p.Index().OnPages(pages) {
			buf := make([]byte, o.Size)
			if err := p.Space().ReadAt(o.Addr, buf); err != nil {
				// Raced with an unmap: the object cannot be shadowed, and
				// its pages stay consumed, so the transfer will take the
				// live path for whatever lives there by then.
				continue
			}
			ps.put(o, buf)
		}
	}
	return es
}

// fail poisons the snapshotter: the first failure sticks.
func (s *Snapshotter) fail(err error) {
	s.mu.Lock()
	if s.err == nil {
		s.err = err
	}
	s.mu.Unlock()
}

// Err reports whether the snapshotter is poisoned — some epoch or daemon
// pass failed, so the shadow set's currency can no longer be vouched
// for. An engine adopting a poisoned checkpoint must roll back; Discard
// still restores every consumed bit as usual.
func (s *Snapshotter) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// ProcShadow returns the checkpoint state of the process with the given
// key, or nil if the instance has no such process (or the checkpoint was
// discarded). A process the epochs never shadowed still answers: its
// consumed-page set lives in its own address space (inherited through
// fork), and its shadow table is simply empty, so every dirty object
// takes the live path.
func (s *Snapshotter) ProcShadow(key program.ProcKey) *ProcShadow {
	p, ok := s.inst.ProcByKey(key)
	if !ok {
		return nil
	}
	return s.shadowOf(p)
}

// Shadows returns the resolver callers plug into trace.Options.Shadows.
// It exists so every caller gets the typed-nil guard right: ProcShadow
// returns a concrete *ProcShadow, and wrapping a nil one in the
// ShadowReader interface directly would make an unknown process look like
// it has a checkpoint.
func (s *Snapshotter) Shadows() func(program.ProcKey) trace.ShadowReader {
	return func(key program.ProcKey) trace.ShadowReader {
		if ps := s.ProcShadow(key); ps != nil {
			return ps
		}
		return nil
	}
}

func (s *Snapshotter) shadowOf(p *program.Proc) *ProcShadow {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.discarded {
		return nil
	}
	if ps, ok := s.procs[p.Key()]; ok {
		return ps
	}
	ps := &ProcShadow{
		space:   p.Space(),
		shadows: make(map[*mem.Object][]byte),
	}
	s.procs[p.Key()] = ps
	return ps
}

// Discard abandons the checkpoint: every consumed dirty bit is handed
// back to its process's address space (so a subsequent checkpoint-free
// transfer still sees the full dirty-since-startup set) and all shadow
// buffers are released. Called on rollback, and after commit for cleanup
// (restoring bits of a terminated instance is harmless).
func (s *Snapshotter) Discard() {
	s.mu.Lock()
	if s.discarded {
		s.mu.Unlock()
		return
	}
	s.discarded = true
	procs := s.procs
	s.procs = make(map[program.ProcKey]*ProcShadow)
	s.mu.Unlock()
	for _, ps := range procs {
		ps.drop()
	}
	// Restore via the live process list, not the shadow table: a child
	// forked after the last epoch carries inherited consumed bits even
	// though no ProcShadow was ever created for it.
	for _, p := range s.inst.Procs() {
		p.Space().RestoreSoftDirty()
	}
}

// Discarded reports whether Discard has run — i.e. whether every dirty
// bit this snapshotter consumed has been handed back. The engine's
// rollback tests use it to pin down that contract on the snapshotter an
// update adopted.
func (s *Snapshotter) Discarded() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.discarded
}

// ProcShadow holds one process's checkpoint state: its address space
// (which carries the consumed-page accounting) and the pre-copied
// contents of the objects that sat on dirty pages, keyed by object
// identity. It satisfies trace.ShadowReader.
type ProcShadow struct {
	space *mem.AddressSpace

	mu      sync.RWMutex
	shadows map[*mem.Object][]byte
}

func (ps *ProcShadow) put(o *mem.Object, buf []byte) {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	if ps.shadows != nil {
		ps.shadows[o] = buf
	}
}

func (ps *ProcShadow) drop() {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	ps.shadows = nil
}

// EverDirtyPages returns, in ascending order, every page whose soft-dirty
// bit an epoch read-and-cleared. The transfer unions these with the pages
// still dirty at quiescence to recover the exact dirty set a run without
// shadows would have seen.
func (ps *ProcShadow) EverDirtyPages() []mem.Addr {
	return ps.space.ConsumedDirtyPages()
}

// Shadow returns the pre-copied contents of o from its latest capture.
// The caller must verify currency (no soft-dirty bit on any of o's pages)
// before serving it in place of live memory.
func (ps *ProcShadow) Shadow(o *mem.Object) ([]byte, bool) {
	ps.mu.RLock()
	defer ps.mu.RUnlock()
	buf, ok := ps.shadows[o]
	return buf, ok
}

// Invalidate drops any shadow captured for o. The transfer calls it when
// o's page frames are adopted into the new address space: the shadow
// described frames this space no longer owns, and must never be served
// again. Nil-receiver safe.
func (ps *ProcShadow) Invalidate(o *mem.Object) {
	if ps == nil {
		return
	}
	ps.mu.Lock()
	defer ps.mu.Unlock()
	delete(ps.shadows, o)
}

// ShadowObjects returns the number of live shadow captures.
func (ps *ProcShadow) ShadowObjects() int {
	ps.mu.RLock()
	defer ps.mu.RUnlock()
	return len(ps.shadows)
}
