package program

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/kernel"
	"repro/internal/quiesce"
)

// Instr selects the cumulative instrumentation level of an instance, the
// configurations Table 3 measures.
type Instr uint8

// Instrumentation levels (each includes the previous). Zero is "unset";
// NewInstance defaults it to InstrQDet.
const (
	// InstrBaseline: direct blocking calls, no metadata. Not live-updatable.
	InstrBaseline Instr = iota + 1
	// InstrUnblock: unblockified wrappers (blocking calls that wait on
	// their event or the barrier).
	InstrUnblock
	// InstrStatic: + in-band allocator tags and type metadata.
	InstrStatic
	// InstrDynamic: + shared-library allocation tracking and per-thread
	// overlay metadata.
	InstrDynamic
	// InstrQDet: + quiescence-detection hooks. Full MCR.
	InstrQDet
)

var instrNames = [...]string{"unset", "baseline", "unblock", "+sinstr", "+dinstr", "+qdet"}

func (i Instr) String() string {
	if int(i) < len(instrNames) {
		return instrNames[i]
	}
	return fmt.Sprintf("instr(%d)", uint8(i))
}

// Interceptor observes (and may take over) startup-time syscalls. The
// reinit package installs one on the new version to replay the old startup
// log; see Call for the contract.
type Interceptor interface {
	// Before runs prior to executing a startup syscall. Returning
	// skip=true suppresses execution; the interceptor must then have set
	// c.Result (and c.FDs/c.Pid as appropriate). Returning an error marks
	// a reinitialization conflict and aborts startup.
	Before(t *Thread, c *Call) (skip bool, err error)
}

// Options configures an Instance.
type Options struct {
	// Instr is the instrumentation level; NewInstance defaults it to
	// InstrQDet (full MCR).
	Instr Instr
	// Profiler, when set, receives quiescence-profiling samples.
	Profiler *quiesce.Profiler
	// Interceptor, when set, intercepts startup syscalls (replay).
	Interceptor Interceptor
	// OnProcCreated is invoked for every new Proc, including the root
	// (used by the engine to wire per-process replay state).
	OnProcCreated func(*Proc)
	// PinnedStatics forces named globals to exact addresses, implementing
	// the offline relinking step that keeps immutable static objects at
	// their old-version addresses (§6).
	PinnedStatics map[string]uint64
	// RegionInstrumented enables tag instrumentation inside custom
	// (region/slab) allocators — the paper's nginxreg configuration.
	RegionInstrumented bool
}

// Instance is a running program version.
type Instance struct {
	version *Version
	kern    *kernel.Kernel
	opts    Options
	barrier *quiesce.Barrier

	mu       sync.Mutex
	procs    map[ProcKey]*Proc
	procList []*Proc
	root     *Proc
	errs     []error

	threadSeq    atomic.Int64
	threads      map[int64]*Thread // live threads, guarded by mu
	wg           sync.WaitGroup
	stopping     atomic.Bool
	stop         chan struct{} // closed by Terminate
	startupEnded atomic.Bool
	started      atomic.Bool

	startupBegan time.Time
	startupTook  time.Duration
}

// NewInstance builds an instance of v on kernel k, creating (but not
// starting) the root process. The engine can therefore pre-reserve
// immutable objects in the root's heap before any program code runs.
func NewInstance(v *Version, k *kernel.Kernel, opts Options) (*Instance, error) {
	if err := v.Validate(); err != nil {
		return nil, err
	}
	if opts.Instr == 0 {
		opts.Instr = InstrQDet
	}
	inst := &Instance{
		version: v,
		kern:    k,
		opts:    opts,
		barrier: quiesce.NewBarrier(),
		stop:    make(chan struct{}),
		procs:   make(map[ProcKey]*Proc),
		threads: make(map[int64]*Thread),
	}
	root, err := inst.newRootProc()
	if err != nil {
		return nil, fmt.Errorf("program: root proc: %w", err)
	}
	inst.root = root
	return inst, nil
}

// Version returns the version description.
func (inst *Instance) Version() *Version { return inst.version }

// Kernel returns the shared kernel.
func (inst *Instance) Kernel() *kernel.Kernel { return inst.kern }

// Barrier returns the instance's quiescence barrier.
func (inst *Instance) Barrier() *quiesce.Barrier { return inst.barrier }

// Root returns the root process.
func (inst *Instance) Root() *Proc { return inst.root }

// Options returns the instance options.
func (inst *Instance) Options() Options { return inst.opts }

// Instr returns the instrumentation level.
func (inst *Instance) Instr() Instr { return inst.opts.Instr }

// Procs returns a snapshot of all live processes in creation order.
func (inst *Instance) Procs() []*Proc {
	inst.mu.Lock()
	defer inst.mu.Unlock()
	out := make([]*Proc, 0, len(inst.procList))
	for _, p := range inst.procList {
		if !p.kproc.Exited() {
			out = append(out, p)
		}
	}
	return out
}

// ProcByKey returns the live process with the given creation key.
func (inst *Instance) ProcByKey(key ProcKey) (*Proc, bool) {
	inst.mu.Lock()
	defer inst.mu.Unlock()
	p, ok := inst.procs[key]
	return p, ok
}

func (inst *Instance) addProc(p *Proc) {
	inst.mu.Lock()
	inst.procs[p.key] = p
	inst.procList = append(inst.procList, p)
	inst.mu.Unlock()
	if inst.opts.OnProcCreated != nil {
		inst.opts.OnProcCreated(p)
	}
}

// Fail records an error against the instance (used by the engine and
// reinitialization hooks to surface conflicts through WaitStartup).
func (inst *Instance) Fail(err error) { inst.recordError(err) }

func (inst *Instance) recordError(err error) {
	inst.mu.Lock()
	inst.errs = append(inst.errs, err)
	inst.mu.Unlock()
	// WaitStartup sleeps on the barrier and reads errs from under the
	// barrier's lock: wake it only after letting go of ours.
	inst.barrier.Wake()
}

// Errors returns all errors recorded by threads (startup failures, replay
// conflicts, handler errors).
func (inst *Instance) Errors() []error {
	inst.mu.Lock()
	defer inst.mu.Unlock()
	out := make([]error, len(inst.errs))
	copy(out, inst.errs)
	return out
}

// ConflictError returns the first recorded reinitialization conflict, or
// nil.
func (inst *Instance) ConflictError() error {
	for _, err := range inst.Errors() {
		if errors.Is(err, ErrConflict) {
			return err
		}
	}
	return nil
}

// Start launches the program: the barrier is armed first (the controller
// thread of §5, preventing the startup code from consuming external
// events), then Main runs on the root main thread. Startup is complete
// when the instance converges to its first quiescent state; use
// WaitStartup.
func (inst *Instance) Start() error {
	if inst.started.Swap(true) {
		return fmt.Errorf("program: instance %s already started", inst.version)
	}
	inst.startupBegan = time.Now()
	inst.barrier.Arm()
	main, err := inst.newThread(inst.root, "main", nil)
	if err != nil {
		return err
	}
	inst.startThread(main, inst.version.Main)
	return nil
}

// WaitStartup blocks until the program reaches its first quiescent state
// (every thread parked at a quiescent point) or fails. On success the
// instance is left quiescent; the caller decides when to Resume.
func (inst *Instance) WaitStartup(timeout time.Duration) error {
	_, err := inst.barrier.WaitQuiescedOr(timeout, inst.startupError)
	if errors.Is(err, quiesce.ErrQuiesceTimeout) {
		return fmt.Errorf("program: %s: %w", inst.version, err)
	}
	if err != nil {
		return err // a recorded error, verbatim
	}
	inst.startupTook = time.Since(inst.startupBegan)
	return nil
}

// startupError returns the error that fails startup: the first recorded
// reinitialization conflict, else the first recorded error of any kind.
func (inst *Instance) startupError() error {
	if err := inst.ConflictError(); err != nil {
		return err
	}
	if errs := inst.Errors(); len(errs) > 0 {
		return errs[0]
	}
	return nil
}

// CompleteStartup transitions every process out of the startup phase:
// startup logs are sealed, deferred frees remain deferred (separability
// holds until control migration completes), allocator startup flags drop,
// and — the key step for mutable tracing — all soft-dirty bits are
// cleared so that post-startup writes identify the dirty state.
func (inst *Instance) CompleteStartup() {
	inst.startupEnded.Store(true)
	for _, p := range inst.Procs() {
		p.completeStartup()
	}
}

// StartupDuration returns how long startup (to first quiescence) took.
func (inst *Instance) StartupDuration() time.Duration { return inst.startupTook }

// Resume releases the quiescence barrier: all parked threads continue.
func (inst *Instance) Resume() {
	inst.barrier.Release(quiesce.Resume)
}

// Quiesce arms the barrier and waits for every thread to park, returning
// the convergence time (the quiescence-time component of update time, §8).
func (inst *Instance) Quiesce(timeout time.Duration) (time.Duration, error) {
	inst.barrier.Arm()
	return inst.barrier.WaitQuiesced(timeout)
}

// Terminate shuts the instance down: parked threads receive Abort, threads
// blocked at a quiescent point wake and unwind, running threads observe
// the stopping flag at their next quiescent point, and all processes
// exit. Safe to call on a quiesced or running instance, and more than
// once.
func (inst *Instance) Terminate() {
	if !inst.stopping.Swap(true) {
		close(inst.stop)
	}
	inst.barrier.Release(quiesce.Abort)
	inst.wg.Wait()
	for _, p := range inst.Procs() {
		p.kproc.Exit()
	}
}

// Stopping reports whether Terminate has been requested.
func (inst *Instance) Stopping() bool { return inst.stopping.Load() }

// InStartupPhase reports whether the instance is still in its startup
// phase (before CompleteStartup).
func (inst *Instance) InStartupPhase() bool { return !inst.startupEnded.Load() }

// ThreadInfo describes one live thread for introspection and
// reinitialization handlers.
type ThreadInfo struct {
	Key   ProcKey
	Class string
	TID   int
	Note  any
}

// ThreadsInfo returns a snapshot of all live threads.
func (inst *Instance) ThreadsInfo() []ThreadInfo {
	inst.mu.Lock()
	defer inst.mu.Unlock()
	out := make([]ThreadInfo, 0, len(inst.threads))
	for _, th := range inst.threads {
		out = append(out, ThreadInfo{
			Key: th.proc.key, Class: th.class, TID: int(th.tid), Note: th.note,
		})
	}
	return out
}

// RunHandler runs fn synchronously on an ephemeral, non-barrier thread of
// the root process. Reinitialization handlers use it to fork session
// processes and spawn volatile threads; its syscalls are not recorded.
// The handler thread's own id is taken from a high range so it can never
// consume a pid the handler needs to pin for a restored process.
func (inst *Instance) RunHandler(fn func(*Thread) error) error {
	inst.root.kproc.PinNextPid(kernel.Pid(900000 + inst.threadSeq.Load() + 1))
	th, err := inst.newThread(inst.root, "mcr-handler", nil)
	if err != nil {
		return err
	}
	th.noRecord = true
	defer func() {
		for _, o := range th.stackVars {
			inst.root.index.Remove(o.Addr)
		}
	}()
	return fn(th)
}

// SpawnThreadIn starts a thread of the given class in an arbitrary
// process (reinitialization handlers restoring volatile threads inside
// recreated worker processes). Pin the tid on p.KProc() first if the old
// thread id must be restored.
func (inst *Instance) SpawnThreadIn(p *Proc, class string, fn func(*Thread) error) (int, error) {
	th, err := inst.newThread(p, class, nil)
	if err != nil {
		return 0, err
	}
	th.noRecord = true
	inst.startThread(th, fn)
	return int(th.tid), nil
}

// RSSBytes sums the resident set sizes of all processes (memory-usage
// experiment).
func (inst *Instance) RSSBytes() uint64 {
	var total uint64
	for _, p := range inst.Procs() {
		total += p.as.RSSBytes()
	}
	return total
}

// MetadataBytes sums instrumentation metadata across processes: in-band
// allocator tags, the out-of-band relocation/type tag tables (one entry
// per tracked object; the paper notes its tags are "extremely
// space-inefficient"), and the in-memory startup logs (memory-usage
// experiment).
func (inst *Instance) MetadataBytes() uint64 {
	const tagTableEntry = 96 // relocation + data-type tag record
	var total uint64
	for _, p := range inst.Procs() {
		total += p.heap.Stats().MetadataBytes
		total += uint64(p.index.Len()) * tagTableEntry
		if p.log != nil {
			total += p.log.SizeBytes()
		}
	}
	return total
}
