// Package core is the MCR engine: it ties quiescence detection, mutable
// reinitialization and mutable tracing into the atomic three-phase live
// update of §3 — CHECKPOINT the running version, RESTART the new version
// from scratch under replay, REMAP the checkpointed state — with automatic
// rollback on any conflict or failure. It also hosts the mcr-ctl control
// surface.
package core

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/faultinject"
	"repro/internal/kernel"
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/program"
	"repro/internal/quiesce"
	"repro/internal/reinit"
	"repro/internal/replaylog"
	"repro/internal/trace"
	"repro/internal/types"
)

// Engine errors.
var (
	ErrNotRunning   = errors.New("core: no running instance")
	ErrUpdateFailed = errors.New("core: update failed and was rolled back")
)

// Options is what an engine is built with. Each field is earned by the
// test or bench row its comment names. The runtime modes are configured by
// the calls that arm them, not here: ArmWarm/SetWarmPacing for the warm
// daemon and SetPhaseDeadlines for the watchdog. Use DefaultOptions /
// AuditOptions as starting points.
type Options struct {
	// Instr is the instrumentation level for launched instances
	// (default InstrQDet; lower levels cannot live-update). Table 3.
	Instr program.Instr
	// RegionInstrumented enables custom-allocator instrumentation
	// (nginxreg). Table 3.
	RegionInstrumented bool
	// Profiler, when set, is attached to launched instances. Table 1.
	Profiler *quiesce.Profiler
	// ReplayStrategy selects the startup-log matching algorithm
	// (default call-stack IDs; global ordering for the ablation).
	// TestGlobalOrderStrategyOnDeterministicStartup, BenchmarkReplayMatching.
	ReplayStrategy replaylog.Strategy
	// DisableDirtyFilter transfers all state, ignoring soft-dirty bits.
	// Figure 3, TestDirtyFilterAblationViaEngine.
	DisableDirtyFilter bool
	// Sequential selects the strictly-ordered schedule of the update
	// lifecycle: every phase completes before the next begins (quiesce,
	// analysis, restart, discovery, transfer). The default (pipelined)
	// schedule takes the analysis and the old-side discovery off the
	// downtime window and must produce bit-identical results; the
	// sequential one is the oracle TestSchedulesEquivalentAndLedgerCloses
	// holds it to.
	Sequential bool
	// QuiesceTimeout bounds quiescence convergence (default 5s);
	// StartupTimeout bounds new-version startup (default 10s). The
	// experiment harnesses raise both to 30s.
	QuiesceTimeout time.Duration
	StartupTimeout time.Duration
	// Faults, when set, is the fault-injection plane every update-path
	// seam consults (see internal/faultinject). nil — the production
	// configuration — costs one pointer check per point.
	// TestFaultCampaignSmoke, mcr-ctl -fault.
	Faults *faultinject.Plane
	// Recorder, when set, is the flight recorder every subsystem emits
	// phase events into: engine phases on the engine track, the old-side
	// pipeline (discovery, copy) on the transfer track and warm-daemon
	// passes on the daemon track; callers may record tracks of their own
	// through Recorder(). A nil recorder costs one pointer check per
	// phase. The bench's traced pass, mcr-ctl -trace-out.
	Recorder *obs.Recorder
	// Adopt arms the zero-copy page-adoption fast path: old-instance
	// pages whose every object is provably bit-identical across the
	// update (layout-identical same-address pair needing no pointer
	// rewrite) are moved into the new address space as whole frames — the
	// simulated analogue of the paper's VMA remap — instead of copied
	// object by object. Results stay bit-identical with adoption on or
	// off, and rollback returns every donated frame. The nginx-adopt bench
	// row, TestAdoptDeterminism.
	Adopt bool
	// Audit arms both verifiers. The transfer's checksum: every byte
	// served from a warm daemon's shadow is cross-checked against the
	// quiesced live memory it stands in for, and Stats.Checksum digests
	// the full transferred stream (FNV-64a per object, combined
	// order-independently), adopted pages included — a stale shadow fails
	// the update instead of committing corrupt state. And the rollback
	// audit: the old instance's state digest is captured at quiescence and
	// recomputed just before it resumes from any rollback;
	// UpdateReport.RollbackVerified/RollbackIdentical report the
	// comparison. Costs one full-state digest per update and one extra
	// locked read per shadow-served object; meant for harnesses and
	// audits. The bit-identity oracles and the fault campaign.
	Audit bool

	// beforeQuiesce, when set, runs immediately before quiescence begins —
	// the last moment the old version's state can change. This package's
	// tests set it to land writes or calls there deterministically.
	beforeQuiesce func(old *program.Instance)
}

// DefaultOptions returns the recommended configuration: the pipelined
// engine with the zero-copy page-adoption fast path armed.
func DefaultOptions() Options {
	return Options{Adopt: true}
}

// AuditOptions returns DefaultOptions with both verifiers armed. The
// configuration harnesses and campaigns should run under.
func AuditOptions() Options {
	o := DefaultOptions()
	o.Audit = true
	return o
}

func (o *Options) fill() {
	if o.Instr == 0 {
		o.Instr = program.InstrQDet
	}
	if o.QuiesceTimeout == 0 {
		o.QuiesceTimeout = 5 * time.Second
	}
	if o.StartupTimeout == 0 {
		o.StartupTimeout = 10 * time.Second
	}
}

// UpdateReport is the timing and outcome breakdown of one live update —
// the three update-time components §8 evaluates, plus transfer statistics
// and the pipelined schedule's phase-overlap accounting.
type UpdateReport struct {
	// Phases records every lifecycle phase the update ran, in the order
	// of the phase table. The InWindow records are the downtime ledger:
	// they partition Downtime (on a rollback, up to where the abort began).
	// The named durations below are derived from these records.
	Phases []PhaseRecord

	QuiesceTime          time.Duration // checkpoint: barrier convergence
	AnalysisTime         time.Duration // in-window analysis: log marking, validation + re-analysis
	ControlMigrationTime time.Duration // restart: v2 startup under replay
	DiscoveryTime        time.Duration // old-side discovery; overlapped with restart when pipelined, in-window when sequential
	StateTransferTime    time.Duration // remap: pair + copy (both schedules; discovery is split out above)
	// Downtime is the service-unavailable window: from the moment
	// quiescence is initiated to the moment the new version resumes. The
	// pipelined schedule exists to shrink exactly this number.
	Downtime  time.Duration
	TotalTime time.Duration

	// Pipelined reports which schedule ran; AnalysesReused / ProcsReanalyzed
	// split the in-window analysis validation outcome per process (one
	// with any page re-scanned counts as re-analyzed), PagesRescanned /
	// PagesReused per page: how much of those processes it took.
	// FullSteps counts, by cause, the processes the update's analysis
	// steps — the speculate refresh and the in-window validation — had to
	// analyze from nothing.
	Pipelined       bool
	AnalysesReused  int
	ProcsReanalyzed int
	PagesRescanned  int
	PagesReused     int
	FullSteps       trace.FullSteps

	// Warm reports that the update started from the warm-standby daemon's
	// state: the speculate phase was skipped and the request effectively
	// began at quiescence. WarmDaemon is the
	// daemon's accumulated warm work at disarm; WarmReanalyses is the
	// per-process analysis-recomputation tally of the old instance's
	// analysis, from its first step to the in-window validation (the
	// fork-heavy skew evidence).
	Warm           bool
	WarmDaemon     checkpoint.DaemonStats
	WarmReanalyses map[program.ProcKey]int
	// WarmLagAtRequest is the shadow staleness (unshadowed soft-dirty
	// pages) the daemon reported at the instant the update request
	// detached it — how far behind the serving workload the chosen duty
	// cycle let the shadows fall.
	WarmLagAtRequest int
	// WarmDutyCycle echoes the daemon's configured duty-cycle bound.
	WarmDutyCycle float64

	Replayed, LiveExecuted, Conflicted int
	Transfer                           trace.Stats
	FDsCollected                       int

	RolledBack bool
	Reason     error
	// RollbackCause classifies RolledBack: "update" for a pre-commit
	// conflict or failure (the three-phase machinery aborted and the old
	// version resumed from its checkpoint), "deadline:<phase>" when the
	// watchdog aborted a phase that blew its budget, "fault:<point>" when
	// an injected fault fired.
	RollbackCause string
	// RollbackSecondary classifies a second fault that fired while the
	// rollback itself was reverting (the double-fault case); empty
	// otherwise. RollbackCause keeps the primary abort cause and Reason's
	// chain carries both errors.
	RollbackSecondary string
	// RollbackVerified / RollbackIdentical report the Options.Audit rollback
	// audit: the old instance's quiesce-time state digest recomputed just
	// before it resumed from a rollback. Identical means the abort handed
	// back bit-identical state.
	RollbackVerified  bool
	RollbackIdentical bool

	preDigest uint64 // quiesce-time trace.StateDigest of the old instance (Audit)

	// ledger tracks the page frames the transfer moved out of the old
	// instance (Options.Adopt): rollback returns them and commit drops the
	// records. Nil unless adoption is armed.
	ledger *mem.AdoptLedger
}

// TransferWork returns the total mutable-tracing wall clock: discovery
// plus pair/copy. Both schedules split discovery into DiscoveryTime (the
// pipelined one overlaps it with RESTART; the sequential one pays it
// in-window) — paper-comparison columns ("state transfer time") must use
// this sum to stay comparable across schedules and PRs.
func (r *UpdateReport) TransferWork() time.Duration {
	return r.DiscoveryTime + r.StateTransferTime
}

// Engine manages the live-update lifecycle of one server program.
type Engine struct {
	kern *kernel.Kernel
	opts Options
	// policy is the tracing opacity policy: the paper's default, which
	// the package's ablation test swaps before Launch.
	policy types.Policy

	mu      sync.Mutex
	current *program.Instance
	// analysis is current's conservative analysis, kept for as long as
	// current is: the warm daemon steps it while armed, and every update
	// of current steps it from wherever it stands. setCurrentLocked
	// replaces it with current — process keys repeat across versions, so
	// another instance's entries could validate by coincident counters.
	analysis *trace.WarmAnalysis
	history  []*UpdateReport
	warmOn   bool // warm-standby mode enabled (armed/re-armed around updates)
	updating bool // an Update is in flight (blocks ArmWarm)
	daemon   *checkpoint.Daemon
	// Warm daemon pacing (SetWarmPacing; zero = daemon default).
	warmInterval time.Duration
	warmDuty     float64
	// deadlines is the watchdog's per-phase budget table
	// (SetPhaseDeadlines).
	deadlines map[string]time.Duration
}

// NewEngine builds an engine over the shared kernel, with the default
// watchdog profile. The error is always nil.
func NewEngine(k *kernel.Kernel, opts Options) (*Engine, error) {
	opts.fill()
	return &Engine{
		kern:      k,
		opts:      opts,
		policy:    types.DefaultPolicy(),
		deadlines: DefaultPhaseDeadlines(),
	}, nil
}

// Kernel returns the engine's kernel.
func (e *Engine) Kernel() *kernel.Kernel { return e.kern }

// Recorder returns the engine's flight recorder (nil when observability
// is not armed) — the programmatic access surface for the controller's
// `events` command, the trace exporter and the experiment harnesses.
func (e *Engine) Recorder() *obs.Recorder { return e.opts.Recorder }

// Current returns the running instance.
func (e *Engine) Current() *program.Instance {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.current
}

// History returns the reports of all attempted updates.
func (e *Engine) History() []*UpdateReport {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]*UpdateReport, len(e.history))
	copy(out, e.history)
	return out
}

// Launch starts the initial program version: run startup to the first
// quiescent state (recording the startup log), complete the startup phase
// (seal log, clear soft-dirty bits) and resume into normal service.
func (e *Engine) Launch(v *program.Version) (*program.Instance, error) {
	e.mu.Lock()
	if e.current != nil {
		e.mu.Unlock()
		return nil, fmt.Errorf("core: an instance of %s is already running", e.current.Version())
	}
	e.mu.Unlock()

	inst, err := program.NewInstance(v, e.kern, program.Options{
		Instr:              e.opts.Instr,
		Profiler:           e.opts.Profiler,
		RegionInstrumented: e.opts.RegionInstrumented,
	})
	if err != nil {
		return nil, err
	}
	if err := inst.Start(); err != nil {
		return nil, err
	}
	if err := inst.WaitStartup(e.opts.StartupTimeout); err != nil {
		inst.Terminate()
		return nil, fmt.Errorf("core: launch %s: %w", v, err)
	}
	inst.CompleteStartup()
	inst.Resume()
	e.mu.Lock()
	e.setCurrentLocked(inst)
	e.mu.Unlock()
	e.rearmWarm()
	return inst, nil
}

// setCurrentLocked makes inst the running instance, with an empty
// analysis of it (none with no instance). The caller must hold e.mu.
func (e *Engine) setCurrentLocked(inst *program.Instance) {
	e.current, e.analysis = inst, nil
	if inst != nil {
		e.analysis = trace.NewWarmAnalysis(e.policy, nil)
	}
}

// newDaemonLocked starts a readiness daemon over the current instance
// that steps the instance's analysis; the caller must hold e.mu.
func (e *Engine) newDaemonLocked() *checkpoint.Daemon {
	e.opts.Recorder.Instant(obs.TrackDaemon, obs.PhaseArmWarm, "", 0)
	return checkpoint.StartDaemon(e.current, e.analysis,
		checkpoint.DaemonOptions{
			Interval:  e.warmInterval,
			DutyCycle: e.warmDuty,
			Recorder:  e.opts.Recorder,
			Faults:    e.opts.Faults,
		})
}

// SetWarmPacing sets the warm daemon's pacing: the interval between
// passes and the bound on the fraction of wall clock it may spend working
// (zero keeps the daemon defaults; a lower duty cycle costs the serving
// workload less and lets the shadows lag further behind). Takes effect
// the next time a daemon is armed, so a caller sweeping duty cycles
// disarms, re-paces and re-arms between points. A duty cycle outside
// [0,1] is refused.
func (e *Engine) SetWarmPacing(interval time.Duration, dutyCycle float64) error {
	if dutyCycle < 0 || dutyCycle > 1 {
		return fmt.Errorf("core: warm duty cycle must be in [0,1], got %g", dutyCycle)
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	e.warmInterval, e.warmDuty = interval, dutyCycle
	return nil
}

// SetPhaseDeadlines sets the per-phase watchdog budgets (keys are the WD*
// phase names) for updates started after this call. The given budgets
// replace those phases' defaults and every unlisted phase keeps its
// DefaultPhaseDeadlines budget; nil restores the whole default profile.
// A phase exceeding its budget is aborted and the update rolls back with
// RollbackCause "deadline:<phase>". An unknown phase is refused.
func (e *Engine) SetPhaseDeadlines(deadlines map[string]time.Duration) error {
	table := DefaultPhaseDeadlines()
	for ph, d := range deadlines {
		if _, ok := table[ph]; !ok {
			return fmt.Errorf("core: unknown watchdog phase %q", ph)
		}
		table[ph] = d
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	e.deadlines = table
	return nil
}

// stopAndDiscard halts a daemon and discards its checkpoint, handing
// every consumed soft-dirty bit back. Nil-safe.
func stopAndDiscard(d *checkpoint.Daemon) {
	if d != nil {
		d.Stop()
		d.Snapshot().Discard()
	}
}

// ArmWarm enables warm-standby mode and starts the readiness daemon over
// the running instance (the mcr-ctl "warm on" operation). Idempotent
// while armed. Refused while an update is in flight: a daemon armed
// mid-update would consume soft-dirty bits outside that update's
// checkpoint accounting and end up bound to the losing instance.
func (e *Engine) ArmWarm() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.current == nil {
		return ErrNotRunning
	}
	if e.updating {
		return errors.New("core: update in flight; re-arm after it completes")
	}
	e.warmOn = true
	if e.daemon == nil {
		e.daemon = e.newDaemonLocked()
	}
	return nil
}

// DisarmWarm disables warm-standby mode: the daemon stops and its
// checkpoint is discarded, handing every consumed soft-dirty bit back so
// a later cold update still sees the full dirty-since-startup set. The
// analysis it kept current stays with the instance: a later cold update
// steps it over what was written since, instead of analyzing from
// nothing.
func (e *Engine) DisarmWarm() {
	e.mu.Lock()
	d := e.daemon
	e.daemon = nil
	e.warmOn = false
	e.mu.Unlock()
	stopAndDiscard(d)
}

// detachWarm stops the daemon and hands it to the calling update attempt,
// which adopts its long-lived snapshotter (shadows + consumed-bit
// accounting); the daemon's work tally at disarm is recorded in rep. nil
// means no daemon was armed. Warm mode stays enabled — the update re-arms
// a fresh daemon on whatever instance survives (the new version after
// commit, the old one after rollback).
func (e *Engine) detachWarm(rep *UpdateReport) *checkpoint.Daemon {
	e.mu.Lock()
	d := e.daemon
	e.daemon = nil
	e.mu.Unlock()
	if d == nil {
		return nil
	}
	// Staleness at request time is sampled before the Stop join: it
	// answers "how far behind were the shadows when the update arrived",
	// not "after the daemon's final pass".
	rep.WarmLagAtRequest = d.ShadowLag()
	d.Stop()
	rep.Warm = true
	rep.WarmDaemon = d.Stats()
	rep.WarmDutyCycle = d.DutyCycle()
	return d
}

// rearmWarm starts a fresh daemon over the current instance when warm
// mode is enabled and none is running.
func (e *Engine) rearmWarm() {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.warmOn && e.current != nil && e.daemon == nil {
		e.daemon = e.newDaemonLocked()
	}
}

// WarmStatus describes the warm-standby daemon for operators (the
// mcr-ctl status surface).
type WarmStatus struct {
	Armed         bool
	Current       bool   // nothing stale right now (shadows and analysis caught up)
	ShadowLag     int    // soft-dirty pages not yet shadowed (shadow currency)
	ShadowedPages int    // pages consumed into shadows so far (shadow coverage)
	AnalysisGen   uint64 // warm-analysis generation
	Epochs        int    // warm epochs run since (re)arming
	PagesCopied   int
	Reanalyzed    int
	Revalidated   int
	// The analysis work per page: pages the passes scanned, page summaries
	// that stood, and the last pass's scan count alone.
	PagesRescanned     int
	PagesReused        int
	LastPagesRescanned int
	// Duty-cycle surface: the configured bound, the pass/yield counters
	// and the measured work/pause split behind the overhead curve.
	DutyCycle float64
	Passes    int
	Yields    int
	WorkTime  time.Duration
	PauseTime time.Duration
}

// WarmStatus reports the daemon's readiness; the zero value means warm
// standby is not armed.
func (e *Engine) WarmStatus() WarmStatus {
	e.mu.Lock()
	d := e.daemon
	e.mu.Unlock()
	if d == nil {
		return WarmStatus{}
	}
	st := d.Stats()
	return WarmStatus{
		Armed:         true,
		Current:       d.Current(),
		ShadowLag:     d.ShadowLag(),
		ShadowedPages: d.ShadowCoverage(),
		AnalysisGen:   d.Warm().Generation(),
		Epochs:        st.Epochs,
		PagesCopied:   st.PagesCopied,
		Reanalyzed:    st.Reanalyzed,
		Revalidated:   st.Revalidated,

		PagesRescanned:     st.PagesRescanned,
		PagesReused:        st.PagesReused,
		LastPagesRescanned: st.LastPagesRescanned,

		DutyCycle: d.DutyCycle(),
		Passes:    st.Passes,
		Yields:    st.Yields,
		WorkTime:  st.WorkTime,
		PauseTime: st.PauseTime,
	}
}

// WarmWait blocks until the warm daemon reports the shadows and analysis
// caught up with the workload (false if not armed or the timeout hits).
func (e *Engine) WarmWait(timeout time.Duration) bool {
	e.mu.Lock()
	d := e.daemon
	e.mu.Unlock()
	if d == nil {
		return false
	}
	return d.WaitCurrent(timeout)
}

// Update performs one atomic live update to the new version. On success
// the old version is terminated and the new one is serving; on any
// conflict or failure the new version is discarded and the old version
// resumes from its checkpoint — clients never observe a failed attempt.
// The phases, and the two schedules they run on, are Engine.lifecycle's.
// Every attempt's report, committed or rolled back, joins History.
func (e *Engine) Update(v2 *program.Version) (*UpdateReport, error) {
	e.mu.Lock()
	old, an := e.current, e.analysis
	e.mu.Unlock()
	if old == nil {
		return nil, ErrNotRunning
	}
	rep := &UpdateReport{}
	if e.opts.Adopt {
		rep.ledger = &mem.AdoptLedger{}
	}
	start := time.Now()
	// The update span is registered before the bookkeeping defer so its End
	// runs last (defer LIFO) and the span covers the full request. It ends
	// plain: outcome attributes come from the commit/rollback spans.
	usp := e.opts.Recorder.Span(obs.TrackEngine, obs.PhaseUpdate)
	defer usp.End()
	e.opts.Recorder.Metrics().Counter("core.updates").Add(1)
	e.mu.Lock()
	e.updating = true
	deadlines := e.deadlines
	e.mu.Unlock()
	// Detach the warm daemon (if armed) and adopt its snapshotter: the
	// Stop join is part of the request's true latency, so it runs inside
	// the timed window. Warm mode re-arms a fresh daemon on whatever
	// instance survives the attempt.
	warm := e.detachWarm(rep)
	defer func() {
		rep.TotalTime = time.Since(start)
		e.mu.Lock()
		e.updating = false
		e.history = append(e.history, rep)
		e.mu.Unlock()
		e.rearmWarm()
	}()
	// The watchdog monitors this attempt's phase budgets and owns the
	// pipeline cancel channel; the stop join runs before the bookkeeping
	// defer so no monitor goroutine outlives its update.
	wd := newWatchdog(deadlines, e.opts.Faults, e.opts.Recorder)
	defer wd.stop()
	return rep, e.lifecycle(old, an, v2, rep, warm, wd)
}

// restart is the body of the RESTART phase: the new version starts from
// scratch under mutable reinitialization — inheriting the placement the
// analyses pin, replaying the old version's startup log for immutable
// operations. The returned instance is non-nil from the moment it exists,
// so a failed restart can still be torn down.
func (e *Engine) restart(old *program.Instance, v2 *program.Version,
	analyses map[program.ProcKey]*trace.Analysis, rep *UpdateReport, wd *watchdog) (*program.Instance, error) {
	// Injected hang: RESTART parks here until the watchdog's restart
	// budget trips (closing wd.cancel and releasing plane stalls) — the
	// acceptance case proving a wedged RESTART is recovered solely by the
	// deadline machinery, with cause deadline:restart.
	if err := e.opts.Faults.Stall(faultinject.PointRestartHang, wd.cancel); err != nil {
		return nil, err
	}
	mgr := reinit.NewManager(old, e.opts.ReplayStrategy)
	plan, reserve, pinnedStatics := trace.CombinedPlacement(analyses)
	newInst, err := program.NewInstance(v2, e.kern, program.Options{
		Instr:              e.opts.Instr,
		Profiler:           e.opts.Profiler,
		Interceptor:        mgr,
		OnProcCreated:      mgr.OnProcCreated,
		PinnedStatics:      pinnedStatics,
		RegionInstrumented: e.opts.RegionInstrumented,
	})
	if err != nil {
		return nil, err
	}
	if err := reinit.InheritPlacement(newInst.Root(), plan, reserve); err != nil {
		return newInst, err
	}
	// Pid side of global separability: reserve the old namespace's ids so
	// no unpinned creation under startup can steal one a pinned replay
	// (or a reinitialization handler) is about to restore.
	reinit.ReserveIDs(old, newInst.Root())
	// A deadline trip must be able to break a startup that genuinely
	// hangs: WaitStartup polls instance errors, so failing the instance
	// from the trip hook unblocks it promptly. The hook is harmless after
	// a successful startup: recorded errors are only read by startup, and
	// a trip before the commit point ends in rollback anyway.
	wd.onTrip(func() { newInst.Fail(wd.wrap(nil)) })
	if err := newInst.Start(); err != nil {
		return newInst, err
	}
	if err := newInst.WaitStartup(e.opts.StartupTimeout); err != nil {
		return newInst, err
	}
	// Omitted-operation conflicts: unconsumed immutable records.
	if left := mgr.Leftovers(); len(left) > 0 {
		var first replaylog.Record
		for _, recs := range left {
			first = recs[0]
			break
		}
		return newInst, fmt.Errorf("%w: startup omitted recorded operation %s",
			program.ErrConflict, first)
	}
	// Volatile quiescent states: run the version's reinitialization
	// handlers to respawn session handlers, then re-converge.
	if handlers := v2.Annotations.ReinitHandlers(); len(handlers) > 0 {
		ri := &program.ReinitInfo{
			New:        newInst,
			Sessions:   reinit.Sessions(old),
			OldThreads: old.ThreadsInfo(),
		}
		for _, h := range handlers {
			if err := h(ri); err != nil {
				return newInst, fmt.Errorf("reinit handler: %w", err)
			}
		}
		if _, err := newInst.Barrier().WaitQuiesced(e.opts.QuiesceTimeout); err != nil {
			return newInst, err
		}
		// A reconstructed thread that died with an error deregisters from
		// the barrier, so convergence alone does not prove success.
		if errs := newInst.Errors(); len(errs) > 0 {
			return newInst, errs[0]
		}
	}
	// Injected late-startup crash: everything converged, then the new
	// version dies just before sealing startup.
	if err := e.opts.Faults.Check(faultinject.PointRestartCrash); err != nil {
		return newInst, err
	}
	newInst.CompleteStartup()
	rep.Replayed, rep.LiveExecuted, rep.Conflicted = mgr.ReplayStats()
	return newInst, nil
}

// commit is the body of the commit phase: collect inherited-but-unused
// fds, leave reserved mode, terminate the old version, release its pid
// reservations, and resume the new version. It cannot fail, and nothing after it may roll the update back:
// the lifecycle consults the commit-time crash seam and the watchdog
// before calling it.
func (e *Engine) commit(old, newInst *program.Instance, rep *UpdateReport) {
	e.opts.Recorder.Metrics().Counter("core.commits").Add(1)
	rep.FDsCollected = reinit.CollectUnused(old, newInst)
	reinit.ReservedModeOff(newInst)
	// The old instance will never resume, so the adopted frames'
	// provenance records can be dropped.
	if rep.ledger != nil {
		rep.ledger.Forget()
	}
	old.Terminate()
	// Finalization releases the pid side of global separability: the old
	// id space no longer needs protecting once the old instance is gone.
	reinit.ReleaseIDs(newInst.Root())
	newInst.Resume()
	e.mu.Lock()
	e.setCurrentLocked(newInst)
	e.mu.Unlock()
}

// transferOptions builds the REMAP options. cancel is the update's
// watchdog-owned pipeline cancel, so a deadline trip and an explicit abort
// drain the transfer work identically. rep carries the update's adoption
// ledger (nil unless Options.Adopt), which records every donated page
// frame so rollback can make the old side whole.
func (e *Engine) transferOptions(snap *checkpoint.Snapshotter, cancel <-chan struct{}, rep *UpdateReport) trace.Options {
	topts := trace.Options{
		Policy:             e.policy,
		DisableDirtyFilter: e.opts.DisableDirtyFilter,
		VerifyShadows:      e.opts.Audit,
		Adopt:              e.opts.Adopt,
		Ledger:             rep.ledger,
		Recorder:           e.opts.Recorder,
		Faults:             e.opts.Faults,
		Cancel:             cancel,
	}
	if snap != nil {
		topts.Shadows = snap.Shadows()
	}
	return topts
}

// lifecycle is the update protocol, stated once: CHECKPOINT (the analysis
// prepared while the old version serves, then quiesce), RESTART
// (the new version under mutable reinitialization), REMAP (mutable tracing
// state transfer), commit — with abort, from any point, resuming the old
// version from its checkpoint. Every phase runs through runPhase, so the
// phase table's row is all that names its span and budget; fault seams sit
// inside the phase bodies, at the point each failure would strike.
//
// The protocol has two schedules with bit-identical results. The
// sequential one (Options.Sequential) completes each phase before the next
// begins. The pipelined one — the default — takes two pieces of work off
// the quiesce→commit window:
//
//  1. The conservative analysis — the old instance's own, kept across its
//     updates — is brought current off-window, while the old version is
//     still serving: by the warm daemon between updates, or else by one
//     speculate phase run just before quiescence, which steps it from
//     wherever it stands. In-window it is only validated per process
//     against the page stamps and allocation deltas; what they invalidated
//     is re-scanned.
//  2. The old-side job — object discovery — runs concurrently with the
//     new version's RESTART, so the transfer phase joins it and pairs at
//     once. (The sequential schedule runs discovery inside the transfer
//     phase.)
//
// With a warm handoff the speculate phase disappears: the daemon kept the
// analysis current, so the request starts at quiescence, and the copy
// serves every object the daemon's shadows still cover.
func (e *Engine) lifecycle(old *program.Instance, an *trace.WarmAnalysis, v2 *program.Version, rep *UpdateReport, warm *checkpoint.Daemon, wd *watchdog) error {
	pipelined := !e.opts.Sequential
	rep.Pipelined = pipelined
	rep.Phases = make([]PhaseRecord, 0, len(phaseTable))
	var (
		converged time.Duration // barrier convergence, as the barrier measured it
		// The old-side job: the old-instance half of REMAP — object
		// discovery — and when it ran. It needs only the quiesced old
		// instance, which is what lets the pipelined schedule run it beside
		// RESTART.
		job struct {
			disc       *trace.InstanceDiscovery
			err        error
			start, end time.Time
		}
		jobDone chan struct{} // closed when the pipelined old-side job returns
		// The window opens when quiescence is initiated and closes when
		// service is back: the commit phase's end, or an abort's resume.
		// Inside it the phases abut — each starts at mark, the instant the
		// one before it ended, so the glue between two phases is owed to the
		// later one and the in-window records partition the window exactly.
		opened, mark, closed time.Time
		// The running phase's span end attribute and note, set by its body.
		attr  string
		attrN int
		note  string
	)
	// runPhase runs fn as lifecycle phase ph: under the phase's recorder
	// span and watchdog budget, appending its PhaseRecord. The returned
	// error is classified by the watchdog — a budget breached during the
	// phase is the cause even when fn itself returned success, because the
	// breach fired the pipeline cancel and whatever fn produced cannot be
	// trusted.
	runPhase := func(ph phaseSpec, fn func() error) error {
		start := mark
		if opened.IsZero() {
			start = time.Now()
		}
		sp := e.opts.Recorder.Span(obs.TrackEngine, ph.span)
		wd.setPhase(ph.name)
		err := fn()
		wd.setPhase("")
		sp.EndArgNote(attr, int64(attrN), note)
		attr, attrN, note = "", 0, ""
		mark = time.Now()
		rep.Phases = append(rep.Phases, PhaseRecord{ph.name, start, mark.Sub(start), !opened.IsZero()})
		return wd.wrap(err)
	}
	// abort is the one way out of a failed update: cancel and join the
	// old-side job (the watchdog owns the cancel channel, so an explicit
	// abort and a deadline trip drain it through the same close), then
	// roll back. The old instance resumes with no reader racing it.
	abort := func(newInst *program.Instance, cause error) error {
		wd.cancelPipeline()
		if jobDone != nil {
			<-jobDone
		}
		err := e.rollback(old, newInst, rep, cause)
		closed = time.Now()
		return err
	}
	// The report's named durations are derived from the phase records, on
	// every outcome — the one place they are assigned.
	defer func() {
		rep.QuiesceTime = converged
		for _, p := range rep.Phases {
			switch p.Phase {
			case WDAnalysis:
				rep.AnalysisTime = p.Dur
			case WDRestart:
				rep.ControlMigrationTime = p.Dur
			case WDTransfer:
				// Pair + copy begin when the old-side job is done: inside the
				// phase when sequential, usually before it when pipelined (or
				// the phase first waits out the rest of the join).
				from := job.end
				if from.Before(p.Start) {
					from = p.Start
				}
				rep.DiscoveryTime = job.end.Sub(job.start)
				rep.StateTransferTime = p.Start.Add(p.Dur).Sub(from)
			}
		}
		// A rollback pauses service too: its window runs to the old
		// version's resume.
		if !opened.IsZero() {
			rep.Downtime = closed.Sub(opened)
		}
	}()

	// --- CHECKPOINT, off-window: the analysis -------------------------
	// The analysis is the old instance's own (an). A warm daemon hands its
	// shadows over with it. Its epochs were speculative: Discard hands the
	// consumed soft-dirty bits back on every outcome (rollback needs them
	// for the next attempt; after commit the old instance is gone and
	// re-marking is harmless).
	var snap *checkpoint.Snapshotter
	if warm != nil {
		snap = warm.Snapshot()
		defer snap.Discard()
		// A snapshotter that failed an epoch (or had a daemon pass shot
		// out from under it) cannot vouch for its shadows.
		if err := snap.Err(); err != nil {
			return abort(nil, wd.wrap(fmt.Errorf("checkpoint: %w", err)))
		}
	}
	// A cold update steps the analysis here, where the old version is
	// still serving: from where a daemon armed earlier left it, over the
	// pages written since, or from nothing on an instance never analyzed.
	// Resolve over a stale analysis in-window would move that work into
	// the downtime. A warm handoff skips the step unless the daemon was
	// detached before its first pass: the daemon's analysis is as current
	// as its last pass, and the in-window Resolve pays for the pages
	// written since. The select lets a deadline trip abandon a wedged
	// refresh instead of joining it.
	if pipelined && (warm == nil || an.Entries() == 0) {
		if err := runPhase(phaseTable[phSpeculate], func() error {
			var rs trace.WarmRefresh
			done := make(chan struct{})
			go func() {
				defer close(done)
				rs = an.Refresh(old)
			}()
			select {
			case <-done:
				note = fmt.Sprintf("pages rescanned=%d reused=%d %v", rs.PagesRescanned, rs.PagesReused, rs.Full)
				rep.FullSteps.Add(rs.Full)
			case <-wd.cancel:
			}
			return nil
		}); err != nil {
			return abort(nil, err)
		}
	}
	if h := e.opts.beforeQuiesce; h != nil {
		h(old)
	}

	// --- CHECKPOINT, the window opens: quiesce -------------------------
	opened = time.Now()
	mark = opened
	if err := runPhase(phaseTable[phQuiesce], func() (err error) {
		if converged, err = old.Quiesce(e.opts.QuiesceTimeout); err != nil {
			return fmt.Errorf("quiescence: %w", err)
		}
		// The rollback audit's reference digest, while nothing else is
		// reading or writing the old side (0, no audit, if it fails).
		if e.opts.Audit {
			rep.preDigest, _ = trace.StateDigest(old)
		}
		return nil
	}); err != nil {
		return abort(nil, err)
	}
	topts := e.transferOptions(snap, wd.cancel, rep)
	runOldSide := func() {
		job.start = time.Now()
		job.disc, job.err = trace.DiscoverInstance(old, topts)
		job.end = time.Now()
	}
	if pipelined {
		jobDone = make(chan struct{})
		go func() {
			defer close(jobDone)
			runOldSide()
		}()
	}

	// --- analysis of the old version: immutable-object marking for the
	// startup logs, then the conservative analysis validated against the
	// deltas (what they invalidated — everything, over an empty analysis
	// — is re-analyzed here) -------------------------------------------
	var analyses map[program.ProcKey]*trace.Analysis
	// With nothing to validate the phase is a plain analysis: it runs
	// under the analyze span, counts processes, and has no speculation
	// for the speculation seam to invalidate.
	prior := an.Entries() > 0
	analysis := phaseTable[phAnalysis]
	if !prior {
		analysis.span = obs.PhaseAnalyze
	}
	if err := runPhase(analysis, func() (err error) {
		reinit.MarkLogs(old)
		var rs trace.WarmRefresh
		analyses, rs, err = an.Resolve(old)
		attr, attrN = "reused", rs.Revalidated
		if !prior {
			attr, attrN = "procs", len(analyses)
		}
		note = fmt.Sprintf("pages rescanned=%d reused=%d %v", rs.PagesRescanned, rs.PagesReused, rs.Full)
		if err == nil && prior {
			err = e.opts.Faults.Check(faultinject.PointSpeculation)
		}
		if err == nil {
			err = e.opts.Faults.Check(faultinject.PointAnalysis)
		}
		if err != nil {
			return fmt.Errorf("analysis: %w", err)
		}
		rep.AnalysesReused, rep.ProcsReanalyzed = rs.Revalidated, len(analyses)-rs.Revalidated
		rep.PagesRescanned, rep.PagesReused = rs.PagesRescanned, rs.PagesReused
		rep.FullSteps.Add(rs.Full)
		if warm != nil {
			rep.WarmReanalyses = an.ReanalysisCounts()
		}
		return nil
	}); err != nil {
		return abort(nil, err)
	}

	// --- RESTART: new version under mutable reinitialization -----------
	var newInst *program.Instance
	if err := runPhase(phaseTable[phRestart], func() (err error) {
		newInst, err = e.restart(old, v2, analyses, rep, wd)
		return err
	}); err != nil {
		return abort(newInst, err)
	}

	// --- REMAP: the old-side job (joined, or run here), then pair + copy
	if err := runPhase(phaseTable[phTransfer], func() (err error) {
		if pipelined {
			<-jobDone
		} else {
			runOldSide()
		}
		if job.err != nil {
			return job.err
		}
		rep.Transfer, err = job.disc.Complete(newInst, analyses)
		attr, attrN = "objects", rep.Transfer.ObjectsTransferred
		return err
	}); err != nil {
		return abort(newInst, err)
	}

	// --- COMMIT ---------------------------------------------------------
	// Entry to the commit phase is the last moment a rollback is possible:
	// the injected commit-time crash strikes there, before any of commit's
	// side effects. Once they have run the update stands — the old version
	// is gone — so a commit budget breached *during* them is recorded by
	// the watchdog but no longer changes the outcome.
	committed := false
	err := runPhase(phaseTable[phCommit], func() error {
		err := e.opts.Faults.Check(faultinject.PointCommitCrash)
		if err == nil && wd.wrap(nil) == nil {
			e.commit(old, newInst, rep)
			committed = true
		}
		return err
	})
	if !committed {
		return abort(newInst, err)
	}
	closed = mark
	return nil
}

// rollback discards the (partially started) new instance and resumes the
// old version from its checkpoint, preserving the atomic update semantics.
func (e *Engine) rollback(old, new *program.Instance, rep *UpdateReport, cause error) error {
	sp := e.opts.Recorder.Span(obs.TrackEngine, obs.PhaseRollback)
	e.opts.Recorder.Metrics().Counter("core.rollbacks").Add(1)
	// Adopted page frames go home first — before the new instance is
	// terminated and before the rollback audit digests the old side — so
	// the old instance resumes with every donated frame back in place and
	// its original dirty accounting restored.
	if rep.ledger != nil {
		if rerr := rep.ledger.ReturnAll(); rerr != nil {
			cause = fmt.Errorf("%w; adopted-frame return: %v", cause, rerr)
		}
	}
	if new != nil {
		new.Terminate()
	}
	// Double fault: a second failure while reverting (the restore
	// machinery itself erroring) must not wedge the rollback — the old
	// instance still resumes, and both causes are reported: the primary
	// keeps RollbackCause, the secondary lands in RollbackSecondary and
	// on the Reason chain.
	if err2 := e.opts.Faults.Check(faultinject.PointRollbackRestore); err2 != nil {
		rep.RollbackSecondary = rollbackCause(err2)
		e.opts.Recorder.Metrics().Counter("core.double_faults").Add(1)
		cause = fmt.Errorf("%w; second fault during rollback: %v", cause, err2)
	}
	// The rollback audit (Options.Audit): the old instance's state digest,
	// recomputed just before it resumes, against the quiesce-time capture.
	if e.opts.Audit && rep.preDigest != 0 {
		d, err := trace.StateDigest(old)
		rep.RollbackVerified = true
		rep.RollbackIdentical = err == nil && d == rep.preDigest
	}
	old.Resume()
	sp.EndNote(cause.Error())
	rep.RolledBack = true
	rep.RollbackCause = rollbackCause(cause)
	rep.Reason = cause
	return fmt.Errorf("%w: %v", ErrUpdateFailed, cause)
}

// rollbackCause classifies a rollback's cause chain for
// UpdateReport.RollbackCause: a watchdog breach beats an injected fault
// (wrap puts the deadline outermost on purpose), anything else is the
// generic pre-commit "update".
func rollbackCause(cause error) string {
	var de *DeadlineError
	if errors.As(cause, &de) {
		return "deadline:" + de.Phase
	}
	var fe *faultinject.Error
	if errors.As(cause, &fe) {
		return "fault:" + string(fe.Point)
	}
	return "update"
}

// Shutdown terminates the running instance, stopping the warm daemon
// first so no background work races the teardown.
func (e *Engine) Shutdown() {
	e.mu.Lock()
	inst := e.current
	e.setCurrentLocked(nil)
	d := e.daemon
	e.daemon = nil
	e.mu.Unlock()
	stopAndDiscard(d)
	if inst != nil {
		inst.Terminate()
	}
}
