// Package obs is the engine's flight recorder: a low-overhead,
// always-compiled-in event log threaded through the whole update path.
//
// The engine runs four overlapping machines (speculative analysis,
// pipelined RESTART beside the old-side discovery, warm daemon, canary
// window) whose only prior windows were scalar stat structs — when a warm
// update was slow or a canary breached, nothing showed *which phase* ate
// the time or *which daemon pass* caused the p99 spike. The recorder captures
// timestamped span begin/end and instant events (with per-process and
// per-epoch attributes) into a preallocated, lock-striped ring buffer,
// cheap enough to leave on under live traffic, plus a counters/gauges
// registry unifying the ad-hoc stats. Exports: a Chrome-trace-event JSON
// file (Perfetto-loadable, one track per subsystem so workload-latency
// spikes visually line up with the daemon passes that caused them), a
// human-readable phase timeline (the `events` ctl command), and
// programmatic access for experiments and invariant tests.
//
// Cost model: a nil *Recorder is fully disabled and every method is a
// nil-check away from zero cost — no allocation, no atomic, pinned by
// BenchmarkRecorderDisabled. A live recorder can also be soft-disabled
// (SetEnabled), which costs one atomic load per emission on top.
package obs

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Track names: one exporter track (Perfetto "thread") per subsystem.
// Spans on the same track nest; concurrent subsystems get their own
// tracks so a daemon pass overlapping an engine phase cannot corrupt
// either stack. Per-process spans (each process's discovery and copy)
// additionally carry a Proc attribute and render as "track/proc"
// sub-tracks.
const (
	TrackEngine   = "engine"   // update lifecycle phases
	TrackTransfer = "transfer" // old-side pipeline: discovery, copy
	TrackDaemon   = "daemon"   // warm-standby pass/yield slices
	TrackCanary   = "canary"   // post-commit window, judges, verdict
	TrackWorkload = "workload" // sustained-driver interval buckets
)

// Phase names emitted by the integrated subsystems.
const (
	PhaseUpdate    = "update" // whole request (Update entry to return)
	PhaseSpeculate = "speculate"
	PhaseQuiesce   = "quiesce"
	PhaseAnalyze   = "analyze"  // in-window analysis with nothing to validate (sequential schedule, cold)
	PhaseValidate  = "validate" // in-window validation of the off-window (refreshed or warm) analysis
	PhaseRestart   = "restart"
	PhaseRemap     = "remap"
	PhaseCommit    = "commit"
	PhaseRollback  = "rollback"
	PhaseArmWarm   = "arm-warm" // instant: a fresh daemon armed

	PhaseEpoch = "epoch" // one shadow epoch (daemon track, inside a pass)
	PhasePass  = "pass"  // daemon work slice
	PhaseYield = "yield" // daemon backpressure pause

	PhaseDiscover = "discover"
	PhaseCopy     = "copy"
	PhaseChecksum = "checksum" // instant: aggregate transfer FNV digest

	PhaseCanaryWindow   = "canary-window"
	PhaseCanaryJudge    = "canary-judge" // instant: one SLO tick
	PhaseCanaryFinalize = "canary-finalize"
	PhaseCanaryRevert   = "canary-revert"

	PhaseInterval = "interval" // workload stats bucket (complete event)

	PhaseFault    = "fault"    // instant: an armed injection point fired (note = point)
	PhaseDeadline = "deadline" // instant: the watchdog breached a phase budget (note = deadline:<phase>)
)

// Kind is the event kind, matching Chrome trace-event phase letters.
type Kind byte

const (
	KindBegin    Kind = 'B' // span begin
	KindEnd      Kind = 'E' // span end
	KindInstant  Kind = 'i'
	KindComplete Kind = 'X' // retrospective span with explicit duration
)

// Event is one recorded occurrence. T is relative to the recorder's
// epoch (Recorder.Now's zero); Dur is set for KindComplete only. Seq is
// a global emission ordinal that totally orders events sharing a
// timestamp. Attributes: Proc carries the per-process key of worker
// spans, Note free-form context (rollback cause, verdict), and
// ArgName/Arg one numeric attribute (epoch dirty pages, interval p99).
type Event struct {
	Seq     uint64
	T       time.Duration
	Dur     time.Duration
	Kind    Kind
	Track   string
	Phase   string
	Proc    string
	Note    string
	ArgName string
	Arg     int64
}

// nStripes is the lock-stripe count. Stripes are keyed by track, so a
// chatty track (workload intervals, daemon passes) contends — and
// overflows — on its own ring without evicting engine phases.
const nStripes = 8

type stripe struct {
	mu   sync.Mutex
	ring []Event
	n    uint64 // events ever written; n % cap is the next slot
}

// Recorder is the flight recorder. The zero value is not usable; build
// one with New. A nil *Recorder is valid everywhere and records nothing.
type Recorder struct {
	epoch   time.Time
	seq     atomic.Uint64
	off     atomic.Bool // soft-disable (SetEnabled)
	stripes [nStripes]stripe
	metrics Metrics
}

// DefaultCapacity is New(0)'s total event capacity.
const DefaultCapacity = 1 << 13

// New builds a recorder with the given total event capacity (0 =
// DefaultCapacity). Capacity is divided across the lock stripes; each
// stripe's ring overwrites its own oldest events on overflow.
func New(capacity int) *Recorder {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	per := capacity / nStripes
	if per < 16 {
		per = 16
	}
	r := &Recorder{epoch: time.Now()}
	for i := range r.stripes {
		r.stripes[i].ring = make([]Event, per)
	}
	return r
}

// On reports whether the recorder is live (non-nil and not soft-
// disabled). Emission helpers check it themselves; callers only need it
// to skip argument construction that would allocate (key.String()).
func (r *Recorder) On() bool {
	return r != nil && !r.off.Load()
}

// SetEnabled toggles recording on a live recorder. While off, every
// emission is dropped after one nil check and one atomic load. Nil-safe.
func (r *Recorder) SetEnabled(on bool) {
	if r != nil {
		r.off.Store(!on)
	}
}

// Now returns the recorder-relative timestamp, the time base of every
// event (0 for a nil recorder).
func (r *Recorder) Now() time.Duration {
	if r == nil {
		return 0
	}
	return time.Since(r.epoch)
}

// stripeFor hashes a track name to its stripe (FNV-1a).
func stripeFor(track string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(track); i++ {
		h = (h ^ uint32(track[i])) * 16777619
	}
	return h % nStripes
}

// emit appends one event. With stamp set, the timestamp is taken under
// the stripe lock, so events on one track are monotone in ring order.
func (r *Recorder) emit(ev Event, stamp bool) {
	if r == nil || r.off.Load() {
		return
	}
	ev.Seq = r.seq.Add(1)
	s := &r.stripes[stripeFor(ev.Track)]
	s.mu.Lock()
	if stamp {
		ev.T = time.Since(r.epoch)
	}
	s.ring[s.n%uint64(len(s.ring))] = ev
	s.n++
	s.mu.Unlock()
}

// Span emits a begin event and returns a handle whose End emits the
// matching end. The zero Span (from a disabled recorder) is a no-op.
// Idiom: defer rec.Span(track, phase).End()
func (r *Recorder) Span(track, phase string) Span {
	return r.SpanProc(track, phase, "")
}

// SpanProc is Span with a per-process attribute: spans carrying distinct
// Proc values render (and pair) as independent sub-tracks, so per-worker
// discovery/copy spans may overlap freely.
func (r *Recorder) SpanProc(track, phase, proc string) Span {
	if r == nil || r.off.Load() {
		return Span{}
	}
	r.emit(Event{Kind: KindBegin, Track: track, Phase: phase, Proc: proc}, true)
	return Span{r: r, track: track, phase: phase, proc: proc}
}

// Instant emits an instant event with one numeric attribute (pass
// ArgName "" for none).
func (r *Recorder) Instant(track, phase, argName string, arg int64) {
	r.emit(Event{Kind: KindInstant, Track: track, Phase: phase, ArgName: argName, Arg: arg}, true)
}

// InstantNote emits an instant event with a free-form note.
func (r *Recorder) InstantNote(track, phase, note string) {
	r.emit(Event{Kind: KindInstant, Track: track, Phase: phase, Note: note}, true)
}

// Complete emits a retrospective span with an explicit start and
// duration (recorder-relative, e.g. from Now), used by the workload
// driver to flush closed interval buckets after the fact.
func (r *Recorder) Complete(track, phase string, start, dur time.Duration, argName string, arg int64) {
	r.emit(Event{Kind: KindComplete, Track: track, Phase: phase, T: start, Dur: dur,
		ArgName: argName, Arg: arg}, false)
}

// Events returns a merged snapshot of every stripe's live events,
// ordered by (T, Seq). Safe under concurrent emission.
func (r *Recorder) Events() []Event {
	if r == nil {
		return nil
	}
	var out []Event
	for i := range r.stripes {
		s := &r.stripes[i]
		s.mu.Lock()
		cap64 := uint64(len(s.ring))
		n := s.n
		if n > cap64 {
			head := n % cap64 // oldest surviving slot
			out = append(out, s.ring[head:]...)
			out = append(out, s.ring[:head]...)
		} else {
			out = append(out, s.ring[:n]...)
		}
		s.mu.Unlock()
	}
	sortEvents(out)
	return out
}

// Dropped returns how many events overflowed their stripe's ring and
// were overwritten (oldest-first, per stripe).
func (r *Recorder) Dropped() uint64 {
	if r == nil {
		return 0
	}
	var d uint64
	for i := range r.stripes {
		s := &r.stripes[i]
		s.mu.Lock()
		if cap64 := uint64(len(s.ring)); s.n > cap64 {
			d += s.n - cap64
		}
		s.mu.Unlock()
	}
	return d
}

// sortEvents orders by (T, Seq) — the canonical event order every
// consumer (export, pairing, timeline) assumes. Snapshot paths only,
// never the emission path.
func sortEvents(evs []Event) {
	sort.Slice(evs, func(i, j int) bool {
		if evs[i].T != evs[j].T {
			return evs[i].T < evs[j].T
		}
		return evs[i].Seq < evs[j].Seq
	})
}

// Span is an open phase span. The zero value is a no-op.
type Span struct {
	r            *Recorder
	track, phase string
	proc         string
}

// End emits the span's end event.
func (s Span) End() { s.end("", "", 0) }

// EndArg ends the span with one numeric attribute attached to the end
// event (merged into the paired span by Pair).
func (s Span) EndArg(argName string, arg int64) { s.end("", argName, arg) }

// EndArgNote ends the span with both: either may be empty.
func (s Span) EndArgNote(argName string, arg int64, note string) { s.end(note, argName, arg) }

// EndNote ends the span with a free-form note (outcome, cause).
func (s Span) EndNote(note string) { s.end(note, "", 0) }

func (s Span) end(note, argName string, arg int64) {
	if s.r == nil {
		return
	}
	s.r.emit(Event{Kind: KindEnd, Track: s.track, Phase: s.phase, Proc: s.proc,
		Note: note, ArgName: argName, Arg: arg}, true)
}
