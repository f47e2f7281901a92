package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"time"
)

// PhaseSpan is one paired (or complete) span reconstructed from the
// event stream — the programmatic surface experiments and invariant
// tests consume.
type PhaseSpan struct {
	Track   string
	Phase   string
	Proc    string
	Start   time.Duration // recorder-relative
	Dur     time.Duration
	Note    string // from begin or end event (end wins)
	ArgName string
	Arg     int64
	// Open marks a begin with no end in the snapshot: the span was still
	// in flight, or the ring dropped its end. Dur is then the distance to
	// the last event observed on any track.
	Open bool
}

// End returns the span's end time.
func (p PhaseSpan) End() time.Duration { return p.Start + p.Dur }

// Pair reconstructs spans from a (T, Seq)-ordered event snapshot (as
// returned by Events). Begin/end events pair per (track, proc) stack;
// complete events map directly. Tolerant of ring overflow: an end with
// no surviving begin is dropped, a begin with no end surfaces as Open.
// Instants are ignored (see Instants).
func Pair(events []Event) []PhaseSpan {
	type openSpan struct {
		ev  Event
		idx int // slot in out, filled when the end arrives
	}
	var out []PhaseSpan
	stacks := make(map[string][]openSpan)
	var last time.Duration
	for _, ev := range events {
		if t := ev.T + ev.Dur; t > last {
			last = t
		}
		key := ev.Track + "\x00" + ev.Proc
		switch ev.Kind {
		case KindComplete:
			out = append(out, PhaseSpan{Track: ev.Track, Phase: ev.Phase, Proc: ev.Proc,
				Start: ev.T, Dur: ev.Dur, Note: ev.Note, ArgName: ev.ArgName, Arg: ev.Arg})
		case KindBegin:
			out = append(out, PhaseSpan{Track: ev.Track, Phase: ev.Phase, Proc: ev.Proc,
				Start: ev.T, Note: ev.Note, ArgName: ev.ArgName, Arg: ev.Arg, Open: true})
			stacks[key] = append(stacks[key], openSpan{ev: ev, idx: len(out) - 1})
		case KindEnd:
			stack := stacks[key]
			// Pop the innermost begin with a matching phase; skip (leave
			// open) any inner begins whose ends the ring dropped.
			for i := len(stack) - 1; i >= 0; i-- {
				if stack[i].ev.Phase != ev.Phase {
					continue
				}
				sp := &out[stack[i].idx]
				sp.Dur = ev.T - sp.Start
				sp.Open = false
				if ev.Note != "" {
					sp.Note = ev.Note
				}
				if ev.ArgName != "" {
					sp.ArgName, sp.Arg = ev.ArgName, ev.Arg
				}
				stacks[key] = append(stack[:i], stack[i+1:]...)
				break
			}
		}
	}
	for i := range out {
		if out[i].Open {
			out[i].Dur = last - out[i].Start
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Start != out[j].Start {
			return out[i].Start < out[j].Start
		}
		return out[i].End() > out[j].End() // outer span first
	})
	return out
}

// Instants filters the instant events out of a snapshot.
func Instants(events []Event) []Event {
	var out []Event
	for _, ev := range events {
		if ev.Kind == KindInstant {
			out = append(out, ev)
		}
	}
	return out
}

// CheckSpans is the strict structural validator behind the
// phase-ordering invariant test: on every (track, proc) sub-track each
// end must match the innermost open begin's phase, and nothing may stay
// open at the end of the capture. Returns the first violation (nil when
// the stream is legal). Meant for full captures — a ring that overflowed
// legitimately fails this.
func CheckSpans(events []Event) error {
	stacks := make(map[string][]string)
	for _, ev := range events {
		key := ev.Track + "/" + ev.Proc
		switch ev.Kind {
		case KindBegin:
			stacks[key] = append(stacks[key], ev.Phase)
		case KindEnd:
			stack := stacks[key]
			if len(stack) == 0 {
				return fmt.Errorf("obs: %s: end %q with no open span", key, ev.Phase)
			}
			if top := stack[len(stack)-1]; top != ev.Phase {
				return fmt.Errorf("obs: %s: end %q while %q is innermost", key, ev.Phase, top)
			}
			stacks[key] = stack[:len(stack)-1]
		}
	}
	for key, stack := range stacks {
		if len(stack) > 0 {
			return fmt.Errorf("obs: %s: span %q never ended", key, stack[len(stack)-1])
		}
	}
	return nil
}

// PhaseTable renders spans as an aligned human-readable timeline — the
// formatter behind the `events` ctl command.
func PhaseTable(spans []PhaseSpan) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%12s %10s %-9s %-16s %-18s %s\n", "start", "dur", "track", "phase", "proc", "detail")
	for _, sp := range spans {
		proc := sp.Proc
		if proc == "" {
			proc = "-"
		}
		detail := ""
		if sp.ArgName != "" {
			detail = fmt.Sprintf("%s=%d", sp.ArgName, sp.Arg)
		}
		if sp.Note != "" {
			if detail != "" {
				detail += " "
			}
			detail += sp.Note
		}
		if sp.Open {
			if detail != "" {
				detail += " "
			}
			detail += "(open)"
		}
		fmt.Fprintf(&b, "%12s %10s %-9s %-16s %-18s %s\n",
			"+"+sp.Start.Round(10*time.Microsecond).String(),
			sp.Dur.Round(10*time.Microsecond), sp.Track, sp.Phase, proc, detail)
	}
	return b.String()
}

// Timeline pairs a snapshot and renders the phase table in one step.
func Timeline(events []Event) string {
	return PhaseTable(Pair(events))
}

// trackSortIndex fixes the Perfetto track order: engine on top, then the
// old-side transfer pipeline, daemon, canary, workload.
func trackSortIndex(track string) int {
	switch track {
	case TrackEngine:
		return 1
	case TrackTransfer:
		return 2
	case TrackDaemon:
		return 3
	case TrackCanary:
		return 4
	case TrackWorkload:
		return 5
	}
	return 6
}

// chromeEvent is one Chrome trace-event object. Ts/Dur are microseconds
// (the format's unit); Pid is constant (one "process" — the engine).
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  *float64       `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	S    string         `json:"s,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

// WriteChromeTrace exports an event snapshot as Chrome trace-event JSON
// (the {"traceEvents": [...]} object form), loadable in Perfetto or
// chrome://tracing. Each track — and each per-proc sub-track — becomes
// its own named thread, ordered engine/transfer/daemon/canary/workload
// so workload-interval spikes line up visually under the daemon passes
// that overlapped them. metrics (optional) lands in a trace-level
// metadata block.
func WriteChromeTrace(w io.Writer, events []Event, metrics map[string]int64) error {
	// Assign tids: group by track first (fixed order), then proc within.
	type lane struct{ track, proc string }
	lanes := map[lane]int{}
	var order []lane
	for _, ev := range events {
		l := lane{ev.Track, ev.Proc}
		if _, ok := lanes[l]; !ok {
			lanes[l] = 0
			order = append(order, l)
		}
	}
	sort.Slice(order, func(i, j int) bool {
		a, b := order[i], order[j]
		if ai, bi := trackSortIndex(a.track), trackSortIndex(b.track); ai != bi {
			return ai < bi
		}
		if a.track != b.track {
			return a.track < b.track
		}
		return a.proc < b.proc
	})
	out := make([]chromeEvent, 0, len(events)+2*len(order))
	for i, l := range order {
		tid := i + 1
		lanes[l] = tid
		name := l.track
		if l.proc != "" {
			name = l.track + "/" + l.proc
		}
		out = append(out,
			chromeEvent{Name: "thread_name", Ph: "M", Pid: 1, Tid: tid,
				Args: map[string]any{"name": name}},
			chromeEvent{Name: "thread_sort_index", Ph: "M", Pid: 1, Tid: tid,
				Args: map[string]any{"sort_index": tid}})
	}
	us := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
	for _, ev := range events {
		ce := chromeEvent{
			Name: ev.Phase,
			Cat:  ev.Track,
			Ph:   string(ev.Kind),
			Ts:   us(ev.T),
			Pid:  1,
			Tid:  lanes[lane{ev.Track, ev.Proc}],
		}
		if ev.Kind == KindComplete {
			d := us(ev.Dur)
			ce.Dur = &d
		}
		if ev.Kind == KindInstant {
			ce.S = "t"
		}
		args := map[string]any{}
		if ev.Proc != "" {
			args["proc"] = ev.Proc
		}
		if ev.Note != "" {
			args["note"] = ev.Note
		}
		if ev.ArgName != "" {
			args[ev.ArgName] = ev.Arg
		}
		if len(args) > 0 {
			ce.Args = args
		}
		out = append(out, ce)
	}
	doc := map[string]any{
		"traceEvents":     out,
		"displayTimeUnit": "ms",
	}
	if len(metrics) > 0 {
		doc["otherData"] = map[string]any{"metrics": metrics}
	}
	enc := json.NewEncoder(w)
	return enc.Encode(doc)
}
