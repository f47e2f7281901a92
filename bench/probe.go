package main

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/mem"
	"repro/internal/program"
	"repro/internal/trace"
	"repro/internal/types"
)

// span is one benchmark-side trace span: a call from the benchmark into
// a layer's public function, or a phase of the cycle enclosing such
// calls. Times are microseconds since the run started; Parent is the
// index of the enclosing span, -1 for a cycle's root.
type span struct {
	Name    string  `json:"name"`
	StartUs float64 `json:"start_us"`
	EndUs   float64 `json:"end_us"`
	Parent  int     `json:"parent"`
	Cycle   int     `json:"cycle"`
}

// tracer collects spans in memory; they are written out when the run
// ends. A nil tracer records nothing, so untraced runs share the code
// path. It is used from the benchmark's main goroutine only.
type tracer struct {
	t0    time.Time
	cycle int
	spans []span
	open  []int // stack of enclosing spans
}

// span runs fn, records it as a child of whatever span is open, and
// returns how long it took.
func (t *tracer) span(name string, fn func()) time.Duration {
	start := time.Now()
	if t == nil {
		fn()
		return time.Since(start)
	}
	parent := -1
	if len(t.open) > 0 {
		parent = t.open[len(t.open)-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{Name: name, StartUs: us(start.Sub(t.t0)), Parent: parent, Cycle: t.cycle})
	t.open = append(t.open, id)
	fn()
	d := time.Since(start)
	t.open = t.open[:len(t.open)-1]
	t.spans[id].EndUs = t.spans[id].StartUs + us(d)
	return d
}

func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

const (
	probeSmallOps = 50000     // 64-byte reads/writes, index lookups, alloc+free pairs
	probeChunk    = 64 << 10  // bulk reads and writes move at most this much per call
	probePages    = 2048      // page frames donated and adopted back
	probeBulkCap  = 256 << 20 // never move more than this in one bulk pass
)

// probe runs one cycle's set-up, quiesces the server, and times direct
// calls into each layer's public functions over the state the measured
// update would have worked on. The memory-substrate calls run on clones
// of the largest process's address space, object index and heap, so the
// server itself is only read; it is resumed and must still answer.
func (r *run) probe(cycle int) (map[string]float64, error) {
	vals := map[string]float64{}
	r.tr.cycle = cycle
	var (
		s   *server
		err error
	)
	// The set-up's own numbers belong to the measured cycles.
	r.tr.span("probe.setup", func() { s, err = r.setUp(cycle, false, map[string]float64{}) })
	if err != nil {
		return nil, err
	}
	defer s.close()
	if !r.baseUpdates(s, false) {
		return nil, errors.New("bench: a base update did not commit")
	}
	inst := s.e.Current()
	if _, err := inst.Quiesce(10 * time.Second); err != nil {
		return nil, err
	}
	r.tr.span("probe", func() { err = r.probeQuiesced(inst, vals) })
	inst.Resume()
	if err != nil {
		return nil, err
	}
	after := closedLoop(s.load, 100)
	r.count(after)
	if _, bad := after.total(); bad > 0 {
		return nil, errors.New("bench: server answered wrongly after the probe")
	}
	return vals, nil
}

func (r *run) probeQuiesced(inst *program.Instance, vals map[string]float64) error {
	procs := inst.Procs()
	var big *program.Proc
	objects, records := 0, 0
	var stateBytes uint64
	for _, p := range procs {
		objects += p.Index().Len()
		if l := p.Log(); l != nil { // a process forked after start-up records none
			records += l.Len()
		}
		for _, o := range p.Index().All() {
			stateBytes += o.Size
		}
		if big == nil || p.Space().RSSBytes() > big.Space().RSSBytes() {
			big = p
		}
	}
	vals["mem.rss_mb"] = float64(inst.RSSBytes()) / 1e6
	vals["mem.objects"] = float64(objects)
	vals["program.procs"] = float64(len(procs))
	vals["replaylog.log_records"] = float64(records)

	// trace: conservative analysis and the full-state digest.
	var err error
	d := r.tr.span("trace.AnalyzeInstance", func() {
		_, err = trace.AnalyzeInstance(inst, types.DefaultPolicy(), nil)
	})
	if err != nil {
		return err
	}
	vals["trace.analyze_ms"] = ms(d)
	vals["trace.analyze_mobj_per_s"] = float64(objects) / 1e6 / d.Seconds()
	d = r.tr.span("trace.StateDigest", func() { _, err = trace.StateDigest(inst) })
	if err != nil {
		return err
	}
	vals["trace.digest_ms"] = ms(d)
	vals["trace.digest_mbps"] = float64(stateBytes) / 1e6 / d.Seconds()

	// checkpoint: one epoch over everything dirty since start-up — the
	// in-window handoff epoch of a cold update — then hand the bits back.
	snap := checkpoint.New(inst, checkpoint.Options{})
	var ep checkpoint.EpochStats
	d = r.tr.span("checkpoint.Epoch", func() { ep = snap.Epoch() })
	r.tr.span("checkpoint.Discard", snap.Discard)
	vals["checkpoint.epoch_ms"] = ms(d)
	vals["checkpoint.epoch_pages"] = float64(ep.DirtyPages)
	vals["checkpoint.epoch_pages_per_s"] = float64(ep.DirtyPages) / d.Seconds()

	// types: the registry diff of the measured version pair.
	from, to := r.spec.Version(r.def.base).Types, r.spec.Version(r.def.base+1).Types
	const diffs = 200
	d = r.tr.span("types.DiffRegistries", func() {
		for i := 0; i < diffs; i++ {
			types.DiffRegistries(from, to)
		}
	})
	vals["types.diff_registry_us"] = us(d) / diffs

	r.probeMem(big, vals)
	return nil
}

// probeMem times the memory substrate on clones of p's address space,
// object index and heap.
func (r *run) probeMem(p *program.Proc, vals map[string]float64) {
	var as *mem.AddressSpace
	vals["mem.clone_ms"] = ms(r.tr.span("mem.AddressSpace.Clone", func() { as = p.Space().Clone() }))
	ix := p.Index().Clone()
	heap := p.Heap().CloneInto(as, ix)
	objs := ix.All()

	// Soft-dirty bookkeeping first, while the clone still carries the
	// server's own dirty set.
	var dirty []mem.Addr
	n := 0
	vals["mem.softdirty_count_us"] = us(r.tr.span("mem.SoftDirtyCount", func() { n = as.SoftDirtyCount() }))
	vals["mem.softdirty_pages"] = float64(n)
	vals["mem.softdirty_scan_us"] = us(r.tr.span("mem.ReadAndClearSoftDirty", func() { dirty = as.ReadAndClearSoftDirty() }))
	vals["mem.index_onpages_us"] = us(r.tr.span("mem.ObjectIndex.OnPages", func() { ix.OnPages(dirty) }))

	// Bulk reads and writes: every object, in chunks, as the copy path
	// moves them. Writing back what was read leaves the contents alone.
	buf := make([]byte, probeChunk)
	bulk := func(op func(mem.Addr, []byte) error) (moved uint64) {
		for _, o := range objs {
			for off := uint64(0); off < o.Size && moved < probeBulkCap; off += probeChunk {
				n := o.Size - off
				if n > probeChunk {
					n = probeChunk
				}
				if op(o.Addr+mem.Addr(off), buf[:n]) == nil {
					moved += n
				}
			}
		}
		return moved
	}
	var moved uint64
	d := r.tr.span("mem.ReadAt(bulk)", func() { moved = bulk(as.ReadAt) })
	vals["mem.read_mbps"] = float64(moved) / 1e6 / d.Seconds()
	d = r.tr.span("mem.WriteAt(bulk)", func() { moved = bulk(as.WriteAt) })
	vals["mem.write_mbps"] = float64(moved) / 1e6 / d.Seconds()

	// Small operations at addresses spread over the objects: 64-byte
	// reads and writes, and interior-pointer lookups.
	var addrs []mem.Addr
	for len(addrs) < probeSmallOps {
		before := len(addrs)
		for _, o := range objs {
			if o.Size < 64 {
				continue
			}
			step := uint64(4096 + 64)
			for off := uint64(len(addrs)%61) * 8; off+64 <= o.Size && len(addrs) < probeSmallOps; off += step {
				addrs = append(addrs, o.Addr+mem.Addr(off))
			}
		}
		if len(addrs) == before {
			break
		}
	}
	if len(addrs) > 0 {
		small := buf[:64]
		per := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / float64(len(addrs)) }
		vals["mem.read_small_ns"] = per(r.tr.span("mem.ReadAt(64B)", func() {
			for _, a := range addrs {
				_ = as.ReadAt(a, small) // addresses lie inside live objects
			}
		}))
		vals["mem.write_small_ns"] = per(r.tr.span("mem.WriteAt(64B)", func() {
			for _, a := range addrs {
				_ = as.WriteAt(a, small)
			}
		}))
		vals["mem.index_containing_ns"] = per(r.tr.span("mem.ObjectIndex.Containing", func() {
			for _, a := range addrs {
				ix.Containing(a + 8)
			}
		}))
	}

	// Frame handoff: donate a page and adopt it straight back.
	pages := dirty
	if len(pages) > probePages {
		pages = pages[:probePages]
	}
	if len(pages) > 0 {
		d = r.tr.span("mem.DonatePage+AdoptPage", func() {
			for _, pb := range pages {
				if f, err := as.DonatePage(pb); err == nil {
					_ = as.AdoptPage(pb, f) // the slot was vacated one line up
				}
			}
		})
		vals["mem.donate_adopt_us_per_page"] = us(d) / float64(len(pages))
	}

	d = r.tr.span("mem.Allocator.Alloc+Free", func() {
		for i := 0; i < probeSmallOps; i++ {
			if o, err := heap.Alloc(64, nil, 1); err == nil {
				_ = heap.Free(o.Addr) // just allocated
			}
		}
	})
	vals["mem.alloc_ns"] = float64(d.Nanoseconds()) / probeSmallOps
}
