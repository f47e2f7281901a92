// Package checkpoint holds the warm-standby readiness daemon: between
// updates it keeps the running instance's conservative analysis current
// (trace.WarmAnalysis), so an update can begin at quiescence with that
// work already done. The daemon copies nothing: the update reads every
// transferred byte out of quiesced memory, filtered by the soft-dirty
// bits, which nothing clears after startup.
//
// Snapshotter exists only for the benchmark's checkpoint.epoch_* rows
// (bench/probe.go). Nothing in the engine, the transfer or the daemon
// calls it.
package checkpoint

import "repro/internal/program"

// Options configures a Snapshotter. It has no fields.
//
// Deprecated: kept only for the benchmark's checkpoint.epoch_* rows; it
// goes with them.
type Options struct{}

// EpochStats describes one epoch.
//
// Deprecated: kept only for the benchmark's checkpoint.epoch_* rows; it
// goes with them.
type EpochStats struct {
	DirtyPages int // soft-dirty pages whose objects the epoch read
}

// Snapshotter reads the objects on a running instance's dirty pages.
//
// Deprecated: kept only for the benchmark's checkpoint.epoch_* rows; it
// goes with them.
type Snapshotter struct {
	inst *program.Instance
}

// New builds a snapshotter over the running instance.
//
// Deprecated: kept only for the benchmark's checkpoint.epoch_* rows; it
// goes with them.
func New(inst *program.Instance, _ Options) *Snapshotter {
	return &Snapshotter{inst: inst}
}

// Epoch lists every live process's soft-dirty pages and reads the objects
// on them. It clears no bit and keeps no copy, so the dirty set an update
// reads at quiescence is untouched. Safe
// to call while the instance's threads run: the reads synchronize through
// each address space's lock.
//
// Deprecated: kept only for the benchmark's checkpoint.epoch_ms,
// checkpoint.epoch_pages and checkpoint.epoch_pages_per_s rows; it goes
// with them.
func (s *Snapshotter) Epoch() EpochStats {
	var es EpochStats
	var buf []byte
	for _, p := range s.inst.Procs() {
		pages := p.Space().SoftDirtyPages()
		es.DirtyPages += len(pages)
		for _, o := range p.Index().OnPages(pages) {
			if uint64(cap(buf)) < o.Size {
				buf = make([]byte, o.Size)
			}
			// An object unmapped under the read is simply not read.
			_ = p.Space().ReadAt(o.Addr, buf[:o.Size])
		}
	}
	return es
}

// Discard does nothing: an epoch holds nothing to hand back.
//
// Deprecated: kept only for the benchmark's checkpoint.epoch_* rows; it
// goes with them.
func (s *Snapshotter) Discard() {}
