package experiments

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/program"
	"repro/internal/servers"
	"repro/internal/workload"
)

// --- Memory usage (§8, "Memory usage") --------------------------------------

// MemoryRow compares one server's memory footprint with and without MCR
// instrumentation after running the benchmark workload.
type MemoryRow struct {
	Name          string
	BaselineRSS   uint64
	MCRRSS        uint64
	MetadataBytes uint64
}

// Overhead returns the instrumented/baseline RSS ratio.
func (m MemoryRow) Overhead() float64 {
	if m.BaselineRSS == 0 {
		return 0
	}
	return float64(m.MCRRSS+m.MetadataBytes) / float64(m.BaselineRSS)
}

// MemoryResult is the regenerated memory-usage comparison.
type MemoryResult struct {
	Rows []MemoryRow
}

// RunMemory measures resident set size per server at baseline and full
// instrumentation (the paper reports 110%-483.6% RSS overhead, 288.5% on
// average, dominated by tags, logs and metadata).
func RunMemory(scale Scale) (*MemoryResult, error) {
	res := &MemoryResult{}
	for _, spec := range servers.Catalog() {
		if spec.Name == "httpd" {
			old := servers.SetHttpdPoolThreads(scale.poolThreads())
			defer servers.SetHttpdPoolThreads(old)
		}
		row := MemoryRow{Name: spec.Name}
		for _, level := range []program.Instr{program.InstrBaseline, program.InstrQDet} {
			e, k, err := launchServer(spec, core.Options{Instr: level})
			if err != nil {
				return nil, err
			}
			sessions, err := workload.OpenSessions(k, spec.Name, spec.Port, 4)
			if err != nil {
				e.Shutdown()
				return nil, err
			}
			if _, err := runBenchWorkload(spec, k, scale); err != nil {
				e.Shutdown()
				return nil, fmt.Errorf("memory %s: %w", spec.Name, err)
			}
			inst := e.Current()
			if level == program.InstrBaseline {
				row.BaselineRSS = inst.RSSBytes()
			} else {
				row.MCRRSS = inst.RSSBytes()
				row.MetadataBytes = inst.MetadataBytes()
			}
			workload.CloseSessions(sessions)
			e.Shutdown()
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// Render formats the memory comparison.
func (r *MemoryResult) Render() string {
	var b strings.Builder
	b.WriteString("Memory usage: RSS with full MCR instrumentation vs baseline\n")
	fmt.Fprintf(&b, "%-8s %12s %12s %12s %10s\n", "program", "baseline", "mcr-rss", "metadata", "ratio")
	var sum float64
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-8s %12d %12d %12d %9.2fx\n",
			row.Name, row.BaselineRSS, row.MCRRSS, row.MetadataBytes, row.Overhead())
		sum += row.Overhead()
	}
	fmt.Fprintf(&b, "average ratio %.2fx (paper: 2.10x-5.84x RSS, 3.89x average)\n",
		sum/float64(len(r.Rows)))
	return b.String()
}

// --- SPEC-like allocator instrumentation overhead (§8) ----------------------

// SpecRow is one synthetic allocator benchmark.
type SpecRow struct {
	Name     string
	Untagged time.Duration
	Tagged   time.Duration
}

// Overhead returns tagged/untagged.
func (s SpecRow) Overhead() float64 {
	if s.Untagged == 0 {
		return 0
	}
	return float64(s.Tagged) / float64(s.Untagged)
}

// SpecResult is the allocator-instrumentation microbenchmark suite.
type SpecResult struct {
	Rows []SpecRow
}

// specWorkloads are allocation patterns standing in for SPEC CPU2006:
// perlbench-like is the memory-intensive outlier (36% in the paper); the
// others stress allocation mildly (<=5% in the paper).
var specWorkloads = []struct {
	name    string
	allocs  int
	size    uint64
	churn   bool // free and reallocate aggressively
	compute int  // memory-access work per allocation (dilutes tag cost)
}{
	// perlbench is the paper's allocation-bound outlier; the others spend
	// most of their time computing over the data they allocate.
	{"perlbench-like", 60000, 48, true, 0},
	{"gcc-like", 8000, 256, true, 40},
	{"mcf-like", 2000, 4096, false, 120},
	{"sjeng-like", 1000, 64, false, 200},
}

// RunSpec measures the allocator-instrumentation overhead: each workload
// runs against an allocator with tag writes off and on.
func RunSpec(scale Scale) (*SpecResult, error) {
	mult := 1
	if scale == Full {
		mult = 10
	}
	res := &SpecResult{}
	for _, w := range specWorkloads {
		row := SpecRow{Name: w.name}
		for _, tagged := range []bool{false, true} {
			d, err := runAllocBench(w.allocs*mult, w.size, w.churn, tagged, w.compute)
			if err != nil {
				return nil, err
			}
			if tagged {
				row.Tagged = d
			} else {
				row.Untagged = d
			}
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

func runAllocBench(allocs int, size uint64, churn, tagged bool, compute int) (time.Duration, error) {
	as := mem.NewAddressSpace()
	ix := mem.NewObjectIndex()
	heap, err := mem.NewAllocator(as, ix, 0x2000_0000, "bench")
	if err != nil {
		return 0, err
	}
	heap.SetTagging(tagged)
	start := time.Now()
	var live []mem.Addr
	for i := 0; i < allocs; i++ {
		o, err := heap.Alloc(size, nil, uint64(i%13))
		if err != nil {
			return 0, err
		}
		// Touch the object like real code would.
		if err := as.WriteWord(o.Addr, uint64(i)); err != nil {
			return 0, err
		}
		for c := 0; c < compute; c++ {
			off := mem.Addr(uint64(c*8) % (size &^ 7))
			v, err := as.ReadWord(o.Addr + off)
			if err != nil {
				return 0, err
			}
			if err := as.WriteWord(o.Addr+off, v+1); err != nil {
				return 0, err
			}
		}
		live = append(live, o.Addr)
		if churn && len(live) > 64 {
			if err := heap.Free(live[0]); err != nil {
				return 0, err
			}
			live = live[1:]
		}
	}
	return time.Since(start), nil
}

// Render formats the allocator microbenchmarks.
func (r *SpecResult) Render() string {
	var b strings.Builder
	b.WriteString("SPEC-like allocator instrumentation overhead (tag writes on vs off)\n")
	fmt.Fprintf(&b, "%-16s %12s %12s %10s\n", "workload", "untagged", "tagged", "overhead")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-16s %12s %12s %9.1f%%\n",
			row.Name, row.Untagged.Round(time.Microsecond), row.Tagged.Round(time.Microsecond),
			(row.Overhead()-1)*100)
	}
	b.WriteString("paper: <=5% across SPEC CPU2006 except perlbench (36%)\n")
	return b.String()
}

// --- Update time components (§8, "Update time") -----------------------------

// UpdateTimeRow summarizes one server's update-time components.
type UpdateTimeRow struct {
	Name             string
	StartupTime      time.Duration // original startup (record phase)
	QuiesceIdle      time.Duration
	QuiesceLoaded    time.Duration
	ControlMigration time.Duration
	StateTransfer    time.Duration
	Total            time.Duration
}

// UpdateTimeResult is the update-time breakdown experiment.
type UpdateTimeResult struct {
	Rows []UpdateTimeRow
}

// RunUpdateTime measures the three update-time components per server:
// quiescence (idle and under load), control migration (record-replay
// startup) and state transfer.
func RunUpdateTime(scale Scale) (*UpdateTimeResult, error) {
	res := &UpdateTimeResult{}
	for _, spec := range servers.Catalog() {
		if spec.Name == "httpd" {
			old := servers.SetHttpdPoolThreads(scale.poolThreads())
			defer servers.SetHttpdPoolThreads(old)
		}
		e, k, err := launchServer(spec, core.Options{
			QuiesceTimeout: 30 * time.Second,
			StartupTimeout: 30 * time.Second,
		})
		if err != nil {
			return nil, err
		}
		row := UpdateTimeRow{Name: spec.Name, StartupTime: e.Current().StartupDuration()}

		// Idle quiescence.
		inst := e.Current()
		d, err := inst.Quiesce(10 * time.Second)
		if err != nil {
			e.Shutdown()
			return nil, err
		}
		row.QuiesceIdle = d
		inst.Resume()

		// Loaded quiescence + full update.
		sessions, err := workload.OpenSessions(k, spec.Name, spec.Port, scale.connPoints()[1])
		if err != nil {
			e.Shutdown()
			return nil, err
		}
		rep, err := e.Update(spec.Version(1))
		if err != nil {
			e.Shutdown()
			return nil, fmt.Errorf("updatetime %s: %w", spec.Name, err)
		}
		row.QuiesceLoaded = rep.QuiesceTime
		row.ControlMigration = rep.ControlMigrationTime
		row.StateTransfer = rep.TransferWork()
		row.Total = rep.TotalTime
		workload.CloseSessions(sessions)
		e.Shutdown()
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// Render formats the update-time breakdown.
func (r *UpdateTimeResult) Render() string {
	var b strings.Builder
	b.WriteString("Update time components (paper: quiescence <100ms, control migration <50ms, total <1s)\n")
	fmt.Fprintf(&b, "%-8s %12s %12s %12s %12s %12s %12s\n",
		"program", "startup", "q-idle", "q-loaded", "ctl-migr", "transfer", "total")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-8s %12s %12s %12s %12s %12s %12s\n",
			row.Name,
			row.StartupTime.Round(10*time.Microsecond),
			row.QuiesceIdle.Round(10*time.Microsecond),
			row.QuiesceLoaded.Round(10*time.Microsecond),
			row.ControlMigration.Round(10*time.Microsecond),
			row.StateTransfer.Round(10*time.Microsecond),
			row.Total.Round(10*time.Microsecond))
	}
	return b.String()
}
