package experiments

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/program"
	"repro/internal/servers"
	"repro/internal/trace"
	"repro/internal/types"
	"repro/internal/workload"
)

// --- Table 1 -----------------------------------------------------------------

// Table1Row is one measured row of Table 1.
type Table1Row struct {
	Name string
	// Quiescence profiling.
	SL, LL, QP, Per, Vol int
	// Updates considered.
	Updates int
	// Type changes across the stream (the paper also counts functions and
	// variables from the C patches; our model measures type changes).
	TypesChanged int
	// Engineering effort.
	AnnLOC, STLOC int
	// Paper reference values.
	Paper servers.Table1Row
}

// Table1Result is the regenerated Table 1.
type Table1Result struct {
	Rows []Table1Row
}

// RunTable1 regenerates Table 1: per server, profile the quiescent points
// under the test workload, walk the update stream counting type changes,
// and account the annotation effort.
func RunTable1(scale Scale) (*Table1Result, error) {
	res := &Table1Result{}
	for _, spec := range servers.Catalog() {
		rep, err := profileServer(spec, scale)
		if err != nil {
			return nil, fmt.Errorf("table1 %s: %w", spec.Name, err)
		}
		row := Table1Row{
			Name:    spec.Name,
			SL:      rep.ShortLived(),
			LL:      rep.LongLived(),
			QP:      rep.QuiescentPoints(),
			Per:     rep.Persistent(),
			Vol:     rep.Volatile(),
			Updates: spec.NumVersions - 1,
			Paper:   spec.Paper,
		}
		for i := 1; i < spec.NumVersions; i++ {
			d := types.DiffRegistries(spec.Version(i-1).Types, spec.Version(i).Types)
			row.TypesChanged += len(d.Added) + len(d.Deleted) + len(d.Modified)
		}
		last := spec.Version(spec.NumVersions - 1)
		row.AnnLOC = last.Annotations.AnnotationLOC()
		row.STLOC = last.Annotations.StateTransferLOC() + last.StateTransferLOC
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// Render formats the result as the paper's Table 1 with reference values.
func (r *Table1Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 1: programs, updates and engineering effort (measured | paper)\n")
	fmt.Fprintf(&b, "%-8s %13s %13s %13s %13s %13s %9s %11s %12s %12s\n",
		"program", "SL", "LL", "QP", "Per", "Vol", "updates", "types-chg", "Ann LOC", "ST LOC")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-8s %7d | %-3d %7d | %-3d %7d | %-3d %7d | %-3d %7d | %-3d %3d | %-3d %5d | %-3d %6d | %-4d %6d | %-4d\n",
			row.Name,
			row.SL, row.Paper.SL, row.LL, row.Paper.LL, row.QP, row.Paper.QP,
			row.Per, row.Paper.Per, row.Vol, row.Paper.Vol,
			row.Updates, row.Paper.Updates,
			row.TypesChanged, row.Paper.Typ,
			row.AnnLOC, row.Paper.AnnLOC,
			row.STLOC, row.Paper.STLOC)
	}
	return b.String()
}

// tableConfig is one row of Tables 2 and 3: nginxreg repeats nginx with
// instrumented region allocators.
type tableConfig struct {
	name       string
	spec       *servers.Spec
	regionInst bool
}

func tableConfigs() []tableConfig {
	return []tableConfig{
		{"httpd", servers.HttpdSpec(), false},
		{"nginx", servers.NginxSpec(), false},
		{"nginxreg", servers.NginxSpec(), true},
		{"vsftpd", servers.VsftpdSpec(), false},
		{"sshd", servers.SshdSpec(), false},
	}
}

// --- Table 2 -----------------------------------------------------------------

// Table2Row is one measured row of Table 2 (pointer statistics after the
// benchmark workload).
type Table2Row struct {
	Name  string
	Stats trace.PointerStats
}

// Table2Result is the regenerated Table 2.
type Table2Result struct {
	Rows []Table2Row
}

// RunTable2 regenerates Table 2: run each server's benchmark, quiesce,
// and aggregate the precise/likely pointer census across processes. The
// nginxreg row repeats nginx with instrumented region allocators.
func RunTable2(scale Scale) (*Table2Result, error) {
	res := &Table2Result{}
	for _, tc := range tableConfigs() {
		if tc.spec.Name == "httpd" {
			old := servers.SetHttpdPoolThreads(scale.poolThreads())
			defer servers.SetHttpdPoolThreads(old)
		}
		e, k, err := launchServer(tc.spec, core.Options{RegionInstrumented: tc.regionInst})
		if err != nil {
			return nil, err
		}
		// Keep sessions open so post-startup state is populated, then
		// also run the throughput benchmark. The census measures the live
		// image: request state of closed connections was already released
		// by the servers (pool/region destruction), so the open sessions
		// carry sustained traffic of their own.
		sessions, err := workload.OpenSessions(k, tc.spec.Name, tc.spec.Port, 6)
		if err != nil {
			e.Shutdown()
			return nil, fmt.Errorf("table2 %s: %w", tc.name, err)
		}
		if _, err := runBenchWorkload(tc.spec, k, scale); err != nil {
			e.Shutdown()
			return nil, fmt.Errorf("table2 %s bench: %w", tc.name, err)
		}
		if err := driveTableSessions(tc.spec, sessions, scale); err != nil {
			e.Shutdown()
			return nil, fmt.Errorf("table2 %s sessions: %w", tc.name, err)
		}
		inst := e.Current()
		if _, err := inst.Quiesce(10 * time.Second); err != nil {
			e.Shutdown()
			return nil, err
		}
		analyses, err := trace.AnalyzeInstance(inst, types.DefaultPolicy(), nil)
		if err != nil {
			e.Shutdown()
			return nil, err
		}
		inst.Resume()
		row := Table2Row{Name: tc.name, Stats: trace.AggregateStats(analyses)}
		res.Rows = append(res.Rows, row)
		workload.CloseSessions(sessions)
		e.Shutdown()
	}
	return res, nil
}

// Render formats the regenerated Table 2.
func (r *Table2Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 2: mutable tracing statistics after benchmark execution\n")
	fmt.Fprintf(&b, "%-9s | %28s | %28s\n", "", "precise pointers", "likely pointers")
	fmt.Fprintf(&b, "%-9s | %6s %6s %6s %6s | %6s %6s %6s %6s\n",
		"program", "ptr", "s.stat", "s.dyn", "t.lib", "ptr", "s.stat", "s.dyn", "t.lib")
	for _, row := range r.Rows {
		p, l := row.Stats.Precise, row.Stats.Likely
		fmt.Fprintf(&b, "%-9s | %6d %6d %6d %6d | %6d %6d %6d %6d\n",
			row.Name, p.Ptr, p.SrcStatic, p.SrcDynamic, p.TargLib,
			l.Ptr, l.SrcStatic, l.SrcDynamic, l.TargLib)
	}
	b.WriteString("paper:      httpd likely=16252, nginx likely=4049, nginxreg likely=3522, vsftpd likely=6, sshd likely=56\n")
	return b.String()
}

// --- Table 3 -----------------------------------------------------------------

// Table3Row is one server's normalized run times per instrumentation level.
type Table3Row struct {
	Name string
	// Normalized[i] is the run time at instrumentation level i+1
	// (baseline..+qdet), normalized against the baseline.
	Normalized [5]float64
	// PaperRow holds the paper's Unblock/+SInstr/+DInstr/+QDet values.
	PaperRow [4]float64
}

// Table3Result is the regenerated Table 3.
type Table3Result struct {
	Rows []Table3Row
}

var table3Paper = map[string][4]float64{
	"httpd":    {0.977, 1.040, 1.043, 1.047},
	"nginx":    {1.000, 1.000, 1.000, 1.000},
	"nginxreg": {1.000, 1.175, 1.192, 1.186},
	"vsftpd":   {1.024, 1.027, 1.028, 1.028},
	"sshd":     {0.999, 0.999, 1.001, 1.001},
}

// RunTable3 regenerates Table 3: per server, run the benchmark at every
// instrumentation level and normalize against the uninstrumented baseline.
func RunTable3(scale Scale, reps int) (*Table3Result, error) {
	if reps < 1 {
		reps = 1
	}
	res := &Table3Result{}
	levels := []program.Instr{program.InstrBaseline, program.InstrUnblock,
		program.InstrStatic, program.InstrDynamic, program.InstrQDet}
	for _, tc := range tableConfigs() {
		if tc.spec.Name == "httpd" {
			old := servers.SetHttpdPoolThreads(scale.poolThreads())
			defer servers.SetHttpdPoolThreads(old)
		}
		row := Table3Row{Name: tc.name, PaperRow: table3Paper[tc.name]}
		var raw [5]time.Duration
		for li, level := range levels {
			var best time.Duration
			for rep := 0; rep < reps; rep++ {
				e, k, err := launchServer(tc.spec, core.Options{Instr: level, RegionInstrumented: tc.regionInst})
				if err != nil {
					return nil, err
				}
				bench, err := runBenchWorkload(tc.spec, k, scale)
				e.Shutdown()
				if err != nil {
					return nil, fmt.Errorf("table3 %s@%v: %w", tc.name, level, err)
				}
				if best == 0 || bench.Elapsed < best {
					best = bench.Elapsed
				}
			}
			raw[li] = best
		}
		for i := range raw {
			row.Normalized[i] = float64(raw[i]) / float64(raw[0])
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// Render formats the regenerated Table 3 with paper reference values.
func (r *Table3Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 3: run time normalized against baseline (measured | paper)\n")
	fmt.Fprintf(&b, "%-9s %15s %15s %15s %15s\n", "program", "Unblock", "+SInstr", "+DInstr", "+QDet")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-9s ", row.Name)
		for i := 1; i < 5; i++ {
			fmt.Fprintf(&b, "%7.3f | %-5.3f ", row.Normalized[i], row.PaperRow[i-1])
		}
		b.WriteString("\n")
	}
	return b.String()
}
