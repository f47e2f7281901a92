// Benchmarks regenerating the paper's evaluation artifacts (one benchmark
// per table/figure, plus ablations of replay matching, the tracing policy
// and the soft-dirty filter). Run with:
//
//	go test -bench=. -benchmem
//
// Shapes to compare against the paper (absolute numbers are simulator
// numbers): instrumentation levels order baseline <= unblock < +sinstr ~
// +dinstr ~ +qdet (Table 3); state transfer grows with connections,
// steeper for process-per-connection servers (Figure 3); call-stack-ID
// replay matching tolerates reordering that global ordering conflicts on;
// allocator tagging costs most on allocation-intensive workloads.
package mcr

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/kernel"
	"repro/internal/mem"
	"repro/internal/program"
	"repro/internal/quiesce"
	"repro/internal/replaylog"
	"repro/internal/servers"
	"repro/internal/trace"
	"repro/internal/types"
	"repro/internal/workload"
)

func launchBench(b *testing.B, spec *servers.Spec, opts core.Options) (*core.Engine, *kernel.Kernel) {
	b.Helper()
	if spec.Name == "httpd" {
		servers.SetHttpdPoolThreads(4)
	}
	k := kernel.New()
	servers.SeedFiles(k)
	e, err := core.NewEngine(k, opts)
	if err != nil {
		b.Fatalf("engine %s: %v", spec.Name, err)
	}
	if _, err := e.Launch(spec.Version(0)); err != nil {
		b.Fatalf("launch %s: %v", spec.Name, err)
	}
	return e, k
}

// BenchmarkTable1Profiling measures a full quiescence-profiling run
// (launch, workload, report) per server.
func BenchmarkTable1Profiling(b *testing.B) {
	for _, spec := range servers.Catalog() {
		spec := spec
		b.Run(spec.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				prof := quiesce.NewProfiler()
				prof.Start()
				e, k := launchBench(b, spec, core.Options{Profiler: prof})
				sessions, err := workload.ProfileWorkload(k, spec.Name, spec.Port)
				if err != nil {
					b.Fatal(err)
				}
				time.Sleep(50 * time.Millisecond) // accumulate QP residency
				rep := prof.Report()
				if rep.QuiescentPoints() != spec.Paper.QP {
					b.Fatalf("QP = %d, want %d", rep.QuiescentPoints(), spec.Paper.QP)
				}
				b.StopTimer()
				workload.CloseSessions(sessions)
				e.Shutdown()
				b.StartTimer()
			}
		})
	}
}

// BenchmarkTable2Analysis measures the conservative pointer analysis over
// a loaded server image.
func BenchmarkTable2Analysis(b *testing.B) {
	for _, spec := range servers.Catalog() {
		spec := spec
		b.Run(spec.Name, func(b *testing.B) {
			e, k := launchBench(b, spec, core.Options{})
			sessions, err := workload.OpenSessions(k, spec.Name, spec.Port, 4)
			if err != nil {
				b.Fatal(err)
			}
			inst := e.Current()
			if _, err := inst.Quiesce(10 * time.Second); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := trace.AnalyzeInstance(inst, types.DefaultPolicy(), nil); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			inst.Resume()
			workload.CloseSessions(sessions)
			e.Shutdown()
		})
	}
}

// BenchmarkTable3Overhead measures the benchmark workload at each
// instrumentation level (normalize level times against baseline by hand
// or via mcr-bench -table 3).
func BenchmarkTable3Overhead(b *testing.B) {
	levels := []program.Instr{program.InstrBaseline, program.InstrUnblock,
		program.InstrStatic, program.InstrDynamic, program.InstrQDet}
	for _, spec := range servers.Catalog() {
		spec := spec
		for _, level := range levels {
			level := level
			b.Run(fmt.Sprintf("%s/%v", spec.Name, level), func(b *testing.B) {
				e, k := launchBench(b, spec, core.Options{Instr: level})
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					var err error
					switch spec.Name {
					case "httpd":
						_, err = workload.RunWebBench(k, spec.Port, 100, 2, false)
					case "nginx":
						_, err = workload.RunWebBench(k, spec.Port, 100, 2, true)
					case "vsftpd":
						_, err = workload.RunFTPBench(k, spec.Port, 4, 4)
					case "sshd":
						_, err = workload.RunSSHBench(k, spec.Port, 2, 4)
					}
					if err != nil {
						b.Fatal(err)
					}
				}
				b.StopTimer()
				e.Shutdown()
			})
		}
	}
}

// BenchmarkFigure3StateTransfer measures one full live update at varying
// numbers of open connections (state-transfer time dominates the trend).
func BenchmarkFigure3StateTransfer(b *testing.B) {
	for _, spec := range servers.Catalog() {
		spec := spec
		for _, conns := range []int{0, 5, 10} {
			conns := conns
			b.Run(fmt.Sprintf("%s/conns=%d", spec.Name, conns), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					e, k := launchBench(b, spec, core.Options{
						QuiesceTimeout: 30 * time.Second,
						StartupTimeout: 30 * time.Second,
					})
					sessions, err := workload.OpenSessions(k, spec.Name, spec.Port, conns)
					if err != nil {
						b.Fatal(err)
					}
					b.StartTimer()
					rep, err := e.Update(spec.Version(1))
					if err != nil {
						b.Fatal(err)
					}
					b.StopTimer()
					b.ReportMetric(float64(rep.TransferWork().Microseconds()), "transfer-µs")
					workload.CloseSessions(sessions)
					e.Shutdown()
					b.StartTimer()
				}
			})
		}
	}
}

// BenchmarkUpdateTime measures one complete live update per server (the
// <1s update-time claim).
func BenchmarkUpdateTime(b *testing.B) {
	for _, spec := range servers.Catalog() {
		spec := spec
		b.Run(spec.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				e, k := launchBench(b, spec, core.Options{})
				sessions, err := workload.OpenSessions(k, spec.Name, spec.Port, 2)
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				if _, err := e.Update(spec.Version(1)); err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				workload.CloseSessions(sessions)
				e.Shutdown()
				b.StartTimer()
			}
		})
	}
}

// BenchmarkQuiescence measures barrier convergence on a loaded server
// (the <100ms quiescence-time claim).
func BenchmarkQuiescence(b *testing.B) {
	for _, spec := range servers.Catalog() {
		spec := spec
		b.Run(spec.Name, func(b *testing.B) {
			e, k := launchBench(b, spec, core.Options{})
			sessions, err := workload.OpenSessions(k, spec.Name, spec.Port, 4)
			if err != nil {
				b.Fatal(err)
			}
			inst := e.Current()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				d, err := inst.Quiesce(10 * time.Second)
				if err != nil {
					b.Fatal(err)
				}
				inst.Resume()
				b.ReportMetric(float64(d.Microseconds()), "quiesce-µs")
			}
			b.StopTimer()
			workload.CloseSessions(sessions)
			e.Shutdown()
		})
	}
}

// BenchmarkAllocInstrumentation is the SPEC-like allocator microbenchmark
// (S1): allocation-heavy churn with tag writes off and on.
func BenchmarkAllocInstrumentation(b *testing.B) {
	for _, tagged := range []bool{false, true} {
		tagged := tagged
		name := "untagged"
		if tagged {
			name = "tagged"
		}
		b.Run(name, func(b *testing.B) {
			as := mem.NewAddressSpace()
			ix := mem.NewObjectIndex()
			heap, err := mem.NewAllocator(as, ix, 0x2000_0000, "bench")
			if err != nil {
				b.Fatal(err)
			}
			heap.SetTagging(tagged)
			var live []mem.Addr
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				o, err := heap.Alloc(48, nil, uint64(i%13))
				if err != nil {
					b.Fatal(err)
				}
				live = append(live, o.Addr)
				if len(live) > 64 {
					if err := heap.Free(live[0]); err != nil {
						b.Fatal(err)
					}
					live = live[1:]
				}
			}
		})
	}
}

// BenchmarkReplayMatching is the matching-strategy ablation: call-stack-ID
// matching vs the global-ordering baseline on a reordered startup.
func BenchmarkReplayMatching(b *testing.B) {
	mkLog := func() *replaylog.Log {
		l := replaylog.NewLog()
		for i := 0; i < 64; i++ {
			stack := []string{"main", fmt.Sprintf("init_%d", i%8)}
			l.Append(replaylog.Record{
				StackID: replaylog.StackID(stack), Stack: stack,
				Call: "socket", Args: []any{i}, Result: i + 3, Immutable: true,
			})
		}
		l.Seal()
		return l
	}
	for _, strat := range []replaylog.Strategy{replaylog.StrategyStackID, replaylog.StrategyGlobalOrder} {
		strat := strat
		name := map[replaylog.Strategy]string{
			replaylog.StrategyStackID:     "stackid",
			replaylog.StrategyGlobalOrder: "globalorder",
		}[strat]
		b.Run(name, func(b *testing.B) {
			log := mkLog()
			conflicts := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rp := replaylog.NewReplayer(log, strat)
				// Replay with per-site reordering (site order reversed).
				for site := 7; site >= 0; site-- {
					for j := site; j < 64; j += 8 {
						stack := []string{"main", fmt.Sprintf("init_%d", site)}
						_, out := rp.Match(replaylog.StackID(stack), stack, "socket", []any{j})
						if out == replaylog.Conflicted {
							conflicts++
						}
					}
				}
			}
			b.ReportMetric(float64(conflicts)/float64(b.N), "conflicts/op")
		})
	}
}

// BenchmarkTracingPolicy is the hybrid-vs-precise policy ablation: the
// conservative analysis under the default (hybrid) policy against the
// fully precise policy (which misses hidden pointers but scans less).
func BenchmarkTracingPolicy(b *testing.B) {
	e, k := launchBench(b, servers.NginxSpec(), core.Options{})
	defer e.Shutdown()
	sessions, err := workload.OpenSessions(k, "nginx", servers.NginxPort, 8)
	if err != nil {
		b.Fatal(err)
	}
	defer workload.CloseSessions(sessions)
	inst := e.Current()
	if _, err := inst.Quiesce(10 * time.Second); err != nil {
		b.Fatal(err)
	}
	defer inst.Resume()
	for _, cfg := range []struct {
		name string
		pol  types.Policy
	}{
		{"hybrid-default", types.DefaultPolicy()},
		{"fully-precise", types.FullyPrecisePolicy()},
	} {
		cfg := cfg
		b.Run(cfg.name, func(b *testing.B) {
			pinned := 0
			for i := 0; i < b.N; i++ {
				analyses, err := trace.AnalyzeInstance(inst, cfg.pol, nil)
				if err != nil {
					b.Fatal(err)
				}
				for _, an := range analyses {
					pinned += len(an.Immutable)
				}
			}
			b.ReportMetric(float64(pinned)/float64(b.N), "immutable/op")
		})
	}
}

// BenchmarkDirtyFilter is the soft-dirty ablation: transfer volume with
// and without dirty-object filtering.
func BenchmarkDirtyFilter(b *testing.B) {
	for _, disable := range []bool{false, true} {
		disable := disable
		name := "filtered"
		if disable {
			name = "unfiltered"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				e, k := launchBench(b, servers.NginxSpec(), core.Options{DisableDirtyFilter: disable})
				sessions, err := workload.OpenSessions(k, "nginx", servers.NginxPort, 5)
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				rep, err := e.Update(servers.NginxVersion(1))
				if err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				b.ReportMetric(float64(rep.Transfer.BytesTransferred), "bytes/op")
				workload.CloseSessions(sessions)
				e.Shutdown()
				b.StartTimer()
			}
		})
	}
}

// BenchmarkMemoryFootprint reports instrumented-vs-baseline RSS (the
// memory-usage experiment M1) as custom metrics.
func BenchmarkMemoryFootprint(b *testing.B) {
	res, err := experiments.RunMemory(experiments.Quick)
	if err != nil {
		b.Fatal(err)
	}
	for _, row := range res.Rows {
		row := row
		b.Run(row.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				// The measurement was taken once above; report it per run.
			}
			b.ReportMetric(row.Overhead(), "rss-ratio")
			b.ReportMetric(float64(row.MetadataBytes), "metadata-bytes")
		})
	}
}
