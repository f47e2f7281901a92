// Package experiments regenerates every table and figure of the paper's
// evaluation (§8) against the model servers: Table 1 (programs, updates
// and engineering effort), Table 2 (mutable tracing pointer statistics),
// Table 3 (run-time overhead by instrumentation level), Figure 3 (state
// transfer time vs open connections), plus the in-text results: memory
// usage, SPEC-like allocator overhead, quiescence and control-migration
// times, and the dirty-tracking state reduction.
//
// Absolute numbers differ from the paper — the substrate is a simulator,
// not the authors' testbed — but each harness reports our measurements
// side by side with the paper's reference values so the shapes can be
// compared: who wins, by what factor, and where the crossovers fall.
package experiments

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/quiesce"
	"repro/internal/servers"
	"repro/internal/workload"
)

// Scale selects experiment sizing: Quick keeps everything test-suite
// friendly; Full approaches the paper's parameters (100k requests, 100
// connections, 50 pool threads).
type Scale int

// Scales.
const (
	Quick Scale = iota
	Full
)

func (s Scale) webRequests() int {
	if s == Full {
		return 100000
	}
	return 400
}

func (s Scale) ftpUsers() int {
	if s == Full {
		return 100
	}
	return 8
}

func (s Scale) ftpCmds() int {
	if s == Full {
		return 50
	}
	return 5
}

func (s Scale) sshSessions() int {
	if s == Full {
		return 20
	}
	return 3
}

func (s Scale) poolThreads() int {
	if s == Full {
		return 50
	}
	return 4
}

func (s Scale) connPoints() []int {
	if s == Full {
		return []int{0, 25, 50, 75, 100}
	}
	return []int{0, 5, 10}
}

// launchServer starts one server on a fresh kernel.
func launchServer(spec *servers.Spec, opts core.Options) (*core.Engine, *kernel.Kernel, error) {
	k := kernel.New()
	servers.SeedFiles(k)
	e, err := core.NewEngine(k, opts)
	if err != nil {
		return nil, nil, fmt.Errorf("experiments: engine %s: %w", spec.Name, err)
	}
	if _, err := e.Launch(spec.Version(0)); err != nil {
		return nil, nil, fmt.Errorf("experiments: launch %s: %w", spec.Name, err)
	}
	return e, k, nil
}

// runBenchWorkload drives the server's §8 benchmark (AB / pyftpdlib / ssh
// test suite stand-ins) and returns the result.
func runBenchWorkload(spec *servers.Spec, k *kernel.Kernel, scale Scale) (workload.BenchResult, error) {
	switch spec.Name {
	case "httpd":
		return workload.RunWebBench(k, spec.Port, scale.webRequests(), 4, false)
	case "nginx":
		return workload.RunWebBench(k, spec.Port, scale.webRequests(), 4, true)
	case "vsftpd":
		return workload.RunFTPBench(k, spec.Port, scale.ftpUsers(), scale.ftpCmds())
	case "sshd":
		return workload.RunSSHBench(k, spec.Port, scale.sshSessions(), scale.ftpCmds())
	}
	return workload.BenchResult{}, fmt.Errorf("experiments: unknown server %s", spec.Name)
}

// profileServer runs the quiescence profiler under the profiling workload
// and returns the report.
func profileServer(spec *servers.Spec, scale Scale) (quiesce.Report, error) {
	if spec.Name == "httpd" {
		old := servers.SetHttpdPoolThreads(scale.poolThreads())
		defer servers.SetHttpdPoolThreads(old)
	}
	prof := quiesce.NewProfiler()
	prof.Start()
	e, k, err := launchServer(spec, core.Options{Profiler: prof})
	if err != nil {
		return quiesce.Report{}, err
	}
	defer e.Shutdown()
	sessions, err := workload.ProfileWorkload(k, spec.Name, spec.Port)
	if err != nil {
		return quiesce.Report{}, err
	}
	defer workload.CloseSessions(sessions)
	time.Sleep(30 * time.Millisecond)
	return prof.Report(), nil
}
