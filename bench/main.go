// Command bench is the repository's live-update benchmark: it drives the
// model servers of internal/servers through core.Engine from outside, as
// an operator and two clients would, and prints every end-to-end and
// per-layer metric of BENCHMARK.json by name and unit. See README.md in
// this directory for the workloads, the metrics and how to read them.
//
//	go run ./bench                          every workload, each in its own process
//	go run ./bench -workload nginx-copy     one workload; last line is the result object
//	go run ./bench -trace 1                 the traced pass: per-layer metrics, span files
//	go run ./bench -compare a.json b.json   two -out files side by side, against the bounds
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"

	"repro/internal/servers"
)

// config is one invocation's settings.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	smoke    bool
	out      string // result document
	outDir   string // span files
}

type environment struct {
	GoVersion  string  `json:"go_version"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Trace      bool    `json:"trace"`
	Commit     string  `json:"commit"`
}

// row is the one result schema: a metric of either kind on one workload.
type row struct {
	Workload string `json:"workload"`
	Metric   string `json:"metric"`
	Unit     string `json:"unit"`
	summary
}

type document struct {
	Env  environment `json:"env"`
	Rows []row       `json:"rows"`
}

// result is the last line a single-workload run prints.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]resultValue `json:"metrics"`
}

type resultValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 4))
	var cfg config
	var trace int
	var compare bool
	flag.StringVar(&cfg.workload, "workload", "", "run this workload only (default: all, each in a child process)")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed for request padding and idle-session user names")
	flag.Float64Var(&cfg.seconds, "seconds", 20, "how long one workload's run lasts")
	flag.IntVar(&trace, "trace", 0, "1: traced pass (audit options, recorder on, probe cycle, span files)")
	flag.BoolVar(&cfg.smoke, "smoke", false, "one small cycle per workload, no timing gates")
	flag.StringVar(&cfg.out, "out", "", "also write the result document to this file")
	flag.StringVar(&cfg.outDir, "outdir", filepath.Join("bench", "out"), "directory for span files")
	flag.BoolVar(&compare, "compare", false, "compare two result documents: -compare a.json b.json")
	flag.Parse()
	cfg.trace = trace != 0

	var err error
	switch {
	case compare:
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: bench -compare a.json b.json")
			os.Exit(2)
		}
		err = compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
	case cfg.workload == "":
		err = runAll(cfg)
	default:
		err = runOne(cfg, os.Stdout)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func (cfg config) env() environment {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	return environment{GoVersion: runtime.Version(), NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Seed: cfg.seed, Seconds: cfg.seconds, Trace: cfg.trace, Commit: commit}
}

// runAll runs every workload in a fresh child process, so one workload's
// heap and peak RSS never colour the next, and merges their documents.
func runAll(cfg config) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return err
	}
	doc := document{Env: cfg.env()}
	var failed []string
	for _, w := range workloads {
		part := filepath.Join(cfg.outDir, "result-"+w.name+".json")
		args := []string{"-workload", w.name, "-seed", strconv.FormatInt(cfg.seed, 10),
			"-seconds", strconv.FormatFloat(cfg.seconds, 'f', -1, 64), "-outdir", cfg.outDir, "-out", part}
		if cfg.trace {
			args = append(args, "-trace", "1")
		}
		if cfg.smoke {
			args = append(args, "-smoke")
		}
		cmd := exec.Command(self, args...)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			failed = append(failed, w.name)
		}
		if child, err := readDocument(part); err == nil {
			doc.Rows = append(doc.Rows, child.Rows...)
		}
	}
	if cfg.out != "" {
		if err := writeDocument(cfg.out, doc); err != nil {
			return err
		}
	}
	if len(failed) > 0 {
		return fmt.Errorf("workloads failed: %s", strings.Join(failed, ", "))
	}
	return nil
}

func readDocument(path string) (document, error) {
	var doc document
	data, err := os.ReadFile(path)
	if err != nil {
		return doc, err
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return doc, fmt.Errorf("%s: %w", path, err)
	}
	return doc, nil
}

func writeDocument(path string, doc document) error {
	data, err := json.MarshalIndent(doc, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// measureOne measures one workload in this process.
func measureOne(cfg config) (*run, []row, result, error) {
	def, ok := workloadByName(cfg.workload)
	if !ok {
		return nil, nil, result{}, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	r, err := newRun(def, cfg.seed, cfg.smoke)
	if err != nil {
		return nil, nil, result{}, err
	}
	if def.server == "httpd" {
		// The worker MPM's pool at benchmark size: per worker, one busy
		// connection and three spare threads.
		defer servers.SetHttpdPoolThreads(servers.SetHttpdPoolThreads(4))
	}
	if err := r.measure(cfg.seconds, cfg.trace); err != nil {
		r.violate("%s: %v", def.name, err)
	}
	if r.tracer != nil {
		if err := r.tracer.write(filepath.Join(cfg.outDir, "trace-"+def.name+".json")); err != nil {
			return nil, nil, result{}, err
		}
	}

	rows := r.rows()
	res := result{Correct: len(r.violations) == 0 && r.failed == 0, Attempted: r.attempted, Failed: r.failed,
		Metrics: map[string]resultValue{}}
	want := endToEnd
	if cfg.trace {
		want = perLayer
	}
	byName := map[string]row{}
	for _, row := range rows {
		byName[row.Metric] = row
	}
	for _, m := range want {
		res.Metrics[m.Name] = resultValue{Value: byName[m.Name].Median, Unit: m.Unit}
	}
	return r, rows, res, nil
}

// runOne measures one workload, prints its rows and then the result
// object, and fails if the correctness gate did.
func runOne(cfg config, w io.Writer) error {
	r, rows, res, err := measureOne(cfg)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%s  seed=%d trace=%v cycles=%d\n", cfg.workload, cfg.seed, cfg.trace, len(r.samples["downtime_ms"]))
	for _, row := range rows {
		if row.N > 0 {
			fmt.Fprintf(w, "  %-32s %14.4f %-6s n=%-3d q1=%.4f q3=%.4f\n", row.Metric, row.Median, row.Unit, row.N, row.Q1, row.Q3)
		}
	}
	for _, v := range r.violations {
		fmt.Fprintln(w, "  VIOLATION:", v)
	}
	if cfg.out != "" {
		if err := writeDocument(cfg.out, document{Env: cfg.env(), Rows: rows}); err != nil {
			return err
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, string(line))
	if !res.Correct {
		return fmt.Errorf("%s: correctness gate failed (%d of %d operations failed, %d violations)",
			cfg.workload, res.Failed, res.Attempted, len(r.violations))
	}
	return nil
}

// measure runs the workload for about the requested time. The number of
// cycles is fixed up front from the workload's nominal cycle time, not
// counted off against the clock: a faster or slower build then does the
// same work — the same sample count, and the same peak RSS where a server
// model retains memory per cycle — and only its timings differ. The first
// cycle is a discarded warm-up (a smoke run has none and runs the fewest
// cycles). A traced pass alternates untraced and traced cycles — the
// numbers come from the untraced ones, the traced ones pay for the audit
// and the recorder and say what that costs — and ends with the probe
// cycle, which is budgeted as two.
func (r *run) measure(seconds float64, trace bool) error {
	start := time.Now()
	cycles, least := int(seconds/r.def.cycleSeconds)-1, 2
	if trace {
		r.tracer = &tracer{t0: start}
		cycles, least = cycles-2, 4
	}
	cycles = max(cycles, least)
	if r.smoke {
		cycles = least / 2
	} else if _, err := r.cycle(0, false); err != nil {
		return fmt.Errorf("warm-up cycle: %w", err)
	}
	for n := 1; n <= cycles; n++ {
		// A machine a quarter slower than the reference stops early rather
		// than overrun: whoever set the run length budgeted for it.
		if n > least && time.Since(start).Seconds() > 1.25*seconds {
			break
		}
		if err := r.measured(n, trace && n%2 == 0); err != nil {
			return err
		}
	}
	if !trace {
		return nil
	}
	return r.probed()
}

// measured runs cycle n and files its values.
func (r *run) measured(n int, traced bool) error {
	if traced {
		r.tr = r.tracer
		r.tr.cycle = n
		defer func() { r.tr = nil }()
	}
	vals, err := r.cycle(n, traced)
	if err != nil {
		return fmt.Errorf("cycle %d: %w", n, err)
	}
	if traced {
		r.tracedDowntime = append(r.tracedDowntime, vals["downtime_ms"])
		for _, name := range []string{"obs.events", "obs.dropped"} {
			r.samples[name] = append(r.samples[name], vals[name])
		}
		return nil
	}
	for name, v := range vals {
		r.samples[name] = append(r.samples[name], v)
	}
	return nil
}

func (r *run) probed() error {
	r.tr = r.tracer
	defer func() { r.tr = nil }()
	vals, err := r.probe(1 << 10)
	if err != nil {
		return fmt.Errorf("probe cycle: %w", err)
	}
	for name, v := range vals {
		r.samples[name] = append(r.samples[name], v)
	}
	return nil
}

// rows summarises the samples into one row per defined metric, adds the
// whole-run numbers, and applies the gates that need the whole run.
func (r *run) rows() []row {
	r.samples["peak_rss_mb"] = []float64{peakRSSMB()}
	r.samples["workload.requests"] = []float64{float64(r.attempted)}
	if q := r.samples["quiesce.converge_ms"]; len(q) > 0 {
		r.samples["quiesce.converge_max_ms"] = []float64{maxOf(q)}
	}
	if base := median(r.samples["downtime_ms"]); len(r.tracedDowntime) > 0 && base > 0 {
		r.samples["obs.traced_overhead_frac"] = []float64{median(r.tracedDowntime)/base - 1}
	}
	if late := median(r.samples["workload.gen_late_p99_us"]); !r.smoke && late > genLateCap {
		r.violate("%s: load generator ran %.0f us late at p99 (cap %.0f): stall_ms would be its own", r.def.name, late, genLateCap)
	}
	var rows []row
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, m := range defs {
			rows = append(rows, row{Workload: r.def.name, Metric: m.Name, Unit: m.Unit, summary: summarize(r.samples[m.Name])})
		}
	}
	return rows
}

// peakRSSMB is this process's VmHWM: the simulated servers, their
// shadows and both sides of every transfer live in it.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1e3
		}
	}
	return 0
}
