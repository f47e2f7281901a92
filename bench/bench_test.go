package main

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"
)

// TestSmoke runs every workload once at a twentieth of its size — an
// untraced cycle, a traced cycle and the probe cycle — and checks only
// what does not depend on the clock: every operation succeeded, every
// gate held, and every metric BENCHMARK.json names came out. It makes no
// timing assertion, so it stays green on a loaded one-CPU machine.
func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			cfg := config{workload: w.name, seed: 7, smoke: true, trace: true, outDir: t.TempDir()}
			r, rows, res, err := measureOne(cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, v := range r.violations {
				t.Error(v)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
			}
			for _, m := range perLayer {
				if _, ok := res.Metrics[m.Name]; !ok {
					t.Errorf("traced result lacks %s", m.Name)
				}
			}
			byName := map[string]row{}
			for _, row := range rows {
				byName[row.Metric] = row
			}
			// An end-to-end metric that reads 0 cannot be compared against.
			for _, m := range endToEnd {
				if row := byName[m.Name]; row.N == 0 || row.Median <= 0 {
					t.Errorf("%s = %+v, want a positive measurement", m.Name, row.summary)
				}
			}
			// The probe cycle and the recorder ran.
			for _, name := range []string{"trace.analyze_ms", "mem.read_mbps", "mem.alloc_ns", "checkpoint.epoch_ms", "obs.events"} {
				if row := byName[name]; row.N == 0 || row.Median <= 0 {
					t.Errorf("%s = %+v, want a positive measurement", name, row.summary)
				}
			}
			if _, err := os.Stat(cfg.outDir + "/trace-" + w.name + ".json"); err != nil {
				t.Errorf("span file: %v", err)
			}
		})
	}
}

// TestBenchmarkJSONMatchesTheCode holds BENCHMARK.json and the tables the
// code reads together: a metric or workload renamed in one place only
// would silently drop out of the driver's comparison.
func TestBenchmarkJSONMatchesTheCode(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Command   []string `json:"command"`
		Paths     []string `json:"paths"`
		Workloads []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(spec.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs:\njson %+v\ncode %+v", spec.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(spec.PerLayer, perLayer) {
		t.Errorf("per_layer differs:\njson %+v\ncode %+v", spec.PerLayer, perLayer)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in json, %d in code", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name || spec.Workloads[i].Why != w.why {
			t.Errorf("workload %d: json %+v, code %s: %s", i, spec.Workloads[i], w.name, w.why)
		}
		if len(w.why) > 200 {
			t.Errorf("%s: why is %d characters, limit 200", w.name, len(w.why))
		}
	}
	hasSetup := false
	for _, m := range endToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !hasSetup {
		t.Error("end_to_end lacks setup_s in seconds, lower is better")
	}
}
