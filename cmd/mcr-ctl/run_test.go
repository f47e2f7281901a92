package main

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/servers"
	"repro/internal/workload"
)

func TestRunUnknownServerIsUsageError(t *testing.T) {
	var out strings.Builder
	err := run(config{Server: "no-such-server", Updates: 1}, &out)
	if !errors.Is(err, errUsage) {
		t.Fatalf("err = %v, want errUsage", err)
	}
}

func TestRunDeploysUpdateAndKeepsSession(t *testing.T) {
	var out strings.Builder
	if err := run(config{Server: "nginx", Updates: 1}, &out); err != nil {
		t.Fatalf("run: %v\noutput:\n%s", err, out.String())
	}
	got := out.String()
	for _, want := range []string{
		"launched nginx-",
		"staged update",
		"-> PONG",
		"OK updated to",
		"client session alive:",
		"done: all updates deployed live",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("output missing %q:\n%s", want, got)
		}
	}
}

func TestRunAdoptReportsAdoptedPages(t *testing.T) {
	var out strings.Builder
	if err := run(config{Server: "nginx", Updates: 1, Adopt: true}, &out); err != nil {
		t.Fatalf("run: %v\noutput:\n%s", err, out.String())
	}
	got := out.String()
	for _, want := range []string{
		"adopted pages:",
		"moved zero-copy",
		"done: all updates deployed live",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("output missing %q:\n%s", want, got)
		}
	}
}

func TestRunWithoutAdoptOmitsAdoptedPagesLine(t *testing.T) {
	var out strings.Builder
	// The ablation leg: same scenario, adoption off, and the report line
	// must vanish rather than print a zero.
	if err := run(config{Server: "nginx", Updates: 1}, &out); err != nil {
		t.Fatalf("run: %v\noutput:\n%s", err, out.String())
	}
	if strings.Contains(out.String(), "adopted pages:") {
		t.Errorf("adoption-off run printed the adopted-pages line:\n%s", out.String())
	}
}

func TestRunClampsUpdatesToAvailableVersions(t *testing.T) {
	var out strings.Builder
	// Far more updates than staged versions exist: run must clamp, deploy
	// what is available, and still finish cleanly.
	if err := run(config{Server: "nginx", Updates: 99}, &out); err != nil {
		t.Fatalf("run: %v\noutput:\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "done: all updates deployed live") {
		t.Errorf("scenario did not complete:\n%s", out.String())
	}
}

func TestRunWarmDeploysUpdateAndShowsReadiness(t *testing.T) {
	var out strings.Builder
	if err := run(config{Server: "nginx", Updates: 1, Warm: true}, &out); err != nil {
		t.Fatalf("run: %v\noutput:\n%s", err, out.String())
	}
	got := out.String()
	for _, want := range []string{
		"warm=armed", // readiness line before and after the update
		"current=",   // analysis readiness
		"agen=",      // analysis generation
		"duty=0.25",  // the daemon's duty-cycle setting (default bound)
		"passes=",    // pass counter behind the overhead curve
		"yields=",    // backpressure-stretched pauses
		"rescanned=", // the analysis work per page, beside reanalyzed=
		"lastpass=",
		"warm pipelined engine",
		"pages rescanned",  // the update's own in-window analysis, per page
		"OK warm disarmed", // operator disarm at the end
		"warm=disarmed",
		"done: all updates deployed live",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("output missing %q:\n%s", want, got)
		}
	}
}

func TestRunPipelinedReportsDowntime(t *testing.T) {
	var out strings.Builder
	if err := run(config{Server: "nginx", Updates: 1}, &out); err != nil {
		t.Fatalf("run: %v\noutput:\n%s", err, out.String())
	}
	got := out.String()
	for _, want := range []string{"downtime:", "pipelined engine", "analyses reused"} {
		if !strings.Contains(got, want) {
			t.Errorf("output missing %q:\n%s", want, got)
		}
	}
}

func TestRunMalformedCanarySLOIsUsageError(t *testing.T) {
	for _, spec := range []string{"p99=fast", "tput=1.5", "err=1", "bogus=1", "p99"} {
		var out strings.Builder
		err := run(config{Server: "nginx", Updates: 1, Canary: spec}, &out)
		if !errors.Is(err, errUsage) {
			t.Errorf("-canary %q: err = %v, want errUsage", spec, err)
		}
	}
}

func TestRunCanaryFinalizesHealthyUpdate(t *testing.T) {
	var out strings.Builder
	if err := run(config{Server: "nginx", Updates: 1, Canary: "p99=500ms,err=0.5"}, &out); err != nil {
		t.Fatalf("run: %v\noutput:\n%s", err, out.String())
	}
	got := out.String()
	for _, want := range []string{
		"canary armed: slo p99=500ms,err=0.5",
		"canary: finalized",
		"canary window: intervals=",
		"client session alive:",
		"0 wrong responses",
		"done: all updates deployed live",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("output missing %q:\n%s", want, got)
		}
	}
}

// TestRunTraceOutWritesChromeTrace runs a warm httpd update through a
// canary window with -trace-out. The run prints the human-readable
// timeline, and the exported file's schema holds: every instrumented
// layer has its own named lanes, every event sits on an assigned lane of
// the one engine process with a valid timestamp, the update lifecycle and
// the workload intervals are in the capture, and the metrics block
// records the one committed update.
func TestRunTraceOutWritesChromeTrace(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.json")
	var out strings.Builder
	cfg := config{Server: "httpd", Updates: 1, Warm: true, Canary: "p99=500ms,err=0.5", TraceOut: path}
	if err := run(cfg, &out); err != nil {
		t.Fatalf("run: %v\noutput:\n%s", err, out.String())
	}
	got := out.String()
	for _, want := range []string{
		"$ mcr-ctl events", // the human-readable half of the capture
		"update-phase timeline",
		"trace written to " + path,
		"done: all updates deployed live",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("output missing %q:\n%s", want, got)
		}
	}

	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Cat  string         `json:"cat"`
			Ph   string         `json:"ph"`
			Ts   float64        `json:"ts"`
			Dur  *float64       `json:"dur"`
			Pid  int            `json:"pid"`
			Tid  int            `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
		OtherData struct {
			Metrics map[string]int64 `json:"metrics"`
		} `json:"otherData"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("trace file is not valid JSON: %v", err)
	}
	// A lane is named after its track, or "track/proc" for a per-process
	// sub-track (the transfer track's discovery and copy spans).
	lanes, cats := map[string]bool{}, map[string]bool{}
	enginePhases := map[string]bool{}
	events, workloadX := 0, 0
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "M" {
			if n, ok := ev.Args["name"].(string); ok && ev.Name == "thread_name" {
				track, _, _ := strings.Cut(n, "/")
				lanes[track] = true
			}
			continue
		}
		events++
		cats[ev.Cat] = true
		if ev.Ts < 0 || ev.Pid != 1 || ev.Tid < 1 {
			t.Errorf("event %s/%s off the engine process or its lanes: ts=%v pid=%d tid=%d",
				ev.Cat, ev.Name, ev.Ts, ev.Pid, ev.Tid)
		}
		if ev.Cat == "engine" {
			enginePhases[ev.Name] = true
		}
		if ev.Ph == "X" && ev.Cat == "workload" {
			workloadX++
			if ev.Dur == nil || *ev.Dur <= 0 {
				t.Errorf("workload interval at ts=%v has no duration", ev.Ts)
			}
		}
	}
	if events == 0 {
		t.Fatal("trace export has no events")
	}
	for _, lane := range []string{"engine", "transfer", "daemon", "canary", "workload"} {
		if !lanes[lane] {
			t.Errorf("trace has no %q thread lane (lanes: %v)", lane, lanes)
		}
		if !cats[lane] {
			t.Errorf("trace has no events in category %q", lane)
		}
	}
	for _, phase := range []string{"update", "quiesce", "restart", "remap", "commit"} {
		if !enginePhases[phase] {
			t.Errorf("trace lacks the engine %q phase (have %v)", phase, enginePhases)
		}
	}
	if workloadX == 0 {
		t.Error("trace lacks workload-interval complete events")
	}
	if m := doc.OtherData.Metrics; m["core.updates"] != 1 || m["core.commits"] != 1 {
		t.Errorf("metrics block: core.updates=%d core.commits=%d, want 1 and 1",
			m["core.updates"], m["core.commits"])
	}
}

func TestRunCanaryRevertsRegressionWithCause(t *testing.T) {
	// Force the new httpd version to serve every keepalive request slower
	// than the armed p99 gate: the window must catch it, auto-revert, and
	// surface the cause in both the verdict line and the report line.
	defer servers.SetHttpdDegrade(30*time.Millisecond, 1)()
	var out strings.Builder
	err := run(config{Server: "httpd", Updates: 1, Canary: "p99=2ms"}, &out)
	if !errors.Is(err, errRolledBack) {
		t.Fatalf("err = %v, want errRolledBack\noutput:\n%s", err, out.String())
	}
	got := out.String()
	for _, want := range []string{
		"canary armed: slo p99=2ms",
		"canary: reverted (cause=canary:p99)",
		`breach="p99`,
		"rollback cause: canary:p99",
		"client session alive:",
		"0 wrong responses",
		"done: update rolled back",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("output missing %q:\n%s", want, got)
		}
	}
}

// TestRunUnknownFaultPointIsUsageError: a made-up point, and the
// epoch-fail and transfer-corrupt points the catalog no longer has, are
// usage errors.
func TestRunUnknownFaultPointIsUsageError(t *testing.T) {
	for _, spec := range []string{"no-such-fault", "epoch-fail", "transfer-corrupt", "restart-crash,epoch-fail"} {
		var out strings.Builder
		err := run(config{Server: "nginx", Updates: 1, Fault: spec}, &out)
		if !errors.Is(err, errUsage) {
			t.Errorf("-fault %q: err = %v, want errUsage", spec, err)
		}
	}
}

func TestRunMalformedDeadlineIsUsageError(t *testing.T) {
	for _, spec := range []string{"restart", "restart=fast", "restart=-1s", "bogus=1s", "restart=0"} {
		var out strings.Builder
		err := run(config{Server: "nginx", Updates: 1, Deadlines: spec}, &out)
		if !errors.Is(err, errUsage) {
			t.Errorf("-deadline %q: err = %v, want errUsage", spec, err)
		}
	}
}

func TestRunInjectedFaultRollsBackWithCause(t *testing.T) {
	// A loud RESTART crash: the update must roll back, the cause must land
	// on its own stable line, and run must return the rollback sentinel
	// (main turns it into exit status 3).
	var out strings.Builder
	err := run(config{Server: "nginx", Updates: 2, Fault: "restart-crash"}, &out)
	if !errors.Is(err, errRolledBack) {
		t.Fatalf("err = %v, want errRolledBack\noutput:\n%s", err, out.String())
	}
	got := out.String()
	for _, want := range []string{
		"fault armed: restart-crash",
		"ERR rolled back",
		"rollback cause: fault:restart-crash",
		"client session alive:",
		"done: update rolled back",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("output missing %q:\n%s", want, got)
		}
	}
	// The scenario stops after the failed deployment: the second staged
	// update must not have been attempted.
	if strings.Contains(got, "OK updated to") {
		t.Errorf("a later update landed after the rollback:\n%s", got)
	}
}

func TestRunWatchdogDeadlineRollsBackWithCause(t *testing.T) {
	// A silent RESTART hang, recoverable only by the armed per-phase
	// watchdog: the cause line must classify it as deadline:restart.
	var out strings.Builder
	err := run(config{Server: "nginx", Updates: 1, Fault: "restart-hang", Deadlines: "restart=200ms"}, &out)
	if !errors.Is(err, errRolledBack) {
		t.Fatalf("err = %v, want errRolledBack\noutput:\n%s", err, out.String())
	}
	got := out.String()
	for _, want := range []string{
		"fault armed: restart-hang",
		"phase deadlines: restart=200ms",
		"rollback cause: deadline:restart",
		"client session alive:",
		"done: update rolled back",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("output missing %q:\n%s", want, got)
		}
	}
}

func TestRunDoubleFaultSecondaryOnCauseLine(t *testing.T) {
	// Two armed points: the RESTART crash aborts the update, and the
	// second fault fires while the rollback itself restores. Operators
	// must see both causes on the one stable line.
	var out strings.Builder
	err := run(config{Server: "httpd", Updates: 1, Fault: "restart-crash,rollback-restore"}, &out)
	if !errors.Is(err, errRolledBack) {
		t.Fatalf("err = %v, want errRolledBack\noutput:\n%s", err, out.String())
	}
	want := "rollback cause: fault:restart-crash (secondary: fault:rollback-restore)"
	if !strings.Contains(out.String(), want) {
		t.Errorf("output missing %q:\n%s", want, out.String())
	}
}

// TestWrongResponsesNamesEachCrossedReply: the run's error for a workload
// that got wrong replies counts them, then names each reply the workload
// kept — client, sequence number, what it wanted, what it got — placed
// after the last update requested before it arrived.
func TestWrongResponsesNamesEachCrossedReply(t *testing.T) {
	t0 := time.Now()
	updated := []updateMark{{"2.2.24", t0}, {"2.2.25", t0.Add(time.Second)}}
	st := workload.SustainedStats{BadResponses: 7, Bad: []workload.BadReply{
		{Client: 1, Seq: 4, Want: "ka-req=GET /load-1-4", Reply: "HTTP/1.1 200 OK Server: Apache/2.2.23 ka-req=GET /load-1-3", At: t0.Add(-time.Millisecond)},
		{Client: 0, Seq: 9, Want: "ka-req=GET /load-0-9", Reply: "HTTP/1.1 200 OK Server: Apache/2.2.25 ka-req=GET /load-1-5", At: t0.Add(1500 * time.Millisecond)},
	}}
	want := "workload saw 7 wrong responses\n" +
		`  client 1 seq 4, before the first update: want "ka-req=GET /load-1-4", got "HTTP/1.1 200 OK Server: Apache/2.2.23 ka-req=GET /load-1-3"` + "\n" +
		`  client 0 seq 9, 500ms after update 2.2.25: want "ka-req=GET /load-0-9", got "HTTP/1.1 200 OK Server: Apache/2.2.25 ka-req=GET /load-1-5"`
	if got := wrongResponses(st, updated).Error(); got != want {
		t.Fatalf("error =\n%s\nwant\n%s", got, want)
	}
}
