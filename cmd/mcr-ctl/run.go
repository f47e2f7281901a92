package main

import (
	"errors"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"repro/internal/canary"
	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/kernel"
	"repro/internal/obs"
	"repro/internal/servers"
	"repro/internal/workload"
)

const ctlPath = "/run/mcr.sock"

// errUsage marks operator errors (bad flags, unknown server) that should
// exit with the usage status instead of the failure status.
var errUsage = errors.New("usage error")

// errRolledBack marks a scenario in which an update rolled back (or a
// canary window reverted): the old version kept serving, but the
// deployment did not land. main exits with its own status (3) so
// scripts can tell "rolled back cleanly" from "tool failed".
var errRolledBack = errors.New("update rolled back")

// parseDeadlines parses the -deadline flag: comma-separated
// phase=duration pairs against the watchdog's phase names.
func parseDeadlines(s string) (map[string]time.Duration, error) {
	valid := core.DefaultPhaseDeadlines()
	out := map[string]time.Duration{}
	for _, pair := range strings.Split(s, ",") {
		phase, val, ok := strings.Cut(strings.TrimSpace(pair), "=")
		if !ok {
			return nil, fmt.Errorf("want phase=duration, got %q", pair)
		}
		if _, ok := valid[phase]; !ok {
			return nil, fmt.Errorf("unknown phase %q", phase)
		}
		d, err := time.ParseDuration(val)
		if err != nil || d <= 0 {
			return nil, fmt.Errorf("bad duration for phase %s: %q", phase, val)
		}
		out[phase] = d
	}
	return out, nil
}

// parseFaults builds a fault-injection plane from the -fault flag: a
// comma-separated list of injection points (two points drive the
// double-fault scenario — e.g. restart-crash,rollback-restore). Returns
// a nil plane for an empty spec.
func parseFaults(spec string) (*faultinject.Plane, error) {
	if spec == "" {
		return nil, nil
	}
	plane := faultinject.New(1)
	for _, name := range strings.Split(spec, ",") {
		name = strings.TrimSpace(name)
		known := false
		for _, pt := range faultinject.Catalog() {
			if string(pt) == name {
				known = true
				break
			}
		}
		if !known {
			return nil, fmt.Errorf("%w: -fault: unknown injection point %q (see faultinject.Catalog)", errUsage, name)
		}
		plane.Arm(faultinject.Point(name))
	}
	return plane, nil
}

// config is the parsed command line.
type config struct {
	Server    string
	Updates   int
	Adopt     bool   // arm the zero-copy page-adoption fast path
	Warm      bool   // arm the warm-standby readiness daemon
	Canary    string // SLO spec; non-empty runs a canary window after each update
	TraceOut  string // write a Chrome-trace-event JSON file of the whole run
	Fault     string // fault-injection point(s), comma-separated
	Deadlines string // per-phase watchdog budgets, phase=dur[,phase=dur...]
}

// run executes the whole scenario — launch, stage, update, verify the
// client session — writing progress to out. Factored out of main so tests
// can drive it end to end.
func run(cfg config, out io.Writer) error {
	var slo canary.SLO
	if cfg.Canary != "" {
		var err error
		if slo, err = canary.ParseSLO(cfg.Canary); err != nil {
			return fmt.Errorf("%w: -canary: %v", errUsage, err)
		}
	}
	var deadlines map[string]time.Duration
	if cfg.Deadlines != "" {
		var err error
		if deadlines, err = parseDeadlines(cfg.Deadlines); err != nil {
			return fmt.Errorf("%w: -deadline: %v", errUsage, err)
		}
	}
	plane, err := parseFaults(cfg.Fault)
	if err != nil {
		return err
	}
	spec, err := servers.SpecByName(cfg.Server)
	if err != nil {
		return fmt.Errorf("%w: %v", errUsage, err)
	}
	updates := cfg.Updates
	if updates >= spec.NumVersions {
		updates = spec.NumVersions - 1
	}
	if spec.Name == "httpd" {
		servers.SetHttpdPoolThreads(4)
	}

	// -trace-out arms the flight recorder: every subsystem's phase events
	// land in one capture, exported as Chrome-trace JSON at the end.
	var rec *obs.Recorder
	if cfg.TraceOut != "" {
		rec = obs.New(1 << 16)
	}

	k := kernel.New()
	servers.SeedFiles(k)
	plane.AttachRecorder(rec)
	engine, err := core.NewEngine(k, core.Options{
		Adopt:    cfg.Adopt,
		Recorder: rec,
		Faults:   plane,
		Audit:    plane != nil || deadlines != nil,
	})
	if err != nil {
		return fmt.Errorf("engine: %w", err)
	}
	if err := engine.SetPhaseDeadlines(deadlines); err != nil {
		return fmt.Errorf("%w: -deadline: %v", errUsage, err)
	}
	if _, err := engine.Launch(spec.Version(0)); err != nil {
		return fmt.Errorf("launch: %w", err)
	}
	defer engine.Shutdown()
	if cfg.Warm {
		if err := engine.ArmWarm(); err != nil {
			return fmt.Errorf("warm: %w", err)
		}
	}
	fmt.Fprintf(out, "launched %s-%s on port %d\n", spec.Name, spec.Version(0).Release, spec.Port)
	if plane != nil {
		fmt.Fprintf(out, "fault armed: %s\n", cfg.Fault)
	}
	if deadlines != nil {
		fmt.Fprintf(out, "phase deadlines: %s\n", cfg.Deadlines)
	}

	// The canary needs live traffic to judge the new version, and a trace
	// capture needs it for the workload-interval track: a small sustained
	// driver covers both.
	var drv *workload.Sustained
	if cfg.Canary != "" || cfg.TraceOut != "" {
		drv, err = workload.StartSustained(k, workload.SustainedOptions{
			Server: spec.Name, Port: spec.Port, Clients: 2, Recorder: rec,
		})
		if err != nil {
			return fmt.Errorf("workload: %w", err)
		}
		defer drv.Stop()
	}
	var watch canary.Config
	if cfg.Canary != "" {
		watch = canary.Config{SLO: slo, Source: workload.CanarySource(drv),
			Window: 100 * time.Millisecond, Recorder: rec}
		fmt.Fprintf(out, "canary armed: slo %s (100ms window)\n", slo)
	}

	ctl := core.NewController(engine, ctlPath)
	for i := 1; i <= updates; i++ {
		v := spec.Version(i)
		ctl.Stage(v)
		fmt.Fprintf(out, "staged update %s\n", v.Release)
	}
	if err := ctl.Start(); err != nil {
		return fmt.Errorf("controller: %w", err)
	}
	defer ctl.Stop()

	// A client session whose state must survive every update.
	sessions, err := workload.OpenSessions(k, spec.Name, spec.Port, 1)
	if err != nil {
		return fmt.Errorf("client: %w", err)
	}
	defer workload.CloseSessions(sessions)

	send := func(req string) error {
		resp, err := core.CtlRequest(k, ctlPath, req)
		if err != nil {
			return fmt.Errorf("%q: %w", req, err)
		}
		fmt.Fprintf(out, "$ mcr-ctl %-24s -> %s\n", req, resp)
		return nil
	}

	rolledBack := "" // first rollback cause; non-empty ends the scenario
	var updated []updateMark
	if err := send("ping"); err != nil {
		return err
	}
	if err := send("status"); err != nil {
		return err
	}
	if cfg.Warm {
		// Give the daemon a moment to absorb the startup traffic, then show
		// the readiness line (analysis currency and generation).
		engine.WarmWait(5 * time.Second)
		if err := send("warm status"); err != nil {
			return err
		}
	}
	for i := 1; i <= updates; i++ {
		if cfg.Warm && i > 1 {
			// Let the freshly re-armed daemon catch up before the next
			// request, so every update takes the warm fast path.
			engine.WarmWait(5 * time.Second)
		}
		// back is what a canary breach updates back to, and base the
		// pre-update throughput the window's throughput gate is relative to.
		back := engine.Current().Version()
		var base float64
		if cfg.Canary != "" {
			base = canary.Baseline(watch)
		}
		n := len(engine.History())
		updated = append(updated, updateMark{spec.Version(i).Release, time.Now()})
		if err := send("update " + spec.Version(i).Release); err != nil {
			return err
		}
		hist := engine.History()
		if len(hist) <= n {
			return fmt.Errorf("update %d left no report", i)
		}
		rep := hist[n] // the deployed update's; a canary revert follows it
		var verdict *canary.Verdict
		if cfg.Canary != "" && !rep.RolledBack {
			v := canary.Watch(watch, base, func() error {
				_, err := engine.Update(back)
				return err
			})
			verdict = &v
		}
		if err := send("status"); err != nil {
			return err
		}
		if cfg.Warm {
			if err := send("warm status"); err != nil {
				return err
			}
		}
		engineName := "pipelined"
		if rep.Warm {
			engineName = "warm " + engineName
		}
		fmt.Fprintf(out, "  downtime: %s (%s engine; %d/%d analyses reused; %d pages rescanned, %d reused)\n",
			rep.Downtime.Round(10*time.Microsecond), engineName,
			rep.AnalysesReused, rep.AnalysesReused+rep.ProcsReanalyzed,
			rep.PagesRescanned, rep.PagesReused)
		if cfg.Adopt {
			fmt.Fprintf(out, "  adopted pages: %d (%d B, %.0f%% of transferred bytes moved zero-copy)\n",
				rep.Transfer.PagesAdopted, rep.Transfer.BytesAdopted,
				rep.Transfer.AdoptionFraction()*100)
		}
		cause, secondary := rep.RollbackCause, rep.RollbackSecondary
		if verdict != nil {
			line := "  canary: " + verdict.Outcome
			if verdict.Outcome == canary.Reverted {
				cause = "canary:" + verdict.Breach.Metric
				line += fmt.Sprintf(" (cause=%s)", cause)
			}
			fmt.Fprintln(out, line)
			m := verdict.Monitor
			fmt.Fprintf(out, "  canary window: intervals=%d base=%.0frps last=%.0frps p99=%v errrate=%.4f",
				m.Intervals, m.BaselineRPS, m.LastRPS, m.LastP99, m.LastErrorRate)
			if verdict.Breach != nil {
				fmt.Fprintf(out, " breach=%q", verdict.Breach.String())
			}
			if verdict.RevertErr != nil {
				fmt.Fprintf(out, " revert-error=%q", verdict.RevertErr.Error())
			}
			fmt.Fprintln(out)
		}
		if cause != "" {
			// The stable machine-readable line: scripts key on this (and
			// on exit status 3) to tell a classified rollback —
			// deadline:<phase>, fault:<point>, canary:<metric> or update —
			// from a tool failure. A double fault (a second fault firing
			// while the rollback itself reverted) rides on the same line
			// so operators see both causes at once.
			line := cause
			if secondary != "" {
				line += fmt.Sprintf(" (secondary: %s)", secondary)
			}
			fmt.Fprintf(out, "rollback cause: %s\n", line)
			rolledBack = cause
		}
		// Prove the pre-update session still answers.
		var resp string
		switch spec.Name {
		case "httpd", "nginx":
			resp, err = workload.KeepaliveRequest(sessions[0], "GET /after-update")
		case "vsftpd":
			resp, err = workload.FTPCommand(sessions[0], "STAT")
		case "sshd":
			resp, err = workload.SSHExec(sessions[0], "uptime")
		}
		if err != nil {
			return fmt.Errorf("session died after update %d: %w", i, err)
		}
		fmt.Fprintf(out, "  client session alive: %s\n", resp)
		if rolledBack != "" {
			// The rollback guarantee held (old version serving, session
			// alive); stop deploying and report the failed deployment.
			break
		}
	}
	if cfg.Warm {
		// Operator disarm: stops the daemon; status confirms.
		if err := send("warm off"); err != nil {
			return err
		}
		if err := send("warm status"); err != nil {
			return err
		}
	}
	if rec != nil {
		// The human-readable side of the same capture: the controller's
		// `events` command renders the phase timeline over the socket.
		if err := send("events"); err != nil {
			return err
		}
	}
	if drv != nil {
		st := drv.Stop()
		if st.BadResponses > 0 {
			return wrongResponses(st, updated)
		}
		fmt.Fprintf(out, "workload: %d requests, 0 wrong responses\n", st.Requests)
	}
	if rec != nil {
		// Export after the workload driver stopped so its final interval
		// buckets are flushed into the capture.
		f, err := os.Create(cfg.TraceOut)
		if err != nil {
			return fmt.Errorf("trace-out: %w", err)
		}
		werr := obs.WriteChromeTrace(f, rec.Events(), rec.Metrics().Snapshot())
		if cerr := f.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			return fmt.Errorf("trace-out: %w", werr)
		}
		fmt.Fprintf(out, "trace written to %s (%d events, %d dropped)\n",
			cfg.TraceOut, len(rec.Events()), rec.Dropped())
	}
	if rolledBack != "" {
		fmt.Fprintln(out, "done: update rolled back; the old version kept serving and the client session never reconnected")
		return fmt.Errorf("%w (cause %s)", errRolledBack, rolledBack)
	}
	fmt.Fprintln(out, "done: all updates deployed live; the client session never reconnected")
	return nil
}

// updateMark is when an update was requested.
type updateMark struct {
	release string
	at      time.Time
}

// wrongResponses is the error of a run whose workload got wrong replies:
// the count, then each reply the workload kept, placed after the last
// update requested before it arrived.
func wrongResponses(st workload.SustainedStats, updated []updateMark) error {
	var b strings.Builder
	fmt.Fprintf(&b, "workload saw %d wrong responses", st.BadResponses)
	for _, r := range st.Bad {
		when := "before the first update"
		for _, u := range updated {
			if !r.At.Before(u.at) {
				when = fmt.Sprintf("%s after update %s", r.At.Sub(u.at).Round(time.Microsecond), u.release)
			}
		}
		fmt.Fprintf(&b, "\n  client %d seq %d, %s: want %q, got %q", r.Client, r.Seq, when, r.Want, r.Reply)
	}
	return errors.New(b.String())
}
