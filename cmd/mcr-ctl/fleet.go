package main

import (
	"fmt"
	"io"
	"os"

	"repro/internal/cluster"
)

// runFleet is the fleet-mode scenario: plan and/or apply a rolling
// update across an N-member fleet.
//
//	mcr-ctl -cluster 3 -server httpd -updates 1 -wave-size 2 -plan-out plan.json   # plan only
//	mcr-ctl -apply plan.json                                                       # execute a written plan
//	mcr-ctl -cluster 3 -server httpd -updates 1 -wave-size 2                       # plan + apply in one run
//
// An aborted rollout prints the same stable "rollback cause:" line as
// the single-instance scenario — carrying the failing member's
// deadline/fault/canary cause verbatim — and exits with status 3.
func runFleet(cfg config, out io.Writer) error {
	if cfg.Apply != "" && cfg.PlanOut != "" {
		return fmt.Errorf("%w: -apply and -plan-out are mutually exclusive", errUsage)
	}

	var p *cluster.Plan
	if cfg.Apply != "" {
		f, err := os.Open(cfg.Apply)
		if err != nil {
			return fmt.Errorf("%w: -apply: %v", errUsage, err)
		}
		p, err = cluster.DecodePlan(f)
		f.Close()
		if err != nil {
			return fmt.Errorf("%w: -apply: %v", errUsage, err)
		}
		fmt.Fprintf(out, "loaded plan from %s\n", cfg.Apply)
	} else {
		target := cfg.Updates
		if target < 1 {
			target = 1
		}
		var err error
		p, err = cluster.PlanRollout(cfg.Server, cfg.Cluster, 0, cluster.PlanOptions{
			Target:      target,
			WaveSize:    cfg.WaveSize,
			WaveBudget:  cfg.WaveBudget,
			AbortPolicy: cfg.AbortPolicy,
			Canary:      cfg.Canary,
		})
		if err != nil {
			return fmt.Errorf("%w: plan: %v", errUsage, err)
		}
	}
	fmt.Fprint(out, p.Render())

	if cfg.PlanOut != "" {
		f, err := os.Create(cfg.PlanOut)
		if err != nil {
			return fmt.Errorf("plan-out: %w", err)
		}
		werr := p.Encode(f)
		if cerr := f.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			return fmt.Errorf("plan-out: %w", werr)
		}
		fmt.Fprintf(out, "plan written to %s (apply with: mcr-ctl -apply %s)\n", cfg.PlanOut, cfg.PlanOut)
		return nil
	}

	plane, err := parseFaults(cfg.Fault)
	if err != nil {
		return err
	}
	if plane != nil && (cfg.FaultMember < 0 || cfg.FaultMember >= p.Members) {
		return fmt.Errorf("%w: -fault-member %d out of range [0,%d)", errUsage, cfg.FaultMember, p.Members)
	}

	c, err := cluster.New(cluster.Options{
		Server:      p.Server,
		Members:     p.Members,
		Faults:      plane,
		FaultMember: cfg.FaultMember,
	})
	if err != nil {
		return err
	}
	defer c.Shutdown()
	fmt.Fprintf(out, "launched %s fleet of %d on port %d\n", p.Server, p.Members, c.Spec().Port)
	if plane != nil {
		fmt.Fprintf(out, "fault armed on member %d: %s\n", cfg.FaultMember, cfg.Fault)
	}

	rep, err := cluster.Apply(c, p, cluster.ApplyOptions{Progress: out})
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "fleet totals: %d requests, %d errors, %d wrong responses (%.0f rps aggregate over %s)\n",
		rep.Totals.Requests, rep.Totals.Errors, rep.Totals.BadResponses,
		float64(rep.Totals.Requests)/rep.Elapsed.Seconds(), rep.Elapsed.Round(1e6))
	for _, mr := range rep.Members {
		fmt.Fprintf(out, "  member %d (wave %d): %s", mr.Member, mr.Wave, mr.Outcome)
		if mr.Cause != "" {
			fmt.Fprintf(out, " (cause=%s identical=%v)", mr.Cause, mr.RollbackIdentical)
		}
		fmt.Fprintln(out)
	}
	if rep.Aborted {
		// The same stable line the single-instance scenario prints; the
		// cause is the failing member's, verbatim.
		fmt.Fprintf(out, "rollback cause: %s\n", rep.AbortCause)
		fmt.Fprintln(out, "done: rollout aborted; every unfinished member kept serving its old version")
		return fmt.Errorf("%w (cause %s)", errRolledBack, rep.AbortCause)
	}
	fmt.Fprintf(out, "done: rollout complete; fleet on v%d\n", p.Target)
	return nil
}
