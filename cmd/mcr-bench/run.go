package main

import (
	"errors"
	"fmt"
	"io"

	"repro/internal/experiments"
)

// errNothingSelected is returned when no experiment was requested; main
// responds by printing usage.
var errNothingSelected = errors.New("no experiment selected")

// config is the parsed command line.
type config struct {
	Table      int
	Figure3    bool
	Memory     bool
	Spec       bool
	UpdateTime bool
	Dirty      bool
	All        bool
	Full       bool
	Reps       int
}

// run executes every selected experiment, writing rendered results to out.
// Factored out of main so tests can drive it.
func run(cfg config, out io.Writer) error {
	scale := experiments.Quick
	if cfg.Full {
		scale = experiments.Full
	}
	ran := false

	if cfg.All || cfg.Table == 1 {
		ran = true
		res, err := experiments.RunTable1(scale)
		if err != nil {
			return fmt.Errorf("table 1: %w", err)
		}
		fmt.Fprintln(out, res.Render())
	}
	if cfg.All || cfg.Table == 2 {
		ran = true
		res, err := experiments.RunTable2(scale)
		if err != nil {
			return fmt.Errorf("table 2: %w", err)
		}
		fmt.Fprintln(out, res.Render())
	}
	if cfg.All || cfg.Table == 3 {
		ran = true
		res, err := experiments.RunTable3(scale, cfg.Reps)
		if err != nil {
			return fmt.Errorf("table 3: %w", err)
		}
		fmt.Fprintln(out, res.Render())
	}
	if cfg.All || cfg.Figure3 {
		ran = true
		res, err := experiments.RunFigure3(scale)
		if err != nil {
			return fmt.Errorf("figure 3: %w", err)
		}
		fmt.Fprintln(out, res.Render())
	}
	if cfg.All || cfg.Dirty {
		ran = true
		stats, err := experiments.RunDirtyStats(scale)
		if err != nil {
			return fmt.Errorf("dirty stats: %w", err)
		}
		fmt.Fprintln(out, "Dirty-object tracking: state-transfer reduction (paper: 68%-86% at 100 conns)")
		for _, d := range stats {
			fmt.Fprintf(out, "%-8s conns=%-4d filtered=%-8d unfiltered=%-8d reduction=%.0f%%\n",
				d.Name, d.Connections, d.Filtered, d.Unfiltered, d.Reduction()*100)
		}
		fmt.Fprintln(out)
	}
	if cfg.All || cfg.Memory {
		ran = true
		res, err := experiments.RunMemory(scale)
		if err != nil {
			return fmt.Errorf("memory: %w", err)
		}
		fmt.Fprintln(out, res.Render())
	}
	if cfg.All || cfg.Spec {
		ran = true
		res, err := experiments.RunSpec(scale)
		if err != nil {
			return fmt.Errorf("spec: %w", err)
		}
		fmt.Fprintln(out, res.Render())
	}
	if cfg.All || cfg.UpdateTime {
		ran = true
		res, err := experiments.RunUpdateTime(scale)
		if err != nil {
			return fmt.Errorf("update time: %w", err)
		}
		fmt.Fprintln(out, res.Render())
	}
	if !ran {
		return errNothingSelected
	}
	return nil
}
