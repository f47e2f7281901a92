// Command mcr-bench regenerates the paper's evaluation artifacts against
// the model servers: Tables 1-3, Figure 3, and the in-text measurements
// (memory usage, SPEC-like allocator overhead, update-time components,
// dirty-tracking reduction).
//
// Usage:
//
//	mcr-bench -all            # everything, quick scale
//	mcr-bench -table 2        # one table
//	mcr-bench -figure3 -full  # Figure 3 at the paper's parameters
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
)

func main() {
	var (
		table      = flag.Int("table", 0, "regenerate table N (1, 2 or 3)")
		figure3    = flag.Bool("figure3", false, "regenerate Figure 3")
		memory     = flag.Bool("memory", false, "memory-usage comparison")
		spec       = flag.Bool("spec", false, "SPEC-like allocator overhead")
		updateTime = flag.Bool("updatetime", false, "update-time components")
		dirty      = flag.Bool("dirtystats", false, "dirty-filter reduction")
		all        = flag.Bool("all", false, "run every experiment")
		full       = flag.Bool("full", false, "paper-scale parameters (slow)")
		reps       = flag.Int("reps", 3, "repetitions for Table 3 (best-of)")
	)
	flag.Parse()

	cfg := config{
		Table:      *table,
		Figure3:    *figure3,
		Memory:     *memory,
		Spec:       *spec,
		UpdateTime: *updateTime,
		Dirty:      *dirty,
		All:        *all,
		Full:       *full,
		Reps:       *reps,
	}
	if err := run(cfg, os.Stdout); err != nil {
		if errors.Is(err, errNothingSelected) {
			flag.Usage()
			os.Exit(2)
		}
		fmt.Fprintln(os.Stderr, "mcr-bench:", err)
		os.Exit(1)
	}
}
