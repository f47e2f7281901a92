package main

import (
	"testing"
	"time"

	"repro/internal/core"
)

// TestDeadlineFlagAcceptsEveryCorePhase pins -deadline to the engine's
// phase table: every phase the default watchdog profile budgets is a
// valid key, and nothing else is.
func TestDeadlineFlagAcceptsEveryCorePhase(t *testing.T) {
	phases := core.DefaultPhaseDeadlines()
	if len(phases) == 0 {
		t.Fatal("core declares no phases")
	}
	for phase := range phases {
		got, err := parseDeadlines(phase + "=150ms")
		if err != nil {
			t.Errorf("-deadline %s=150ms rejected: %v", phase, err)
			continue
		}
		if len(got) != 1 || got[phase] != 150*time.Millisecond {
			t.Errorf("-deadline %s=150ms parsed as %v", phase, got)
		}
	}
	if _, err := parseDeadlines("remap=150ms"); err == nil {
		t.Error("-deadline accepted an obs span name that is not a phase")
	}
	if _, err := parseDeadlines("precopy=150ms"); err == nil {
		t.Error("-deadline accepted the retired precopy phase")
	}
}
