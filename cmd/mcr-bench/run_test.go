package main

import (
	"errors"
	"strings"
	"testing"
)

func TestRunNothingSelected(t *testing.T) {
	var out strings.Builder
	if err := run(config{}, &out); !errors.Is(err, errNothingSelected) {
		t.Fatalf("err = %v, want errNothingSelected", err)
	}
	if out.Len() != 0 {
		t.Errorf("unexpected output: %s", out.String())
	}
}

func TestRunSpecExperiment(t *testing.T) {
	var out strings.Builder
	if err := run(config{Spec: true, Reps: 1}, &out); err != nil {
		t.Fatalf("run: %v", err)
	}
	if out.Len() == 0 {
		t.Fatal("spec experiment produced no output")
	}
}

func TestRunDirtyStats(t *testing.T) {
	var out strings.Builder
	if err := run(config{Dirty: true, Reps: 1}, &out); err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.Contains(out.String(), "Dirty-object tracking") {
		t.Errorf("missing dirty-stats header:\n%s", out.String())
	}
}
