package main

import (
	"strings"
	"testing"
)

// TestQuickstartReproducesFigure2 runs the example end to end: run itself
// checks Figure 2's outcome (relocated, type-transformed nodes with
// new=0, b's target pinned, the listener still serving) and fails if any
// part of it does not hold.
func TestQuickstartReproducesFigure2(t *testing.T) {
	var out strings.Builder
	if err := run(&out); err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	for _, want := range []string{"v2 list: {value=", "new=0", "post-update client served"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output lacks %q:\n%s", want, out.String())
		}
	}
}
