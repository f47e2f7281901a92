package core

import (
	"strings"
	"testing"
	"time"

	"repro/internal/kernel"
)

func TestOptionsValidate(t *testing.T) {
	cases := []struct {
		name    string
		opts    Options
		wantErr string // substring; empty means valid
	}{
		{"zero value", Options{}, ""},
		{"default preset", DefaultOptions(), ""},
		{"audit preset", AuditOptions(), ""},
		{"full coherent", Options{
			Transfer: TransferOptions{Adopt: true, VerifyTransfer: true},
			Warm:     WarmOptions{Enabled: true, Interval: 200 * time.Microsecond, DutyCycle: 0.25},
			Canary:   CanaryOptions{Window: 100 * time.Millisecond},
			Watchdog: WatchdogOptions{PhaseDeadlines: DefaultPhaseDeadlines(), VerifyRollback: true},
		}, ""},
		{"warm interval without enable", Options{
			Warm: WarmOptions{Interval: time.Millisecond}}, "without Warm.Enabled"},
		{"duty cycle out of range", Options{
			Warm: WarmOptions{Enabled: true, DutyCycle: 1.5}}, "DutyCycle"},
		{"disable with deadlines", Options{
			Watchdog: WatchdogOptions{Disable: true,
				PhaseDeadlines: map[string]time.Duration{WDRestart: time.Second}}},
			"Disable set alongside"},
		{"empty deadline map", Options{
			Watchdog: WatchdogOptions{PhaseDeadlines: map[string]time.Duration{}}},
			"ambiguous"},
		{"unknown phase", Options{
			Watchdog: WatchdogOptions{PhaseDeadlines: map[string]time.Duration{
				"bogus": time.Second}}}, "unknown phase"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.opts.Validate()
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("Validate() = %v, want nil", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("Validate() = %v, want error containing %q", err, tc.wantErr)
			}
		})
	}
}

// TestNewEngineRejectsInvalidOptions pins the construction contract: the
// incoherent combination surfaces as a NewEngine error, not a silently
// ignored field.
func TestNewEngineRejectsInvalidOptions(t *testing.T) {
	_, err := NewEngine(kernel.New(), Options{Warm: WarmOptions{Interval: time.Millisecond}})
	if err == nil || !strings.Contains(err.Error(), "Warm.Enabled") {
		t.Fatalf("NewEngine = %v, want Warm.Enabled validation error", err)
	}
}
