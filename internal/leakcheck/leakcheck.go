// Package leakcheck is the shared rollback-hygiene test helper: a clean
// rollback must leave nothing behind — no goroutine the aborted attempt
// spawned (watchdog monitors, pipeline workers, parked stalls) and no pid
// reservation the RESTART phase planted. The canary fault matrix and the
// fault-injection campaign both run these checks, after every canary
// revert and every rollback.
package leakcheck

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/program"
)

// Goroutines samples the current goroutine count; pair with
// CheckGoroutines around the work under test.
func Goroutines() int { return runtime.NumGoroutine() }

// CheckGoroutines verifies the goroutine count has settled back to (at
// most) the before sample, polling up to wait for stragglers that are
// legitimately still unwinding (deferred joins, timer callbacks). A
// count that never comes back down is a leak.
func CheckGoroutines(before int, wait time.Duration) error {
	deadline := time.Now().Add(wait)
	n := runtime.NumGoroutine()
	for n > before {
		if time.Now().After(deadline) {
			return fmt.Errorf("leakcheck: %d goroutines before, %d after (leaked %d)",
				before, n, n-before)
		}
		time.Sleep(2 * time.Millisecond)
		n = runtime.NumGoroutine()
	}
	return nil
}

// CheckReservedPids verifies no process of inst still carries pid
// reservations — the RESTART-phase reservations a rollback (or a
// finalized commit) must release.
func CheckReservedPids(inst *program.Instance) error {
	if inst == nil {
		return nil
	}
	for _, p := range inst.Procs() {
		if pids := p.KProc().ReservedPids(); len(pids) > 0 {
			return fmt.Errorf("leakcheck: proc %v still holds %d reserved pids", p.Key(), len(pids))
		}
	}
	return nil
}
