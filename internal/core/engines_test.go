package core

import (
	"testing"
	"time"

	"repro/internal/leakcheck"
	"repro/internal/obs"
	"repro/internal/trace"
)

// TestEnginesInOneProcessAreIndependent runs two engines in one process,
// each on its own kernel, sharing one flight recorder. B idles with its
// warm daemon armed while A updates under Audit: A commits, and B's
// state digest does not move. Then B updates and commits too. The shared
// recorder holds both engines' update and commit spans and B's daemon
// passes, and nothing either engine started outlives their shutdown.
func TestEnginesInOneProcessAreIndependent(t *testing.T) {
	g0 := leakcheck.Goroutines()
	rec := obs.New(1 << 16)
	a, ka := launchEchod(t, Options{Audit: true, Recorder: rec})
	defer a.Shutdown()
	b, kb := launchEchod(t, Options{Audit: true, Recorder: rec})
	defer b.Shutdown()

	ca, err := ka.Connect(7000)
	if err != nil {
		t.Fatal(err)
	}
	cb, err := kb.Connect(7000)
	if err != nil {
		t.Fatal(err)
	}
	if got := sendRecv(t, ca, "a"); got != "v1:a:1" {
		t.Fatalf("A reply = %q, want v1:a:1", got)
	}
	if got := sendRecv(t, cb, "b"); got != "v1:b:1" {
		t.Fatalf("B reply = %q, want v1:b:1", got)
	}
	armWarm(t, b)
	if !b.WarmWait(10 * time.Second) {
		t.Fatalf("B's daemon never caught up: %+v", b.WarmStatus())
	}
	before, err := trace.StateDigest(b.Current())
	if err != nil {
		t.Fatal(err)
	}

	rep, err := a.Update(echodVersion("2.0", 1, "v2", true, 7000))
	if err != nil || rep.RolledBack {
		t.Fatalf("A's update: err=%v rolledBack=%v cause=%q", err, rep.RolledBack, rep.RollbackCause)
	}
	if rep.Transfer.Checksum == 0 {
		t.Error("A's audited update digested no transferred state")
	}
	after, err := trace.StateDigest(b.Current())
	if err != nil {
		t.Fatal(err)
	}
	if after != before {
		t.Fatalf("B's state digest moved while A updated: %#x -> %#x", before, after)
	}
	if ws := b.WarmStatus(); !ws.Armed {
		t.Fatal("B's daemon disarmed by A's update")
	}
	if got := sendRecv(t, ca, "c"); got != "v2:c:2" {
		t.Errorf("A post-update reply = %q, want v2:c:2", got)
	}

	rep, err = b.Update(echodVersion("2.0", 1, "v2", true, 7000))
	if err != nil || rep.RolledBack {
		t.Fatalf("B's update: err=%v rolledBack=%v cause=%q", err, rep.RolledBack, rep.RollbackCause)
	}
	if !rep.Warm {
		t.Error("B's update did not take the warm path")
	}
	if got := sendRecv(t, cb, "d"); got != "v2:d:2" {
		t.Errorf("B post-update reply = %q, want v2:d:2", got)
	}

	b.DisarmWarm()
	if d := rec.Dropped(); d != 0 {
		t.Fatalf("ring overflowed (%d dropped): the span counts need a complete capture", d)
	}
	count := map[string]int{}
	for _, s := range obs.Pair(rec.Events()) {
		count[s.Track+"/"+s.Phase]++
	}
	for _, want := range []string{obs.PhaseUpdate, obs.PhaseCommit} {
		if n := count[obs.TrackEngine+"/"+want]; n != 2 {
			t.Errorf("%d %s spans on the shared recorder, want one per engine", n, want)
		}
	}
	if count[obs.TrackDaemon+"/"+obs.PhasePass] == 0 {
		t.Error("no daemon pass span from B on the shared recorder")
	}

	a.Shutdown()
	b.Shutdown()
	if err := leakcheck.CheckGoroutines(g0, 5*time.Second); err != nil {
		t.Fatal(err)
	}
}
