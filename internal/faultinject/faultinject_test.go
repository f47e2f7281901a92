package faultinject

import (
	"errors"
	"testing"
	"time"
)

func TestNilPlaneIsInert(t *testing.T) {
	var p *Plane
	if err := p.Check(PointAnalysis); err != nil {
		t.Fatalf("nil Check = %v", err)
	}
	if err := p.Stall(PointRestartHang, nil); err != nil {
		t.Fatalf("nil Stall = %v", err)
	}
	p.Arm(PointAnalysis)
	p.ReleaseStalls()
	if p.Firings() != nil || p.Fired(PointAnalysis) {
		t.Fatal("nil plane recorded firings")
	}
}

func TestCheckFiresOnArmedHit(t *testing.T) {
	p := New(1)
	if err := p.Check(PointAnalysis); err != nil {
		t.Fatalf("unarmed Check = %v", err)
	}
	p.ArmAt(PointAnalysis, 2, 1)
	if err := p.Check(PointAnalysis); err != nil {
		t.Fatalf("hit 1 fired early: %v", err)
	}
	err := p.Check(PointAnalysis)
	var fe *Error
	if !errors.As(err, &fe) || fe.Point != PointAnalysis || fe.Hit != 2 {
		t.Fatalf("hit 2 = %v, want *Error{analysis, 2}", err)
	}
	// One-shot: the arming is consumed.
	if err := p.Check(PointAnalysis); err != nil {
		t.Fatalf("hit 3 after one-shot = %v", err)
	}
	fir := p.Firings()
	if len(fir) != 1 || fir[0] != (Firing{Point: PointAnalysis, Hit: 2, Kind: "error"}) {
		t.Fatalf("firings = %+v", fir)
	}
}

func TestArmCountFiresConsecutively(t *testing.T) {
	p := New(1)
	p.ArmAt(PointTransferError, 1, 2)
	if p.Check(PointTransferError) == nil || p.Check(PointTransferError) == nil {
		t.Fatal("armed count=2 did not fire twice")
	}
	if err := p.Check(PointTransferError); err != nil {
		t.Fatalf("third hit fired: %v", err)
	}
}

func TestStallParksUntilCancel(t *testing.T) {
	p := New(1)
	p.Arm(PointRestartHang)
	cancel := make(chan struct{})
	got := make(chan error, 1)
	go func() { got <- p.Stall(PointRestartHang, cancel) }()
	select {
	case err := <-got:
		t.Fatalf("stall returned before cancel: %v", err)
	case <-time.After(20 * time.Millisecond):
	}
	close(cancel)
	select {
	case err := <-got:
		var fe *Error
		if !errors.As(err, &fe) || !fe.Stall {
			t.Fatalf("released stall = %v, want stall *Error", err)
		}
	case <-time.After(time.Second):
		t.Fatal("stall never released by cancel")
	}
}

func TestReleaseStallsFreesParkedAndFutureStalls(t *testing.T) {
	p := New(1)
	p.ArmAt(PointTransferStall, 1, 2)
	got := make(chan error, 1)
	go func() { got <- p.Stall(PointTransferStall, nil) }()
	time.Sleep(5 * time.Millisecond)
	p.ReleaseStalls()
	p.ReleaseStalls() // idempotent
	select {
	case err := <-got:
		if err == nil {
			t.Fatal("released stall returned nil")
		}
	case <-time.After(time.Second):
		t.Fatal("stall never released")
	}
	// A stall firing after the release must not park at all.
	done := make(chan error, 1)
	go func() { done <- p.Stall(PointTransferStall, nil) }()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("post-release stall returned nil")
		}
	case <-time.After(time.Second):
		t.Fatal("post-release stall parked")
	}
}

func TestArmSeededIsDeterministicPerSeed(t *testing.T) {
	n1 := New(42).ArmSeeded(PointTransferError, 8)
	n2 := New(42).ArmSeeded(PointTransferError, 8)
	if n1 != n2 {
		t.Fatalf("same seed picked hits %d and %d", n1, n2)
	}
	if n1 < 1 || n1 > 8 {
		t.Fatalf("seeded hit %d outside [1,8]", n1)
	}
	// The plane it armed fires exactly on that hit.
	p := New(42)
	p.ArmSeeded(PointTransferError, 8)
	for i := 1; i < n1; i++ {
		if err := p.Check(PointTransferError); err != nil {
			t.Fatalf("fired on hit %d, want %d", i, n1)
		}
	}
	if p.Check(PointTransferError) == nil {
		t.Fatalf("did not fire on seeded hit %d", n1)
	}
}

func TestDisarmStopsFiring(t *testing.T) {
	p := New(1)
	p.Arm(PointCommitCrash)
	p.Disarm(PointCommitCrash)
	if err := p.Check(PointCommitCrash); err != nil {
		t.Fatalf("disarmed point fired: %v", err)
	}
}
