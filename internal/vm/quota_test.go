package vm

import (
	"errors"
	"testing"
)

// loopImage is an infinite loop (b .), the canonical limit-expiry program.
func loopImage() Image {
	return buildImage([]Inst{{Op: OpB, Off26: 0}})
}

// TestCycleQuotaAboveWatchdog: the normal configuration — quota strictly
// above the watchdog budget — must classify a dead loop as a hang exactly as
// if no quota were set: the quota is a backstop, never a classifier.
func TestCycleQuotaAboveWatchdog(t *testing.T) {
	m := New(Config{MaxCycles: 1000})
	m.SetCycleQuota(4000)
	if err := m.Load(loopImage()); err != nil {
		t.Fatal(err)
	}
	state, err := m.Run()
	if err != nil {
		t.Fatalf("quota above the watchdog must not fire: %v", err)
	}
	if state != StateHung {
		t.Fatalf("state = %v, want hung", state)
	}
	if m.Cycles() != 1000 {
		t.Fatalf("stopped at %d cycles, want the 1000-cycle watchdog", m.Cycles())
	}
}

// TestCycleQuotaBackstop: with the watchdog lost (huge budget), the quota
// must stop the run and report ErrCycleQuota — the host-fault signal the
// campaign executor quarantines on.
func TestCycleQuotaBackstop(t *testing.T) {
	m := New(Config{MaxCycles: 1 << 40})
	m.SetCycleQuota(500)
	if err := m.Load(loopImage()); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(); !errors.Is(err, ErrCycleQuota) {
		t.Fatalf("err = %v, want ErrCycleQuota", err)
	}
	if m.Cycles() != 500 {
		t.Fatalf("stopped at %d cycles, want the 500-cycle quota", m.Cycles())
	}
	// The quota verdict must not leak into a later run: after Reset the same
	// machine with a sane watchdog classifies the loop as an ordinary hang.
	if err := m.Reset(); err != nil {
		t.Fatal(err)
	}
	m.SetMaxCycles(100)
	state, err := m.Run()
	if err != nil {
		t.Fatalf("after Reset: %v", err)
	}
	if state != StateHung {
		t.Fatalf("after Reset: state = %v, want hung", state)
	}
}

// TestCycleQuotaStepPath: the quota must also fire on the step path, not just
// in the block engine. A watchpoint arms the step path.
func TestCycleQuotaStepPath(t *testing.T) {
	m := New(Config{MaxCycles: 1 << 40})
	m.SetCycleQuota(300)
	if err := m.Load(loopImage()); err != nil {
		t.Fatal(err)
	}
	// A watchpoint on a never-reached address arms the step path.
	m.SetWatch([]uint32{TextBase + 0x100}, nil, func(*Machine, uint32, bool) {})
	if _, err := m.Run(); !errors.Is(err, ErrCycleQuota) {
		t.Fatalf("err = %v, want ErrCycleQuota on the step path", err)
	}
	if m.Cycles() != 300 {
		t.Fatalf("stopped at %d cycles, want the 300-cycle quota", m.Cycles())
	}
}
