package campaign

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// The isolation tests drive the executor's host-fault machinery through
// testUnitHook, which runs inside runUnitGuarded — exactly where a real
// interpreter or injector panic would surface.

func withUnitHook(t *testing.T, hook func(u *runUnit, attempt int)) {
	t.Helper()
	testUnitHook = hook
	t.Cleanup(func() { testUnitHook = nil })
}

// TestHostPanicRetriedOnFreshMachine: a panic on the first attempt of every
// unit must be absorbed by one retry on a fresh machine, leaving a complete
// campaign with true outcomes and Retried accounting — no HostFaults.
func TestHostPanicRetriedOnFreshMachine(t *testing.T) {
	ref, err := Run(isolationConfig())
	if err != nil {
		t.Fatal(err)
	}
	withUnitHook(t, func(u *runUnit, attempt int) {
		if attempt == 1 {
			panic("transient host fault (injected by test)")
		}
	})
	res, err := Run(isolationConfig())
	if err != nil {
		t.Fatalf("campaign died on a retriable panic: %v", err)
	}
	if res.Exec.Retried != res.Runs {
		t.Errorf("retried %d of %d units; every first attempt panicked", res.Exec.Retried, res.Runs)
	}
	if res.Exec.HostFaults != 0 {
		t.Errorf("%d units quarantined; all panics were single-shot", res.Exec.HostFaults)
	}
	if !sameEntries(res, ref) {
		t.Error("retried units changed the campaign outcome")
	}
}

// TestHostDoublePanicQuarantined: a unit that panics on both attempts is
// quarantined as a HostFault verdict and the campaign still completes, with
// every other unit reporting its true outcome.
func TestHostDoublePanicQuarantined(t *testing.T) {
	withUnitHook(t, func(u *runUnit, attempt int) {
		if u.caseIx == 1 {
			panic("persistent host fault (injected by test)")
		}
	})
	res, err := Run(isolationConfig())
	if err != nil {
		t.Fatalf("campaign died on a quarantinable panic: %v", err)
	}
	if res.Exec.HostFaults == 0 {
		t.Fatal("no unit was quarantined")
	}
	// Every fault × case pair with caseIx 1 is quarantined: half the units.
	if res.Exec.HostFaults*2 != res.Runs {
		t.Errorf("quarantined %d of %d units, want every caseIx=1 unit (half)", res.Exec.HostFaults, res.Runs)
	}
	hostFaults := 0
	for i := range res.Entries {
		hostFaults += res.Entries[i].Counts[HostFault]
	}
	if hostFaults != res.Exec.HostFaults {
		t.Errorf("entries count %d HostFault verdicts, Exec says %d", hostFaults, res.Exec.HostFaults)
	}
}

// TestUnitTimeoutQuarantined: a unit stalling past UnitTimeout is abandoned
// and quarantined; the campaign completes without it. Exactly one unit
// stalls — a per-unit stall with a tight deadline would let ordinary units
// trip the watchdog too on a slow (race-instrumented, loaded) machine — and
// the deadline is generous for the same reason: the property under test is
// "a stalled unit cannot stall the campaign", not the watchdog's latency.
func TestUnitTimeoutQuarantined(t *testing.T) {
	stall := make(chan struct{})
	release := sync.OnceFunc(func() { close(stall) })
	t.Cleanup(release)
	var stalled atomic.Bool
	withUnitHook(t, func(u *runUnit, attempt int) {
		if stalled.CompareAndSwap(false, true) {
			<-stall
		}
	})
	cfg := isolationConfig()
	cfg.UnitTimeout = 2 * time.Second
	res, err := Run(cfg)
	// Unblock the abandoned goroutine right away so it winds down while
	// the assertions run, instead of lingering into later tests.
	release()
	if err != nil {
		t.Fatalf("campaign died on a stalled unit: %v", err)
	}
	if res.Exec.HostFaults != 1 {
		t.Fatalf("quarantined %d units, want exactly the one stalled unit", res.Exec.HostFaults)
	}
	hostFaults := 0
	for i := range res.Entries {
		hostFaults += res.Entries[i].Counts[HostFault]
	}
	if hostFaults != 1 {
		t.Errorf("entries count %d HostFault verdicts, want 1", hostFaults)
	}
}
