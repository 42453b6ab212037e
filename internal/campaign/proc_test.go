package campaign

import (
	"strconv"
	"testing"

	"repro/internal/telemetry"
)

// TestProcDoubleRedeliveryQuarantine: a unit that kills every worker it is
// delivered to must be quarantined as exactly one HostFault after
// MaxDeliveries attempts; every other unit still reports its true verdict.
func TestProcDoubleRedeliveryQuarantine(t *testing.T) {
	ref, err := Run(isolationConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfg := procConfig("REPRO_WORKER_KILL_UNIT=0") // no once-flag: kills every time
	cfg.Proc.MaxDeliveries = 2
	cfg.Proc.MaxRestarts = 100
	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("campaign died on a poison unit: %v", err)
	}
	if res.Exec.HostFaults != 1 {
		t.Fatalf("quarantined %d units, want exactly the poison unit", res.Exec.HostFaults)
	}
	if res.Runs != ref.Runs {
		t.Errorf("res.Runs = %d, want %d (quarantined units still count)", res.Runs, ref.Runs)
	}
	hostFaults := 0
	for i := range res.Entries {
		hostFaults += res.Entries[i].Counts[HostFault]
	}
	if hostFaults != 1 {
		t.Errorf("entries count %d HostFault verdicts, want 1", hostFaults)
	}
}

// TestProcCircuitBreakerFallsBack: when workers cannot start at all, the
// breaker must trip and the campaign must complete in-process with the
// identical Result — graceful degradation, not failure.
func TestProcCircuitBreakerFallsBack(t *testing.T) {
	ref, err := Run(isolationConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfg := procConfig("REPRO_WORKER_EXIT_AT_START=1")
	cfg.Proc.MaxRestarts = 2
	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("campaign died behind the circuit breaker: %v", err)
	}
	if res.Exec.HostFaults != 0 {
		t.Errorf("%d units quarantined by the fallback", res.Exec.HostFaults)
	}
	if !sameEntries(res, ref) {
		t.Error("the in-process fallback changed the campaign outcome")
	}
	if res.Exec != ref.Exec {
		t.Errorf("fallback ExecStats %+v, in-process %+v", res.Exec, ref.Exec)
	}
}

// TestProcCircuitBreakerKeepsVerdicts: when the breaker trips mid-campaign
// (here a unit kills every worker it reaches), the verdicts the pool
// already delivered stay, and only the units still missing run in-process:
// every unit is delivered exactly once and the Result is unchanged.
func TestProcCircuitBreakerKeepsVerdicts(t *testing.T) {
	ref, err := Run(isolationConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfg := procConfig("REPRO_WORKER_KILL_UNIT=" + strconv.Itoa(ref.Runs/2))
	cfg.Proc.MaxRestarts = 1
	cfg.Proc.MaxDeliveries = 10
	tel := &telemetry.Telemetry{Reg: telemetry.NewRegistry(), Trace: telemetry.NewTracer(telemetry.DefaultTraceCap)}
	cfg.Telemetry = tel
	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("campaign died behind the circuit breaker: %v", err)
	}
	if !sameEntries(res, ref) || res.Exec != ref.Exec {
		t.Errorf("the breaker changed the campaign outcome: ExecStats %+v, in-process %+v", res.Exec, ref.Exec)
	}
	c := tel.Reg.Counters()
	if c["worker_breaker_open"] != 1 {
		t.Fatal("the circuit breaker never tripped; the test proved nothing")
	}
	if got := c["campaign_units_executed_total"]; got != uint64(res.Runs) {
		t.Errorf("campaign_units_executed_total = %d, want %d: a unit was delivered twice or never", got, res.Runs)
	}
	sum := tel.Trace.Summary()
	if sum[telemetry.KindVerdict] != res.Runs {
		t.Errorf("trace holds %d verdicts, want %d", sum[telemetry.KindVerdict], res.Runs)
	}
	if n := sum[telemetry.KindDispatched]; n == 0 || n == res.Runs {
		t.Errorf("the in-process fallback ran %d of %d units; want some but not all", n, res.Runs)
	}
}
