package campaign

import (
	"context"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"syscall"
	"testing"
	"time"

	"repro/internal/journal"
	"repro/internal/telemetry"
	"repro/internal/worker"
)

// The proc-isolation tests run the campaign's real worker path: the test
// binary re-executes itself as a worker subprocess (REPRO_CAMPAIGN_WORKER),
// re-plans the campaign from the wire spec via WorkerFactory exactly as
// swifi -worker-mode does, and misbehaves on cue — SIGKILL mid-unit,
// SIGSTOP (heartbeat stall), deterministic crash, refusal to start — so the
// supervisor's redelivery, quarantine and circuit-breaker policies are
// exercised against real process death, not simulations. Every test's
// ground truth is the in-process Result: the tentpole's contract is
// bit-identical aggregates under any isolation mode.
func TestMain(m *testing.M) {
	if os.Getenv("REPRO_CAMPAIGN_WORKER") == "1" {
		if os.Getenv("REPRO_WORKER_EXIT_AT_START") == "1" {
			os.Exit(3)
		}
		installWorkerMisbehavior()
		if err := worker.Serve(os.Stdin, os.Stdout, WorkerFactory); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// installWorkerMisbehavior arms testProcUnitHook from the environment the
// supervising test set on the worker subprocess.
func installWorkerMisbehavior() {
	killUnit := envUnit("REPRO_WORKER_KILL_UNIT")
	stallUnit := envUnit("REPRO_WORKER_STALL_UNIT")
	if killUnit < 0 && stallUnit < 0 {
		return
	}
	testProcUnitHook = func(unit int) {
		if unit == killUnit && claimOnceFlag() {
			syscall.Kill(os.Getpid(), syscall.SIGKILL)
		}
		if unit == stallUnit && claimOnceFlag() {
			// SIGSTOP freezes heartbeats along with everything else: the
			// worker is alive but wedged, which only the silence timer can
			// detect.
			syscall.Kill(os.Getpid(), syscall.SIGSTOP)
		}
	}
}

func envUnit(name string) int {
	v := os.Getenv(name)
	if v == "" {
		return -1
	}
	n, err := strconv.Atoi(v)
	if err != nil {
		return -1
	}
	return n
}

// claimOnceFlag returns true at most once across all workers sharing the
// flag file; with no flag file configured the misbehavior repeats forever.
func claimOnceFlag() bool {
	path := os.Getenv("REPRO_WORKER_ONCE_FLAG")
	if path == "" {
		return true
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return false
	}
	f.Close()
	return true
}

// procConfig is isolationConfig under process isolation, spawning this test
// binary as the worker with the given extra environment.
func procConfig(env ...string) Config {
	cfg := isolationConfig()
	cfg.Isolation = IsolationProc
	cfg.Proc = &ProcOptions{
		Spawn: func() *exec.Cmd {
			cmd := exec.Command(os.Args[0])
			cmd.Env = append(os.Environ(), "REPRO_CAMPAIGN_WORKER=1")
			cmd.Env = append(cmd.Env, env...)
			cmd.Stderr = os.Stderr
			return cmd
		},
		HeartbeatInterval: 50 * time.Millisecond,
		BackoffBase:       10 * time.Millisecond,
		BackoffMax:        100 * time.Millisecond,
	}
	return cfg
}

// TestProcMatchesInProc: the tentpole's core contract. A healthy worker
// pool must reproduce the in-process campaign bit for bit — same entries,
// same counts, same activations — under a multi-worker pool.
func TestProcMatchesInProc(t *testing.T) {
	ref, err := Run(isolationConfig())
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(procConfig())
	if err != nil {
		t.Fatal(err)
	}
	if !sameEntries(res, ref) {
		t.Error("proc isolation changed the campaign outcome")
	}
	if res.Exec != ref.Exec {
		t.Errorf("proc ExecStats %+v, in-process %+v", res.Exec, ref.Exec)
	}
}

// TestProcWorkerKilledMidUnit: SIGKILL delivered to a worker in the middle
// of a unit must cost nothing — the unit is redelivered to a fresh worker
// and the aggregates stay bit-identical, with zero HostFaults.
func TestProcWorkerKilledMidUnit(t *testing.T) {
	ref, err := Run(isolationConfig())
	if err != nil {
		t.Fatal(err)
	}
	flag := filepath.Join(t.TempDir(), "killed")
	res, err := Run(procConfig(
		"REPRO_WORKER_KILL_UNIT=1",
		"REPRO_WORKER_ONCE_FLAG="+flag))
	if err != nil {
		t.Fatalf("campaign died with a SIGKILLed worker: %v", err)
	}
	if _, err := os.Stat(flag); err != nil {
		t.Fatal("the scripted SIGKILL never happened; the test proved nothing")
	}
	if res.Exec.HostFaults != 0 {
		t.Errorf("%d units quarantined; the killed delivery should have been redelivered", res.Exec.HostFaults)
	}
	if !sameEntries(res, ref) {
		t.Error("a worker death changed the campaign outcome")
	}
}

// TestProcHeartbeatStall: a worker that wedges (SIGSTOP — alive, silent)
// must be detected by the silence timer, killed, and its unit redelivered
// with no effect on the aggregates.
func TestProcHeartbeatStall(t *testing.T) {
	ref, err := Run(isolationConfig())
	if err != nil {
		t.Fatal(err)
	}
	flag := filepath.Join(t.TempDir(), "stalled")
	cfg := procConfig(
		"REPRO_WORKER_STALL_UNIT=2",
		"REPRO_WORKER_ONCE_FLAG="+flag)
	cfg.Proc.HeartbeatTimeout = 2 * time.Second
	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("campaign died with a stalled worker: %v", err)
	}
	if _, err := os.Stat(flag); err != nil {
		t.Fatal("the scripted stall never happened; the test proved nothing")
	}
	if res.Exec.HostFaults != 0 {
		t.Errorf("%d units quarantined; the stalled delivery should have been redelivered", res.Exec.HostFaults)
	}
	if !sameEntries(res, ref) {
		t.Error("a stalled worker changed the campaign outcome")
	}
}

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

// TestProcJournalResumesInProcess: a proc campaign interrupted mid-run
// leaves a journal that an in-process campaign resumes to the identical
// Result — the two isolation modes share one plan fingerprint and one wire
// encoding for outcomes.
func TestProcJournalResumesInProcess(t *testing.T) {
	ref, err := Run(isolationConfig())
	if err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(t.TempDir(), "proc.wal")
	j, err := journal.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	j.OnAppend = func(done int) {
		if done >= 2 {
			cancel()
		}
	}
	cfg := procConfig()
	cfg.Ctx = ctx
	cfg.Journal = j
	_, err = Run(cfg)
	var ie *InterruptedError
	if !errors.As(err, &ie) {
		j.Close()
		t.Fatalf("want an interrupt partway through, got %v", err)
	}
	if ie.Done >= ie.Total {
		t.Fatalf("interrupt landed after completion (%d/%d); the resume would be vacuous", ie.Done, ie.Total)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	j2, err := journal.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if j2.Len() < 2 {
		t.Fatalf("journal replays %d units, want at least the 2 appended before the interrupt", j2.Len())
	}
	resumed := isolationConfig() // in-process resume of a proc journal
	resumed.Journal = j2
	res, err := Run(resumed)
	if err != nil {
		t.Fatal(err)
	}
	if !sameEntries(res, ref) {
		t.Error("resuming a proc journal in-process changed the campaign outcome")
	}
}
