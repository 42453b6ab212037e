package campaign

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"syscall"
	"testing"
	"time"

	"repro/internal/telemetry"
	"repro/internal/worker"
)

// The shared fixtures of this package's tests: the campaign configurations
// they run, the worker re-exec and its scripted misbehaviour, and the
// loopback fabric.

// The proc-isolation tests run the campaign's real worker path: the test
// binary re-executes itself as a worker subprocess (REPRO_CAMPAIGN_WORKER),
// re-plans the campaign from the wire spec via WorkerFactory exactly as
// swifi -worker-mode does, and misbehaves on cue — SIGKILL mid-unit,
// SIGSTOP (heartbeat stall), deterministic crash, refusal to start — so the
// supervisor's redelivery, quarantine and circuit-breaker policies are
// exercised against real process death, not simulations.
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

// isolationConfig is the smallest campaign: one program, two cases.
func isolationConfig() Config {
	return Config{
		Programs:      []string{"JB.team11"},
		CasesPerFault: 2,
		Seed:          3,
		Workers:       4,
	}
}

// SmallConfig keeps campaign tests fast: two small programs, few
// locations, few cases. It is exported to this package's external tests.
func SmallConfig() Config {
	return Config{
		Programs:      []string{"JB.team11", "JB.team6"},
		CasesPerFault: 4,
		ChosenAssign:  map[string]int{"JB.team11": 3, "JB.team6": 3},
		ChosenCheck:   map[string]int{"JB.team11": 3, "JB.team6": 3},
		Seed:          5,
	}
}

// ResumeConfig is the scaled-down campaign the crash-safety properties are
// proved on: small enough to run many times, large enough that killing it
// after a handful of units leaves real work for the resume. It is exported
// to this package's external tests.
func ResumeConfig() Config {
	return Config{
		Programs:      []string{"JB.team11"},
		CasesPerFault: 4,
		Seed:          11,
	}
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

// freeLoopbackAddr reserves a loopback port for the coordinator. The
// bind-close-rebind window is racy in principle, but the port is only
// handed to this test's own coordinator immediately after.
func freeLoopbackAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

// joinUntilDone keeps an executor joined at addr until the campaign
// completes, retrying while the coordinator has not bound yet (the
// coordinator only starts listening after planning).
func joinUntilDone(ctx context.Context, t *testing.T, addr string, opts JoinOptions) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		err := JoinFabric(ctx, addr, opts)
		if err == nil || ctx.Err() != nil {
			return
		}
		if time.Now().After(deadline) {
			t.Errorf("executor %s never completed: %v", opts.Name, err)
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func fabricConfig(addr string, hosts int) Config {
	cfg := isolationConfig()
	cfg.Fabric = &FabricOptions{
		Listen:            addr,
		MinHosts:          hosts,
		HeartbeatInterval: 20 * time.Millisecond,
		HeartbeatTimeout:  2 * time.Second,
	}
	return cfg
}

// FullTelemetry builds a Telemetry handle with every plane enabled: a
// registry, a tracer sinking JSONL to a temp file, and a non-TTY progress
// line into a discarded buffer. It returns the sink's path, and is exported
// to this package's external tests.
func FullTelemetry(t *testing.T) (*telemetry.Telemetry, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	tr := telemetry.NewTracer(telemetry.DefaultTraceCap)
	tr.SinkJSONL(f)
	var buf bytes.Buffer
	return &telemetry.Telemetry{
		Reg:      telemetry.NewRegistry(),
		Trace:    tr,
		Progress: telemetry.NewProgress(&buf, false, 0),
	}, path
}

// sameEntries compares two Results' entries field by field, ignoring Exec.
func sameEntries(a, b *Result) bool {
	if len(a.Entries) != len(b.Entries) || a.Runs != b.Runs {
		return false
	}
	for i := range a.Entries {
		x, y := &a.Entries[i], &b.Entries[i]
		if x.Program != y.Program || x.Class != y.Class || x.ErrType != y.ErrType ||
			x.Runs != y.Runs || x.Activated != y.Activated || len(x.Counts) != len(y.Counts) {
			return false
		}
		for m, n := range x.Counts {
			if y.Counts[m] != n {
				return false
			}
		}
	}
	return true
}
