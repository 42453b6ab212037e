package worker

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/journal"
	"repro/internal/telemetry"
)

// The supervisor tests run real subprocesses: the test binary re-executes
// itself with SWIFI_WORKER_TEST set, and TestMain routes those executions
// into helperMain, which plays a worker with a scripted behavior — honest,
// crashing, stalling, or speaking garbage.
func TestMain(m *testing.M) {
	if b := os.Getenv("SWIFI_WORKER_TEST"); b != "" {
		os.Exit(helperMain(b))
	}
	os.Exit(m.Run())
}

// helperSpec is the test Spec payload.
type helperSpec struct {
	Units int `json:"units"`
}

// helperRunner answers units with a deterministic function of the index so
// the supervisor tests can verify every verdict independently.
type helperRunner struct{ n int }

func (r *helperRunner) Units() int { return r.n }

func (r *helperRunner) Run(unit int) (journal.Outcome, []byte, error) {
	if unit == envInt("SWIFI_WORKER_TEST_DIE_UNIT", -1) && claimFlag() {
		syscall.Kill(os.Getpid(), syscall.SIGKILL)
	}
	if unit == envInt("SWIFI_WORKER_TEST_STALL_UNIT", -1) && claimFlag() {
		// SIGSTOP freezes the whole process, heartbeat goroutine included —
		// exactly the "alive but wedged" shape the silence timer exists for.
		syscall.Kill(os.Getpid(), syscall.SIGSTOP)
	}
	if unit == envInt("SWIFI_WORKER_TEST_HANG_UNIT", -1) && claimFlag() {
		// Stuck in the unit while the heartbeat goroutine keeps beating:
		// only the hard per-unit deadline can catch this.
		time.Sleep(time.Hour)
	}
	if us := envInt("SWIFI_WORKER_TEST_UNIT_US", 0); us > 0 {
		time.Sleep(time.Duration(us) * time.Microsecond)
	}
	return expectedOutcome(unit), []byte(fmt.Sprintf("u%d", unit)), nil
}

// expectedOutcome is the deterministic per-unit verdict both sides compute.
func expectedOutcome(unit int) journal.Outcome {
	return journal.Outcome{Mode: uint8(unit%4 + 1), Activated: unit%2 == 0}
}

func envInt(name string, def int) int {
	v := os.Getenv(name)
	if v == "" {
		return def
	}
	n, err := strconv.Atoi(v)
	if err != nil {
		return def
	}
	return n
}

// claimFlag returns true at most once across all worker processes sharing
// the flag file (misbehave-once semantics); with no flag file configured it
// always returns true (misbehave-always).
func claimFlag() bool {
	path := os.Getenv("SWIFI_WORKER_TEST_FLAG")
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

func helperMain(behavior string) int {
	switch behavior {
	case "echo":
		err := Serve(os.Stdin, os.Stdout, func(spec Spec) (Runner, error) {
			var cfg helperSpec
			if err := json.Unmarshal(spec.Payload, &cfg); err != nil {
				return nil, err
			}
			return &helperRunner{n: cfg.Units}, nil
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		return 0
	case "exit":
		return 3
	case "garbage":
		// A zero length prefix is the canonical garbage frame.
		os.Stdout.Write(make([]byte, 64))
		return 0
	case "truncated":
		// Claim a 100-byte frame, deliver 5, die.
		var hdr [4]byte
		binary.LittleEndian.PutUint32(hdr[:], 100)
		os.Stdout.Write(hdr[:])
		os.Stdout.Write([]byte{msgReady, 1, 2, 3, 4})
		return 0
	case "badversion", "badfp":
		typ, payload, err := ReadFrameCRC(os.Stdin)
		if err != nil || typ != msgHello {
			return 1
		}
		h, err := decodeHello(payload)
		if err != nil {
			return 1
		}
		var cfg helperSpec
		json.Unmarshal(h.Spec.Payload, &cfg)
		rd := ready{Version: ProtocolVersion, Fingerprint: h.Spec.Fingerprint, Units: uint32(cfg.Units)}
		if behavior == "badversion" {
			rd.Version = 99
		} else {
			rd.Fingerprint++
		}
		WriteFrameCRC(os.Stdout, msgReady, encodeReady(rd))
		// Hold the pipe open so the supervisor reacts to the frame, not EOF.
		ReadFrameCRC(os.Stdin)
		return 0
	default:
		fmt.Fprintf(os.Stderr, "unknown worker test behavior %q\n", behavior)
		return 2
	}
}

const testFingerprint = 0x5157494649f00d01

// testOptions builds fast-cadence pool options running this test binary as
// the worker with the given scripted behavior.
func testOptions(behavior string, units int, extraEnv ...string) Options {
	payload, _ := json.Marshal(helperSpec{Units: units})
	return Options{
		Workers: 2,
		Command: func() *exec.Cmd {
			cmd := exec.Command(os.Args[0])
			cmd.Env = append(os.Environ(), "SWIFI_WORKER_TEST="+behavior)
			cmd.Env = append(cmd.Env, extraEnv...)
			cmd.Stderr = os.Stderr
			return cmd
		},
		Spec:              Spec{Kind: "test/v1", Fingerprint: testFingerprint, Payload: payload},
		HeartbeatInterval: 20 * time.Millisecond,
		HeartbeatTimeout:  2 * time.Second,
		BackoffBase:       10 * time.Millisecond,
		BackoffMax:        50 * time.Millisecond,
		Quarantine:        journal.Outcome{Mode: 5},
	}
}

// collect runs the pool over [0, units) and gathers results keyed by index.
func collect(t *testing.T, opts Options, units int) (map[int]Result, error) {
	t.Helper()
	pool, err := NewPool(opts)
	if err != nil {
		t.Fatal(err)
	}
	indices := make([]int, units)
	for i := range indices {
		indices[i] = i
	}
	var mu sync.Mutex
	got := make(map[int]Result)
	runErr := pool.Run(context.Background(), indices, func(res Result) error {
		mu.Lock()
		defer mu.Unlock()
		if prev, dup := got[res.Index]; dup {
			t.Errorf("unit %d delivered twice: %+v then %+v", res.Index, prev, res)
		}
		got[res.Index] = res
		return nil
	})
	return got, runErr
}

// verify checks that every unit in [0, units) got its deterministic verdict
// except the listed quarantined ones, which must carry the quarantine mode.
func verify(t *testing.T, got map[int]Result, units int, quarantined ...int) {
	t.Helper()
	q := make(map[int]bool, len(quarantined))
	for _, ix := range quarantined {
		q[ix] = true
	}
	if len(got) != units {
		t.Fatalf("got %d results, want %d", len(got), units)
	}
	for i := 0; i < units; i++ {
		res, ok := got[i]
		if !ok {
			t.Fatalf("unit %d has no result", i)
		}
		if q[i] {
			if !res.Quarantined || res.Outcome.Mode != 5 {
				t.Fatalf("unit %d: want quarantine, got %+v", i, res)
			}
			continue
		}
		if res.Quarantined {
			t.Fatalf("unit %d unexpectedly quarantined", i)
		}
		if want := expectedOutcome(i); res.Outcome != want {
			t.Fatalf("unit %d: outcome %+v, want %+v", i, res.Outcome, want)
		}
		if want := fmt.Sprintf("u%d", i); string(res.Payload) != want {
			t.Fatalf("unit %d: payload %q, want %q", i, res.Payload, want)
		}
	}
}

func TestPoolRunsAllUnits(t *testing.T) {
	got, err := collect(t, testOptions("echo", 20), 20)
	if err != nil {
		t.Fatal(err)
	}
	verify(t, got, 20)
}

func TestPoolWorkerKilledMidUnit(t *testing.T) {
	flag := t.TempDir() + "/died"
	opts := testOptions("echo", 16,
		"SWIFI_WORKER_TEST_DIE_UNIT=7",
		"SWIFI_WORKER_TEST_FLAG="+flag)
	got, err := collect(t, opts, 16)
	if err != nil {
		t.Fatal(err)
	}
	// The SIGKILLed delivery is retried on a fresh worker: all sixteen units
	// finish with their true verdicts, nothing is quarantined or lost.
	verify(t, got, 16)
	if _, err := os.Stat(flag); err != nil {
		t.Fatal("the scripted mid-unit kill never happened; the test proved nothing")
	}
}

func TestPoolHeartbeatStall(t *testing.T) {
	flag := t.TempDir() + "/stalled"
	opts := testOptions("echo", 12,
		"SWIFI_WORKER_TEST_STALL_UNIT=4",
		"SWIFI_WORKER_TEST_FLAG="+flag)
	opts.HeartbeatTimeout = 400 * time.Millisecond
	got, err := collect(t, opts, 12)
	if err != nil {
		t.Fatal(err)
	}
	verify(t, got, 12)
	if _, err := os.Stat(flag); err != nil {
		t.Fatal("the scripted stall never happened; the test proved nothing")
	}
}

func TestPoolQuarantinesAfterRedelivery(t *testing.T) {
	// Unit 5 SIGKILLs every worker it touches. After MaxDeliveries workers
	// it must be quarantined rather than burn the whole restart budget.
	opts := testOptions("echo", 10, "SWIFI_WORKER_TEST_DIE_UNIT=5")
	opts.MaxDeliveries = 2
	opts.MaxRestarts = 100
	got, err := collect(t, opts, 10)
	if err != nil {
		t.Fatal(err)
	}
	verify(t, got, 10, 5)
}

func TestPoolCircuitBreaker(t *testing.T) {
	for _, behavior := range []string{"exit", "garbage", "truncated"} {
		t.Run(behavior, func(t *testing.T) {
			opts := testOptions(behavior, 6)
			opts.MaxRestarts = 3
			_, err := collect(t, opts, 6)
			if !errors.Is(err, ErrCircuitOpen) {
				t.Fatalf("want ErrCircuitOpen, got %v", err)
			}
		})
	}
}

func TestPoolRejectsVersionAndPlanMismatch(t *testing.T) {
	for behavior, want := range map[string]string{
		"badversion": "protocol version",
		"badfp":      "fingerprint",
	} {
		t.Run(behavior, func(t *testing.T) {
			_, err := collect(t, testOptions(behavior, 4), 4)
			if err == nil || !strings.Contains(err.Error(), want) {
				t.Fatalf("want error mentioning %q, got %v", want, err)
			}
		})
	}
}

func TestPoolContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	pool, err := NewPool(testOptions("echo", 8))
	if err != nil {
		t.Fatal(err)
	}
	err = pool.Run(ctx, []int{0, 1, 2, 3}, func(Result) error { return nil })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}

func TestPoolCallbackErrorAborts(t *testing.T) {
	pool, err := NewPool(testOptions("echo", 8))
	if err != nil {
		t.Fatal(err)
	}
	boom := errors.New("journal full")
	indices := []int{0, 1, 2, 3, 4, 5, 6, 7}
	err = pool.Run(context.Background(), indices, func(Result) error { return boom })
	if !errors.Is(err, boom) {
		t.Fatalf("want the callback error, got %v", err)
	}
}

// windowOptions runs the window tests on a single worker, so units reach
// it in index order and a unit dies with later units in its window.
func windowOptions(units int, extraEnv ...string) (Options, *telemetry.WorkerMetrics, *logLines) {
	opts := testOptions("echo", units, extraEnv...)
	opts.Workers = 1
	met := telemetry.NewWorkerMetrics(telemetry.NewRegistry())
	opts.Metrics = met
	logs := &logLines{}
	opts.Log = logs.add
	return opts, met, logs
}

// logLines collects the pool's supervision log.
type logLines struct {
	mu    sync.Mutex
	lines []string
}

func (l *logLines) add(format string, args ...any) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.lines = append(l.lines, fmt.Sprintf(format, args...))
}

func (l *logLines) count(substr string) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := 0
	for _, line := range l.lines {
		if strings.Contains(line, substr) {
			n++
		}
	}
	return n
}

func TestPoolWindowKillChargesNobody(t *testing.T) {
	// The worker dies on unit 20 once, with later units of its window
	// unanswered. Nobody can tell which unit it died on, so nobody is
	// charged: even with no retry allowed (MaxDeliveries 1), no unit is
	// quarantined and every verdict is the true one.
	flag := t.TempDir() + "/died"
	opts, met, logs := windowOptions(64,
		"SWIFI_WORKER_TEST_DIE_UNIT=20",
		"SWIFI_WORKER_TEST_FLAG="+flag)
	opts.MaxDeliveries = 1
	start := time.Now()
	got, err := collect(t, opts, 64)
	if err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	verify(t, got, 64)
	if _, err := os.Stat(flag); err != nil {
		t.Fatal("the scripted mid-window kill never happened; the test proved nothing")
	}
	if logs.count("redelivered alone as suspects") != 1 || met.Redeliveries.Value() < 2 {
		t.Fatalf("want one suspect redelivery of the whole window, got %d log lines and %d redeliveries",
			logs.count("redelivered alone as suspects"), met.Redeliveries.Value())
	}
	if q := met.Quarantines.Value(); q != 0 {
		t.Fatalf("%d units quarantined", q)
	}
	// Each verdict is timed from the later of its send and the previous
	// verdict, so one worker's latencies never overlap: they add up to at
	// most the run's wall time, however deep the window.
	if n := met.DeliveryLatency.Count(); n != 64 {
		t.Fatalf("%d delivery latencies observed, want one per unit", n)
	}
	if sum := met.DeliveryLatency.Sum(); sum > uint64(elapsed.Microseconds()) {
		t.Fatalf("delivery latencies sum to %dµs, more than the run's %v", sum, elapsed)
	}
}

func TestPoolWindowCrasherQuarantinedOnce(t *testing.T) {
	// Unit 40 kills every worker. The first death leaves a window of
	// suspects; delivered alone, unit 40 is charged with each later death
	// and quarantined after MaxDeliveries of them — one respawn more than
	// without the window, and no other unit is touched.
	opts, met, _ := windowOptions(100, "SWIFI_WORKER_TEST_DIE_UNIT=40")
	opts.MaxDeliveries = 2
	opts.MaxRestarts = 100
	got, err := collect(t, opts, 100)
	if err != nil {
		t.Fatal(err)
	}
	verify(t, got, 100, 40)
	if q := met.Quarantines.Value(); q != 1 {
		t.Fatalf("%d quarantines, want exactly unit 40", q)
	}
	if r := met.Restarts.Value(); r != uint64(opts.MaxDeliveries)+1 {
		t.Fatalf("%d worker restarts, want %d (MaxDeliveries plus the unattributed first death)", r, opts.MaxDeliveries+1)
	}
}

func TestPoolHardDeadlineWhileHeartbeating(t *testing.T) {
	// Unit 10 never finishes, but the worker keeps heartbeating, so the
	// silence timer never fires: the hard per-unit deadline must kill it.
	flag := t.TempDir() + "/hung"
	opts, _, logs := windowOptions(40,
		"SWIFI_WORKER_TEST_HANG_UNIT=10",
		"SWIFI_WORKER_TEST_FLAG="+flag)
	opts.HeartbeatTimeout = 400 * time.Millisecond
	opts.UnitTimeout = 50 * time.Millisecond
	got, err := collect(t, opts, 40)
	if err != nil {
		t.Fatal(err)
	}
	verify(t, got, 40)
	if _, err := os.Stat(flag); err != nil {
		t.Fatal("the scripted hang never happened; the test proved nothing")
	}
	if logs.count("unit 10 exceeded the hard deadline") != 1 {
		t.Fatalf("want the hard deadline to kill the worker on unit 10; log: %q", logs.lines)
	}
	if logs.count("silent for") != 0 {
		t.Fatal("the silence timer fired although the worker kept heartbeating")
	}
}

func TestPoolMemQuotaSelfRecycle(t *testing.T) {
	// A one-byte quota puts every worker over it at its first heartbeat
	// tick; the next verdict is its last. Every unit completes, and the
	// recycles are not churn: one counted restart would trip the breaker.
	opts, met, logs := windowOptions(60, "SWIFI_WORKER_TEST_UNIT_US=2000")
	opts.MemQuota = 1
	opts.MaxRestarts = 1
	got, err := collect(t, opts, 60)
	if err != nil {
		t.Fatal(err)
	}
	verify(t, got, 60)
	if logs.count("self-recycled") == 0 {
		t.Fatal("no worker self-recycled; the test proved nothing")
	}
	if r := met.Restarts.Value(); r != 0 {
		t.Fatalf("%d self-recycles counted as churn", r)
	}
}
