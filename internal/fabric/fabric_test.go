package fabric

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/journal"
	"repro/internal/telemetry"
	"repro/internal/worker"
)

// The loopback tests drive a real coordinator and real executors over
// 127.0.0.1 TCP, with a deterministic fake plan: every unit's verdict is a
// pure function of its index, which is exactly the contract the fabric
// leans on (duplicate execution is harmless, any executor produces the
// same bytes).

func testSpec() worker.Spec {
	payload := []byte(`{"plan":"fake"}`)
	return worker.Spec{
		Kind:        "fabrictest/v1",
		Fingerprint: payloadFingerprint("fabrictest/v1", payload),
		Payload:     payload,
	}
}

func testOutcome(unit int) (journal.Outcome, []byte) {
	return journal.Outcome{Mode: uint8(unit%4 + 1), Activated: unit%2 == 0},
		[]byte(fmt.Sprintf("unit-%d", unit))
}

type fakeRunner struct {
	units int
	delay time.Duration
}

func (r *fakeRunner) Units() int { return r.units }

func (r *fakeRunner) Run(unit int) (journal.Outcome, []byte, error) {
	if r.delay > 0 {
		time.Sleep(r.delay)
	}
	o, p := testOutcome(unit)
	return o, p, nil
}

func fakeFactory(units int, delay time.Duration) worker.Factory {
	return func(spec worker.Spec) (worker.Runner, error) {
		return &fakeRunner{units: units, delay: delay}, nil
	}
}

func testCoordinator(t *testing.T, units, minHosts int, m *Metrics) *Coordinator {
	t.Helper()
	coord, err := NewCoordinator(CoordinatorOptions{
		Addr:              "127.0.0.1:0",
		MinHosts:          minHosts,
		Spec:              testSpec(),
		Units:             units,
		HeartbeatInterval: 20 * time.Millisecond,
		HeartbeatTimeout:  2 * time.Second,
		// Tests sever connections on purpose; expire the session quickly so
		// redelivery expectations hold without multi-second waits.
		SessionTimeout: 150 * time.Millisecond,
		Quarantine:     journal.Outcome{Mode: 9},
		Metrics:        m,
		Log:            t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	return coord
}

func seqIndices(n int) []int {
	indices := make([]int, n)
	for i := range indices {
		indices[i] = i
	}
	return indices
}

// collectRun drives coord.Run over all units and asserts exactly-once
// delivery.
func collectRun(t *testing.T, coord *Coordinator, units int, onDelivered func(count int)) []worker.Result {
	t.Helper()
	results := make([]worker.Result, units)
	seen := make([]bool, units)
	count := 0
	err := coord.Run(context.Background(), seqIndices(units), func(r worker.Result) error {
		if r.Index < 0 || r.Index >= units {
			t.Errorf("result index %d out of range", r.Index)
			return nil
		}
		if seen[r.Index] {
			t.Errorf("unit %d delivered twice", r.Index)
		}
		seen[r.Index] = true
		results[r.Index] = r
		count++
		if onDelivered != nil {
			onDelivered(count)
		}
		return nil
	})
	if err != nil {
		t.Fatalf("coordinator run: %v", err)
	}
	for i, ok := range seen {
		if !ok {
			t.Fatalf("unit %d never delivered", i)
		}
	}
	return results
}

func checkResults(t *testing.T, results []worker.Result) {
	t.Helper()
	for i, r := range results {
		o, p := testOutcome(i)
		if r.Quarantined || r.Outcome != o || string(r.Payload) != string(p) {
			t.Fatalf("unit %d: got %+v, want outcome %+v payload %q", i, r, o, p)
		}
	}
}

// TestFabricLoopback runs the same fake campaign over 1 and 3 loopback
// executors: every fleet size must deliver the identical result set.
func TestFabricLoopback(t *testing.T) {
	const units = 60
	run := func(hosts int) []worker.Result {
		coord := testCoordinator(t, units, hosts, nil)
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		joinErr := make(chan error, hosts)
		for i := 0; i < hosts; i++ {
			name := fmt.Sprintf("exec-%d", i)
			go func() {
				joinErr <- Join(ctx, coord.Addr().String(), ExecutorOptions{
					Name:    name,
					Workers: 2,
					Batch:   inProcFactory(fakeFactory(units, 0), 2),
				})
			}()
		}
		results := collectRun(t, coord, units, nil)
		for i := 0; i < hosts; i++ {
			if err := <-joinErr; err != nil {
				t.Fatalf("executor join: %v", err)
			}
		}
		return results
	}
	single := run(1)
	checkResults(t, single)
	fleet := run(3)
	if !reflect.DeepEqual(single, fleet) {
		t.Fatal("3-executor results differ from single-executor results")
	}
}

// blockedRunner never finishes a unit until released — the stand-in for a
// wedged host.
type blockedRunner struct {
	units   int
	release chan struct{}
}

func (r *blockedRunner) Units() int { return r.units }

func (r *blockedRunner) Run(unit int) (journal.Outcome, []byte, error) {
	<-r.release
	o, p := testOutcome(unit)
	return o, p, nil
}

// TestFabricHostLossAndSteal wedges one of two executors. The healthy host
// steals the wedged host's range down to its last unit; killing the wedged
// host then redelivers that unit, and the campaign completes with every
// verdict delivered exactly once.
func TestFabricHostLossAndSteal(t *testing.T) {
	const units = 40
	reg := telemetry.NewRegistry()
	m := &Metrics{
		Hosts:       reg.Gauge("hosts"),
		Assigned:    reg.Counter("assigned"),
		Steals:      reg.Counter("steals"),
		Redelivered: reg.Counter("redelivered"),
		HostDeaths:  reg.Counter("deaths"),
		Quarantines: reg.Counter("quarantines"),
	}
	coord := testCoordinator(t, units, 2, m)

	healthyCtx, healthyCancel := context.WithCancel(context.Background())
	defer healthyCancel()
	wedgedCtx, wedgedCancel := context.WithCancel(context.Background())
	defer wedgedCancel()
	release := make(chan struct{})

	joinErr := make(chan error, 2)
	go func() {
		joinErr <- Join(healthyCtx, coord.Addr().String(), ExecutorOptions{
			Name:  "healthy",
			Batch: inProcFactory(fakeFactory(units, 0), 1),
		})
	}()
	go func() {
		joinErr <- Join(wedgedCtx, coord.Addr().String(), ExecutorOptions{
			Name: "wedged",
			Batch: func(spec worker.Spec) (BatchRunner, error) {
				return &inProcBatch{runners: []worker.Runner{&blockedRunner{units: units, release: release}}}, nil
			},
		})
	}()

	// The healthy host drains everything it can reach — its own shard plus
	// steals — until only the wedged host's in-flight unit remains. Killing
	// the wedged host at that point redelivers deterministically.
	killed := false
	results := collectRun(t, coord, units, func(count int) {
		if count == units-1 && !killed {
			killed = true
			wedgedCancel()
		}
	})
	checkResults(t, results)
	// Unblock the wedged runner only after the campaign is over, so its
	// still-running unit cannot race the redelivery.
	close(release)

	for i := 0; i < 2; i++ {
		err := <-joinErr
		if err != nil && err != context.Canceled {
			t.Fatalf("executor join: %v", err)
		}
	}
	if got := reg.Counters(); got["deaths"] != 1 || got["steals"] == 0 || got["redelivered"] == 0 {
		t.Fatalf("metrics: deaths=%d steals=%d redelivered=%d, want 1/>0/>0",
			got["deaths"], got["steals"], got["redelivered"])
	}
	if got := m.Hosts.Value(); got != 0 {
		t.Fatalf("hosts gauge %d after shutdown, want 0", got)
	}
	// The lost host keeps its roster row: its history is part of the run.
	rows := coord.Fleet().Hosts
	if len(rows) != 2 {
		t.Fatalf("fleet view has %d rows after a host loss, want 2: %+v", len(rows), rows)
	}
	for _, h := range rows {
		if wedged := h.Name == "wedged"; h.Expired != wedged || h.Attached {
			t.Errorf("row %s: expired=%v attached=%v, want expired=%v attached=false", h.Name, h.Expired, h.Attached, wedged)
		}
	}
}

// TestFabricRejectsMismatchedExecutor sends in one executor whose rebuilt
// plan disagrees on the unit count. It must be turned away at the
// handshake with a diagnostic — and the campaign must finish undisturbed
// on the good executor.
func TestFabricRejectsMismatchedExecutor(t *testing.T) {
	const units = 20
	coord := testCoordinator(t, units, 1, nil)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	badErr := make(chan error, 1)
	go func() {
		badErr <- Join(ctx, coord.Addr().String(), ExecutorOptions{
			Name:  "bad",
			Batch: inProcFactory(fakeFactory(units+5, 0), 1),
		})
	}()
	goodErr := make(chan error, 1)
	go func() {
		goodErr <- Join(ctx, coord.Addr().String(), ExecutorOptions{
			Name:  "good",
			Batch: inProcFactory(fakeFactory(units, 0), 1),
		})
	}()

	results := collectRun(t, coord, units, nil)
	checkResults(t, results)
	if err := <-goodErr; err != nil {
		t.Fatalf("good executor: %v", err)
	}
	if err := <-badErr; err == nil || !strings.Contains(err.Error(), "units") {
		t.Fatalf("mismatched executor joined without error (err=%v)", err)
	}
}

// TestFabricExecutorErrorAborts: a unit error inside an executor's batch is
// deterministic (the same unit fails on any host), so it aborts the whole
// campaign instead of being retried elsewhere.
func TestFabricExecutorErrorAborts(t *testing.T) {
	const units = 10
	coord := testCoordinator(t, units, 1, nil)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	factory := func(spec worker.Spec) (worker.Runner, error) {
		return &failingRunner{units: units, failAt: 7}, nil
	}
	joinErr := make(chan error, 1)
	go func() {
		joinErr <- Join(ctx, coord.Addr().String(), ExecutorOptions{
			Name:  "failing",
			Batch: inProcFactory(factory, 1),
		})
	}()
	err := coord.Run(context.Background(), seqIndices(units), func(r worker.Result) error { return nil })
	if err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("coordinator run: %v, want the executor's unit error", err)
	}
	if err := <-joinErr; err == nil {
		t.Fatal("failing executor exited cleanly")
	}
}

type failingRunner struct {
	units  int
	failAt int
}

func (r *failingRunner) Units() int { return r.units }

func (r *failingRunner) Run(unit int) (journal.Outcome, []byte, error) {
	if unit == r.failAt {
		return journal.Outcome{}, nil, fmt.Errorf("boom: unit %d", unit)
	}
	o, p := testOutcome(unit)
	return o, p, nil
}

// TestFabricLateJoiner starts the campaign with one executor and lets a
// second join mid-run: the latecomer must be folded in by stealing, not
// ignored.
func TestFabricLateJoiner(t *testing.T) {
	const units = 30
	reg := telemetry.NewRegistry()
	m := &Metrics{Steals: reg.Counter("steals")}
	coord := testCoordinator(t, units, 1, m)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	joinErr := make(chan error, 2)
	go func() {
		joinErr <- Join(ctx, coord.Addr().String(), ExecutorOptions{
			Name:  "first",
			Batch: inProcFactory(fakeFactory(units, 5*time.Millisecond), 1),
		})
	}()
	var once sync.Once
	results := collectRun(t, coord, units, func(count int) {
		once.Do(func() {
			go func() {
				joinErr <- Join(ctx, coord.Addr().String(), ExecutorOptions{
					Name:  "late",
					Batch: inProcFactory(fakeFactory(units, 0), 1),
				})
			}()
		})
	})
	checkResults(t, results)
	for i := 0; i < 2; i++ {
		if err := <-joinErr; err != nil {
			t.Fatalf("executor join: %v", err)
		}
	}
	if reg.Counters()["steals"] == 0 {
		t.Fatal("late joiner never stole work")
	}
}
