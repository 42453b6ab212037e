package fabric

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/journal"
	"repro/internal/telemetry"
	"repro/internal/worker"
)

// relay is a severable TCP proxy between executors and the coordinator: it
// can cut every live link (simulating a partition or an RST storm) and
// retarget to a different backend (simulating a coordinator restart on the
// same advertised address).
type relay struct {
	ln net.Listener

	mu     sync.Mutex
	target string
	conns  map[net.Conn]bool
}

func newRelay(t *testing.T, target string) *relay {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	r := &relay{ln: ln, target: target, conns: make(map[net.Conn]bool)}
	t.Cleanup(func() { ln.Close(); r.sever() })
	go r.accept()
	return r
}

func (r *relay) addr() string { return r.ln.Addr().String() }

func (r *relay) setTarget(target string) {
	r.mu.Lock()
	r.target = target
	r.mu.Unlock()
}

// sever cuts every live link; new dials still go through.
func (r *relay) sever() {
	r.mu.Lock()
	defer r.mu.Unlock()
	for c := range r.conns {
		c.Close()
	}
	r.conns = make(map[net.Conn]bool)
}

func (r *relay) accept() {
	for {
		client, err := r.ln.Accept()
		if err != nil {
			return
		}
		r.mu.Lock()
		target := r.target
		r.mu.Unlock()
		backend, err := net.Dial("tcp", target)
		if err != nil {
			client.Close()
			continue
		}
		r.mu.Lock()
		r.conns[client] = true
		r.conns[backend] = true
		r.mu.Unlock()
		pipe := func(dst, src net.Conn) {
			buf := make([]byte, 32*1024)
			for {
				n, err := src.Read(buf)
				if n > 0 {
					if _, werr := dst.Write(buf[:n]); werr != nil {
						break
					}
				}
				if err != nil {
					break
				}
			}
			dst.Close()
			src.Close()
		}
		go pipe(backend, client)
		go pipe(client, backend)
	}
}

// execCounts counts how often each unit actually ran, across every runner a
// test builds: the executors' side of exactly-once, which the merge's
// duplicate drop would otherwise hide.
type execCounts struct {
	mu sync.Mutex
	n  map[int]int
}

func (c *execCounts) factory(f worker.Factory) worker.Factory {
	return func(spec worker.Spec) (worker.Runner, error) {
		r, err := f(spec)
		if err != nil {
			return nil, err
		}
		return countingRunner{r, c}, nil
	}
}

type countingRunner struct {
	worker.Runner
	c *execCounts
}

func (r countingRunner) Run(unit int) (journal.Outcome, []byte, error) {
	r.c.mu.Lock()
	if r.c.n == nil {
		r.c.n = make(map[int]int)
	}
	r.c.n[unit]++
	r.c.mu.Unlock()
	return r.Runner.Run(unit)
}

// once fails the test unless each of the plan's units ran exactly once.
func (c *execCounts) once(t *testing.T, units int) {
	t.Helper()
	c.mu.Lock()
	defer c.mu.Unlock()
	for u := 0; u < units; u++ {
		if c.n[u] != 1 {
			t.Errorf("unit %d executed %d times, want exactly once", u, c.n[u])
		}
	}
}

// TestFabricReconnectResume severs the executor's connection twice
// mid-campaign. The session must survive both cuts — the executor
// re-attaches, retransmits unacked verdicts, and the campaign completes with
// exactly-once delivery, zero host deaths and zero redeliveries. The
// re-attach re-sends the session's outstanding units, and none of them may
// run twice: the executor already holds them.
func TestFabricReconnectResume(t *testing.T) {
	const units = 60
	reg := telemetry.NewRegistry()
	m := &Metrics{
		Resumed:     reg.Counter("resumed"),
		HostDeaths:  reg.Counter("deaths"),
		Redelivered: reg.Counter("redelivered"),
	}
	coord, err := NewCoordinator(CoordinatorOptions{
		Addr:              "127.0.0.1:0",
		MinHosts:          1,
		Spec:              testSpec(),
		Units:             units,
		HeartbeatInterval: 20 * time.Millisecond,
		HeartbeatTimeout:  2 * time.Second,
		SessionTimeout:    10 * time.Second, // a cut must never expire the session
		Quarantine:        journal.Outcome{Mode: 9},
		Metrics:           m,
		Log:               t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	rl := newRelay(t, coord.Addr().String())

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	xm := &ExecutorMetrics{Reconnects: reg.Counter("reconnects"), Resumes: reg.Counter("resumes")}
	var execs execCounts
	joinErr := make(chan error, 1)
	go func() {
		joinErr <- Join(ctx, rl.addr(), ExecutorOptions{
			Name:            "flaky",
			Batch:           inProcFactory(execs.factory(fakeFactory(units, 2*time.Millisecond)), 1),
			ReconnectWindow: 15 * time.Second,
			Metrics:         xm,
		})
	}()

	cuts := 0
	results := collectRun(t, coord, units, func(count int) {
		if (count == units/4 || count == units/2) && cuts < 2 {
			cuts++
			rl.sever()
		}
	})
	checkResults(t, results)
	if err := <-joinErr; err != nil {
		t.Fatalf("executor join: %v", err)
	}
	got := reg.Counters()
	if got["resumed"] < 2 || got["resumes"] < 2 || got["reconnects"] < 2 {
		t.Fatalf("resumed=%d resumes=%d reconnects=%d after 2 cuts, want >=2 each",
			got["resumed"], got["resumes"], got["reconnects"])
	}
	if got["deaths"] != 0 || got["redelivered"] != 0 {
		t.Fatalf("deaths=%d redelivered=%d, want 0/0 (the session never expired)",
			got["deaths"], got["redelivered"])
	}
	// Every re-attach lands on the one session, so the roster keeps one row
	// and counts each re-attach as a reconnect.
	if hs := coord.Hosts(); len(hs) != 1 || hs[0].Reconnects != int(got["resumed"]) || hs[0].Expired {
		t.Fatalf("hosts %+v after %d re-attaches, want one live row with that many reconnects", hs, got["resumed"])
	}
	execs.once(t, units)
}

// TestFabricCoordinatorRestartRecovery kills the coordinator mid-campaign
// (no shutdown frames — links are severed first, like a SIGKILL behind a
// partition) and restarts it with -resume semantics: the journal replays
// finished units, the executor re-attaches with its session token and the
// units it holds, the new coordinator adopts that session, and the merged
// journal is byte-identical to a clean single-pass run, with every unit
// executed once.
func TestFabricCoordinatorRestartRecovery(t *testing.T) {
	const units = 80
	const fp = uint64(0xc0ffee)
	dir := t.TempDir()
	jpath := filepath.Join(dir, "campaign.journal")

	// Golden: the same outcomes written cleanly in order.
	golden := filepath.Join(dir, "golden.journal")
	gj, err := journal.Create(golden)
	if err != nil {
		t.Fatal(err)
	}
	if err := gj.Bind(fp); err != nil {
		t.Fatal(err)
	}
	for u := 0; u < units; u++ {
		o, _ := testOutcome(u)
		if err := gj.Append(u, o); err != nil {
			t.Fatal(err)
		}
	}
	if err := gj.Canonicalize(); err != nil {
		t.Fatal(err)
	}
	if err := gj.Close(); err != nil {
		t.Fatal(err)
	}

	j, err := journal.Create(jpath)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Bind(fp); err != nil {
		t.Fatal(err)
	}

	newCoord := func(m *Metrics) *Coordinator {
		t.Helper()
		coord, err := NewCoordinator(CoordinatorOptions{
			Addr:              "127.0.0.1:0",
			MinHosts:          1,
			Spec:              testSpec(),
			Units:             units,
			HeartbeatInterval: 20 * time.Millisecond,
			HeartbeatTimeout:  2 * time.Second,
			SessionTimeout:    10 * time.Second,
			Quarantine:        journal.Outcome{Mode: 9},
			Metrics:           m,
			Log:               t.Logf,
		})
		if err != nil {
			t.Fatal(err)
		}
		return coord
	}

	coord1 := newCoord(nil)
	rl := newRelay(t, coord1.Addr().String())

	// Delivery accounting spans both coordinator incarnations: every unit
	// exactly once, total.
	var mu sync.Mutex
	seen := make(map[int]int)

	execCtx, execCancel := context.WithCancel(context.Background())
	defer execCancel()
	var execs execCounts
	joinErr := make(chan error, 1)
	go func() {
		joinErr <- Join(execCtx, rl.addr(), ExecutorOptions{
			Name:            "survivor",
			Batch:           inProcFactory(execs.factory(fakeFactory(units, 3*time.Millisecond)), 1),
			ReconnectWindow: 20 * time.Second,
		})
	}()

	// Phase 1: run until a third of the campaign is journaled, then crash.
	run1Ctx, run1Cancel := context.WithCancel(context.Background())
	crashed := make(chan struct{})
	err = coord1.Run(run1Ctx, seqIndices(units), func(r worker.Result) error {
		mu.Lock()
		seen[r.Index]++
		n := len(seen)
		mu.Unlock()
		if err := j.Append(r.Index, r.Outcome); err != nil {
			return err
		}
		if n == units/3 {
			// Sever every link first so the dying coordinator cannot wave
			// goodbye — the executor must experience a silent loss.
			rl.sever()
			run1Cancel()
			close(crashed)
		}
		return nil
	})
	if err != context.Canceled {
		t.Fatalf("phase-1 run: %v, want context.Canceled", err)
	}
	<-crashed
	run1Cancel()
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	// Phase 2: restart. Reopen the journal exactly as the CLI's -resume path
	// does, rebuild the remaining index set, retarget the "advertised
	// address" at the new coordinator.
	j2, err := journal.Open(jpath)
	if err != nil {
		t.Fatal(err)
	}
	if err := j2.Bind(fp); err != nil {
		t.Fatal(err)
	}
	if !j2.Resumed() {
		t.Fatal("journal did not resume")
	}
	var remaining []int
	for u := 0; u < units; u++ {
		if _, ok := j2.Done(u); !ok {
			remaining = append(remaining, u)
		}
	}
	if len(remaining) == 0 || len(remaining) == units {
		t.Fatalf("phase-1 crash left %d/%d units remaining; the test needs a partial journal", len(remaining), units)
	}

	reg := telemetry.NewRegistry()
	m := &Metrics{Resumed: reg.Counter("resumed"), HostDeaths: reg.Counter("deaths")}
	coord2 := newCoord(m)
	rl.setTarget(coord2.Addr().String())

	err = coord2.Run(context.Background(), remaining, func(r worker.Result) error {
		mu.Lock()
		seen[r.Index]++
		mu.Unlock()
		return j2.Append(r.Index, r.Outcome)
	})
	if err != nil {
		t.Fatalf("phase-2 run: %v", err)
	}
	if err := <-joinErr; err != nil {
		t.Fatalf("executor join: %v", err)
	}
	if err := j2.Canonicalize(); err != nil {
		t.Fatal(err)
	}
	if err := j2.Close(); err != nil {
		t.Fatal(err)
	}

	mu.Lock()
	defer mu.Unlock()
	for u := 0; u < units; u++ {
		if seen[u] != 1 {
			t.Fatalf("unit %d delivered %d times across the restart, want exactly once", u, seen[u])
		}
	}
	if reg.Counters()["resumed"] < 1 {
		t.Fatal("the restarted coordinator never adopted the executor's session")
	}
	if reg.Counters()["deaths"] != 0 {
		t.Fatalf("deaths=%d, want 0 (the session survived the restart)", reg.Counters()["deaths"])
	}

	gotBytes, err := os.ReadFile(jpath)
	if err != nil {
		t.Fatal(err)
	}
	wantBytes, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotBytes, wantBytes) {
		t.Fatalf("journal after crash recovery differs from clean run (%d vs %d bytes)", len(gotBytes), len(wantBytes))
	}
	execs.once(t, units)
}

// stuckBatch is a BatchRunner that never answers: it reports each batch on
// started and holds it until the executor goes away.
type stuckBatch struct {
	units   int
	started chan<- struct{}
}

func (b stuckBatch) Units() int { return b.units }

func (b stuckBatch) RunBatch(ctx context.Context, _ []int, _ func(int) bool, _ func(int, journal.Outcome, []byte) error) error {
	b.started <- struct{}{}
	<-ctx.Done()
	return ctx.Err()
}

// TestFabricExpiryQuarantineError: executors holding the campaign's only
// unit vanish one after another until the unit has gone down with
// maxHostDeaths hosts. The quarantine is raised on the heartbeat path,
// where the last session expires, and onResult refuses it: Run must return
// that error, not nil, although the quarantine finished the campaign.
func TestFabricExpiryQuarantineError(t *testing.T) {
	const units = 1
	coord, err := NewCoordinator(CoordinatorOptions{
		Addr:              "127.0.0.1:0",
		MinHosts:          1,
		Spec:              testSpec(),
		Units:             units,
		HeartbeatInterval: 20 * time.Millisecond,
		HeartbeatTimeout:  2 * time.Second,
		SessionTimeout:    100 * time.Millisecond,
		Quarantine:        journal.Outcome{Mode: 9},
		Log:               t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	started := make(chan struct{}, maxHostDeaths)
	hostsDone := make(chan struct{})
	go func() {
		defer close(hostsDone)
		for i := 0; i < maxHostDeaths; i++ {
			ctx, cancel := context.WithCancel(context.Background())
			joined := make(chan error, 1)
			go func() {
				joined <- Join(ctx, coord.Addr().String(), ExecutorOptions{
					Name:  fmt.Sprintf("doomed-%d", i),
					Batch: func(worker.Spec) (BatchRunner, error) { return stuckBatch{units, started}, nil },
				})
			}()
			select {
			case <-started: // the unit reached this host; now it vanishes
			case err := <-joined:
				t.Errorf("executor %d left before its batch started: %v", i, err)
			}
			cancel()
			<-joined
		}
	}()

	refused := errors.New("journal refused the quarantine")
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err = coord.Run(ctx, seqIndices(units), func(r worker.Result) error {
		if !r.Quarantined {
			t.Errorf("unit %d delivered a verdict from a runner that never answers", r.Index)
			return nil
		}
		return refused
	})
	<-hostsDone
	if !errors.Is(err, refused) {
		t.Fatalf("Run returned %v, want the onResult error %v", err, refused)
	}
}

// TestFabricUnderChaos runs a 3-executor campaign with every connection —
// both coordinator-side and executor-side — wrapped in the chaos layer:
// corruption, drops, truncations and resets, continuously. The per-frame
// CRC severs poisoned connections, sessions resume, and the campaign must
// still deliver every verdict exactly once with the clean results.
func TestFabricUnderChaos(t *testing.T) {
	const units = 50
	cfg := chaos.Config{
		Seed:     7,
		Corrupt:  0.02,
		Drop:     0.01,
		Truncate: 0.005,
		Reset:    0.005,
	}
	reg := telemetry.NewRegistry()
	cm := chaos.NewMetrics(reg)
	coordChaos := chaos.New(cfg, cm)
	execChaos := chaos.New(chaos.Config{
		Seed:    8,
		Corrupt: 0.02,
		Drop:    0.01,
		Reset:   0.005,
	}, cm)

	m := &Metrics{
		Resumed:   reg.Counter("resumed"),
		BadFrames: reg.Counter("bad_frames"),
	}
	coord, err := NewCoordinator(CoordinatorOptions{
		Addr:              "127.0.0.1:0",
		MinHosts:          3,
		Spec:              testSpec(),
		Units:             units,
		HeartbeatInterval: 10 * time.Millisecond,
		HeartbeatTimeout:  1 * time.Second,
		SessionTimeout:    20 * time.Second,
		Quarantine:        journal.Outcome{Mode: 9},
		WrapConn:          coordChaos.Wrap,
		Metrics:           m,
		Log:               t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	joinErr := make(chan error, 3)
	for i := 0; i < 3; i++ {
		name := fmt.Sprintf("chaotic-%d", i)
		go func() {
			joinErr <- Join(ctx, coord.Addr().String(), ExecutorOptions{
				Name:            name,
				Workers:         2,
				Batch:           inProcFactory(fakeFactory(units, time.Millisecond), 2),
				ReconnectWindow: 5 * time.Second,
				WrapConn:        execChaos.Wrap,
			})
		}()
	}
	results := collectRun(t, coord, units, nil)
	checkResults(t, results)
	for i := 0; i < 3; i++ {
		if err := <-joinErr; err != nil {
			t.Fatalf("executor join: %v", err)
		}
	}
	t.Logf("chaos campaign absorbed: %v; resumed=%d bad_frames=%d",
		reg.Counters(), reg.Counters()["resumed"], reg.Counters()["bad_frames"])
}
