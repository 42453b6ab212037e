package fabric

import (
	"context"
	"fmt"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/journal"
	"repro/internal/telemetry"
	"repro/internal/worker"
)

func TestSnapshotRoundTrip(t *testing.T) {
	cases := [][]snapEntry{
		nil,
		{{Name: "a_total", Value: 0}},
		{{Name: "fabric_units_executed_total", Value: 42}, {Name: "chaos_drops_total", Value: 7}, {Name: "x", Value: 1 << 60}},
	}
	for _, in := range cases {
		sentUS, out, err := decodeSnapshot(encodeSnapshot(12345, in), maxSnapEntries)
		if err != nil {
			t.Fatalf("entries %v: %v", in, err)
		}
		if sentUS != 12345 {
			t.Fatalf("sent-us %d, want 12345", sentUS)
		}
		if len(in) == 0 && len(out) == 0 {
			continue
		}
		if !reflect.DeepEqual(out, in) {
			t.Fatalf("round trip mismatch: %v != %v", out, in)
		}
	}
}

func TestSnapshotTruncated(t *testing.T) {
	full := encodeSnapshot(99, []snapEntry{{Name: "abc", Value: 5}, {Name: "de", Value: 6}})
	for cut := 0; cut < len(full); cut++ {
		if _, _, err := decodeSnapshot(full[:cut], maxSnapEntries); err == nil {
			t.Fatalf("decodeSnapshot accepted a %d-byte prefix of a %d-byte frame", cut, len(full))
		}
	}
	// Trailing garbage is rejected too: a frame is exactly its entries.
	if _, _, err := decodeSnapshot(append(full, 0), maxSnapEntries); err == nil {
		t.Fatal("decodeSnapshot accepted trailing bytes")
	}
}

func TestSnapshotEntryBound(t *testing.T) {
	entries := make([]snapEntry, 10)
	for i := range entries {
		entries[i] = snapEntry{Name: fmt.Sprintf("c%d", i), Value: uint64(i)}
	}
	if _, _, err := decodeSnapshot(encodeSnapshot(0, entries), 5); err == nil {
		t.Fatal("decodeSnapshot expanded past the entry bound")
	}
}

func TestTraceEventsRoundTrip(t *testing.T) {
	now := time.UnixMicro(time.Now().UnixMicro()).UTC() // microsecond precision, what the wire keeps
	in := []telemetry.Event{
		{T: now, Kind: telemetry.KindExecuted, Unit: 7, Case: 3, Worker: 1, DurUS: 12345, Program: "tritype", Fault: "MFC-1", Mode: "crash", Detail: "d"},
		{Kind: telemetry.KindDispatched, Unit: 8},
	}
	sentUS, out, err := decodeTraceEvents(encodeTraceEvents(777, in), maxTraceEvents)
	if err != nil {
		t.Fatal(err)
	}
	if sentUS != 777 {
		t.Fatalf("sent-us %d, want 777", sentUS)
	}
	if len(out) != len(in) {
		t.Fatalf("%d events decoded, want %d", len(out), len(in))
	}
	if !out[0].T.Equal(in[0].T) {
		t.Fatalf("timestamp %v != %v", out[0].T, in[0].T)
	}
	out[0].T, in[0].T = time.Time{}, time.Time{}
	if !reflect.DeepEqual(out, in) {
		t.Fatalf("round trip mismatch:\n%+v\n%+v", out, in)
	}
	// The Host field deliberately does not cross the wire: attribution
	// comes from the authenticated session, not from what a frame claims.
	spoofed := []telemetry.Event{{Kind: "executed", Host: "someone-else"}}
	_, out, err = decodeTraceEvents(encodeTraceEvents(0, spoofed), maxTraceEvents)
	if err != nil {
		t.Fatal(err)
	}
	if out[0].Host != "" {
		t.Fatalf("host %q crossed the wire", out[0].Host)
	}
}

func TestTraceEventsTruncated(t *testing.T) {
	full := encodeTraceEvents(5, []telemetry.Event{{Kind: "executed", Program: "p", Unit: 1}})
	for cut := 0; cut < len(full); cut++ {
		if _, _, err := decodeTraceEvents(full[:cut], maxTraceEvents); err == nil {
			t.Fatalf("decodeTraceEvents accepted a %d-byte prefix of a %d-byte frame", cut, len(full))
		}
	}
	if _, _, err := decodeTraceEvents(append(full, 0), maxTraceEvents); err == nil {
		t.Fatal("decodeTraceEvents accepted trailing bytes")
	}
	if _, _, err := decodeTraceEvents(encodeTraceEvents(0, make([]telemetry.Event, 4)), 2); err == nil {
		t.Fatal("decodeTraceEvents expanded past the event bound")
	}
}

// fedRunner executes the fake plan while emitting one executed event per
// unit on its host's tracer — the minimal stand-in for the campaign
// executor's per-unit lifecycle emission.
type fedRunner struct {
	units int
	tr    *telemetry.Tracer
}

func (r *fedRunner) Units() int { return r.units }

func (r *fedRunner) Run(unit int) (journal.Outcome, []byte, error) {
	r.tr.Emit(telemetry.Event{Kind: telemetry.KindDispatched, Unit: unit})
	r.tr.Emit(telemetry.Event{Kind: telemetry.KindExecuted, Unit: unit, DurUS: 1})
	o, p := testOutcome(unit)
	return o, p, nil
}

// TestFederationLoopback is the tentpole's end-to-end contract: two named
// executors push telemetry and trace frames to a real coordinator over
// loopback TCP, and by the end of the run the coordinator must hold
// host-labelled series for both, a merged host-attributed trace whose
// per-host event order is preserved, and a fleet view accounting for every
// merged verdict.
func TestFederationLoopback(t *testing.T) {
	const units = 60
	const hosts = 2
	reg := telemetry.NewRegistry()
	tracer := telemetry.NewTracer(4 * units * hosts)
	coord, err := NewCoordinator(CoordinatorOptions{
		Addr:              "127.0.0.1:0",
		MinHosts:          hosts,
		Spec:              testSpec(),
		Units:             units,
		HeartbeatInterval: 20 * time.Millisecond,
		HeartbeatTimeout:  2 * time.Second,
		SessionTimeout:    150 * time.Millisecond,
		Quarantine:        journal.Outcome{Mode: 9},
		Tracer:            tracer,
		Registry:          reg,
		Log:               t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	joinErr := make(chan error, hosts)
	for i := 0; i < hosts; i++ {
		name := fmt.Sprintf("exec-%d", i)
		go func() {
			execTracer := telemetry.NewTracer(4 * units)
			fed := NewFederation(nil, execTracer)
			factory := func(spec worker.Spec) (worker.Runner, error) {
				return &fedRunner{units: units, tr: execTracer}, nil
			}
			joinErr <- Join(ctx, coord.Addr().String(), ExecutorOptions{
				Name:    name,
				Workers: 2,
				Batch:   inProcFactory(factory, 2),
				// Push at heartbeat speed so the periodic path (not just the
				// final flush) is exercised.
				Federation:         fed,
				FederationInterval: time.Millisecond,
			})
		}()
	}
	results := collectRun(t, coord, units, nil)
	checkResults(t, results)
	for i := 0; i < hosts; i++ {
		if err := <-joinErr; err != nil {
			t.Fatalf("executor join: %v", err)
		}
	}

	// Federated metrics: a host-labelled executed series per executor. The
	// final absolute values must cover every unit; a mid-run steal can
	// execute a unit on both hosts, so the sum is a floor, not an identity.
	counts := reg.Counters()
	var fedSum uint64
	for i := 0; i < hosts; i++ {
		name := fmt.Sprintf("fabric_units_executed_total{host=%q}", fmt.Sprintf("exec-%d", i))
		v, ok := counts[name]
		if !ok {
			t.Fatalf("series %s missing from the coordinator registry (have %d series)", name, len(counts))
		}
		if v == 0 {
			t.Errorf("series %s is zero; the host executed nothing?", name)
		}
		fedSum += v
	}
	if fedSum < units {
		t.Errorf("federated executed sum %d, want at least %d", fedSum, units)
	}

	// Merged trace: host attribution on every forwarded event, both hosts
	// represented, and per-host emission order preserved (dispatched before
	// executed for every unit; frames are pushed and ingested in order).
	perHost := make(map[string]map[int]string) // host → unit → last kind seen
	hostEvents := make(map[string]int)
	for _, e := range tracer.Events() {
		if e.Kind != telemetry.KindDispatched && e.Kind != telemetry.KindExecuted {
			continue
		}
		if e.Host == "" {
			t.Fatalf("forwarded event without host attribution: %+v", e)
		}
		hostEvents[e.Host]++
		m := perHost[e.Host]
		if m == nil {
			m = make(map[int]string)
			perHost[e.Host] = m
		}
		switch e.Kind {
		case telemetry.KindDispatched:
			if m[e.Unit] != "" {
				t.Errorf("host %s unit %d dispatched twice in the merged trace", e.Host, e.Unit)
			}
		case telemetry.KindExecuted:
			if m[e.Unit] != telemetry.KindDispatched {
				t.Errorf("host %s unit %d executed before dispatched: order lost in the merge", e.Host, e.Unit)
			}
		}
		m[e.Unit] = e.Kind
	}
	if len(hostEvents) != hosts {
		t.Fatalf("merged trace covers hosts %v, want %d hosts", hostEvents, hosts)
	}
	var total int
	for _, n := range hostEvents {
		total += n
	}
	if total < 2*units {
		t.Errorf("merged trace has %d lifecycle events, want at least %d", total, 2*units)
	}

	// Fleet view: every verdict attributed, both hosts present and named.
	snap := coord.Fleet()
	if snap.Total != units || snap.Done != units {
		t.Errorf("fleet progress %d/%d, want %d/%d", snap.Done, snap.Total, units, units)
	}
	if len(snap.Hosts) != hosts {
		t.Fatalf("fleet view has %d hosts, want %d", len(snap.Hosts), hosts)
	}
	merged := 0
	for _, h := range snap.Hosts {
		if !strings.HasPrefix(h.Name, "exec-") {
			t.Errorf("fleet host name %q, want exec-*", h.Name)
		}
		if h.Executed == 0 {
			t.Errorf("fleet host %s reports zero federated executed units", h.Name)
		}
		// Ranges shows what a host still owns: nothing, once every unit
		// has its verdict.
		if h.Assigned != 0 || h.Ranges != "" {
			t.Errorf("fleet host %s still owns %d units (%q) after the run", h.Name, h.Assigned, h.Ranges)
		}
		merged += h.Merged
	}
	// Merged counts only first deliveries (the coordinator drops steal
	// duplicates), so this one IS exact.
	if merged != units {
		t.Errorf("fleet merged total %d, want %d", merged, units)
	}
	stats := coord.Hosts()
	if len(stats) != hosts {
		t.Fatalf("HostStats has %d rows, want %d", len(stats), hosts)
	}
}

// TestFederationOffIsInert: with Federation unset nothing about the run
// changes and no federated series appear — the A/B the overhead benchmark
// relies on.
func TestFederationOffIsInert(t *testing.T) {
	const units = 30
	reg := telemetry.NewRegistry()
	coord, err := NewCoordinator(CoordinatorOptions{
		Addr:              "127.0.0.1:0",
		MinHosts:          1,
		Spec:              testSpec(),
		Units:             units,
		HeartbeatInterval: 20 * time.Millisecond,
		HeartbeatTimeout:  2 * time.Second,
		SessionTimeout:    150 * time.Millisecond,
		Quarantine:        journal.Outcome{Mode: 9},
		Registry:          reg,
		Log:               t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	joinErr := make(chan error, 1)
	go func() {
		joinErr <- Join(ctx, coord.Addr().String(), ExecutorOptions{
			Name:    "exec-0",
			Workers: 2,
			Batch:   inProcFactory(fakeFactory(units, 0), 2),
		})
	}()
	checkResults(t, collectRun(t, coord, units, nil))
	if err := <-joinErr; err != nil {
		t.Fatalf("executor join: %v", err)
	}
	for name := range reg.Counters() {
		if strings.Contains(name, "{host=") {
			t.Errorf("federated series %s appeared without federation", name)
		}
	}
	snap := coord.Fleet()
	if len(snap.Hosts) != 1 || snap.Hosts[0].Merged != units {
		t.Errorf("fleet view %+v: session tracking must work without federation", snap.Hosts)
	}
	if snap.Hosts[0].Executed != 0 {
		t.Errorf("fleet Executed %d without federation, want 0", snap.Hosts[0].Executed)
	}
}

func TestFormatRuns(t *testing.T) {
	cases := []struct {
		units []int
		want  string
	}{
		{nil, ""},
		{[]int{5}, "5"},
		{[]int{0, 1, 2, 3}, "0-3"},
		{[]int{0, 1, 2, 9, 11, 12}, "0-2,9,11-12"},
	}
	for _, c := range cases {
		if got := formatRuns(c.units); got != c.want {
			t.Errorf("formatRuns(%v) = %q, want %q", c.units, got, c.want)
		}
	}
}

// TestFabricSharedNameSeries joins two executors under one name, as two
// executors on one machine both default to its hostname. The roster must
// tell them apart — the second becomes twin#1 — so each gets its own
// per-host units counter and federated series, and Hosts lists them in
// registration order.
func TestFabricSharedNameSeries(t *testing.T) {
	const units = 40
	reg := telemetry.NewRegistry()
	coord, err := NewCoordinator(CoordinatorOptions{
		Addr:              "127.0.0.1:0",
		MinHosts:          2,
		Spec:              testSpec(),
		Units:             units,
		HeartbeatInterval: 20 * time.Millisecond,
		HeartbeatTimeout:  2 * time.Second,
		SessionTimeout:    150 * time.Millisecond,
		Quarantine:        journal.Outcome{Mode: 9},
		Metrics:           NewMetrics(reg),
		Registry:          reg,
		Log:               t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	if snap := coord.Fleet(); len(snap.Hosts) != 0 || snap.Total != 0 {
		t.Fatalf("fleet view before Run: %+v, want empty", snap)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	joinErr := make(chan error, 2)
	// Each executor logs the name the coordinator's welcome gave it.
	var readyMu sync.Mutex
	var ready []string
	join := func() {
		joinErr <- Join(ctx, coord.Addr().String(), ExecutorOptions{
			Name:       "twin",
			Workers:    2,
			Batch:      inProcFactory(fakeFactory(units, 0), 2),
			Federation: NewFederation(nil, nil),
			Log: func(format string, args ...any) {
				if line := fmt.Sprintf(format, args...); strings.HasPrefix(line, "fabric: ready as ") {
					readyMu.Lock()
					ready = append(ready, line)
					readyMu.Unlock()
				}
			},
		})
	}
	// Stagger the joins so registration order is known: the second
	// executor dials only once the first holds a roster row. The campaign
	// cannot shard before both have joined (MinHosts 2). The goroutine then
	// keeps reading the roster while the event loop changes it.
	stop, stopped := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(stopped)
		go join()
		for deadline := time.Now().Add(10 * time.Second); len(coord.Fleet().Hosts) == 0 && time.Now().Before(deadline); {
			time.Sleep(5 * time.Millisecond)
		}
		go join()
		for {
			select {
			case <-stop:
				return
			case <-time.After(time.Millisecond):
				coord.Fleet()
				coord.Hosts()
			}
		}
	}()
	checkResults(t, collectRun(t, coord, units, nil))
	close(stop)
	<-stopped
	for i := 0; i < 2; i++ {
		if err := <-joinErr; err != nil {
			t.Fatalf("executor join: %v", err)
		}
	}

	want := []string{"twin", "twin#1"}
	var names []string
	for _, h := range coord.Fleet().Hosts {
		names = append(names, h.Name)
	}
	if !reflect.DeepEqual(names, want) {
		t.Fatalf("fleet names %q, want %q", names, want)
	}
	names = names[:0]
	for _, h := range coord.Hosts() {
		names = append(names, h.Name)
	}
	if !reflect.DeepEqual(names, want) {
		t.Fatalf("Hosts() names %q, want %q in registration order", names, want)
	}
	sort.Strings(ready)
	if len(ready) != 2 || !strings.HasPrefix(ready[0], `fabric: ready as "twin":`) || !strings.HasPrefix(ready[1], `fabric: ready as "twin#1":`) {
		t.Fatalf("executors logged %q, want one ready as %q and one as %q", ready, want[0], want[1])
	}

	counts := reg.Counters()
	hostUnits, executed := 0, 0
	var unitSum uint64
	for name, v := range counts {
		switch {
		case strings.HasPrefix(name, "fabric_host_units_total{"):
			hostUnits++
			unitSum += v
		case strings.HasPrefix(name, fedExecutedName+"{"):
			executed++
		}
	}
	if hostUnits != 2 || unitSum != units {
		t.Errorf("%d fabric_host_units_total series summing to %d, want 2 summing to %d", hostUnits, unitSum, units)
	}
	if executed != 2 {
		t.Errorf("%d federated %s series, want 2", executed, fedExecutedName)
	}
}

// TestIngestSnapshotExposition feeds a telemetry frame whose series names
// would break the Prometheus text format once a host label is spliced in
// (a second host label among them): each must be dropped, the well-formed ones (labelled campaign names
// included) kept, and every line of the exposition must still parse.
func TestIngestSnapshotExposition(t *testing.T) {
	reg := telemetry.NewRegistry()
	r := &coordRun{opts: &CoordinatorOptions{Registry: reg}}
	s := &session{HostStats: telemetry.HostStats{Name: `exec "0"`}}
	bad := []string{"foo{", "a b", `x"y`, "", "9lives", `m{a="b"`, `m{a="b",}`, `m{}`, `m{a="\"}`, `m{a="x"} 1`, "m\n1", `m{host="a"}`, `m{a="b",host="c"}`, strings.Repeat("n", 257)}
	good := []string{"ok_total", `campaign_verdicts_total{mode="correct"}`, `m:x{a="1",b_2="two words"}`}
	var entries []snapEntry
	for i, name := range append(append([]string(nil), bad...), good...) {
		entries = append(entries, snapEntry{Name: name, Value: uint64(i)})
	}
	r.ingestSnapshot(s, 0, entries)

	if n := len(reg.Counters()); n != len(good) {
		t.Errorf("%d series registered, want the %d well-formed ones: %v", n, len(good), reg.Counters())
	}
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	const name = `[a-zA-Z_:][a-zA-Z0-9_:]*`
	const label = `[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\\n]|\\.)*"`
	sample := regexp.MustCompile(`^` + name + `(\{` + label + `(,` + label + `)*\})? -?[0-9]+$`)
	typeLine := regexp.MustCompile(`^# TYPE ` + name + ` (counter|gauge|histogram)$`)
	for _, line := range strings.Split(strings.TrimSuffix(sb.String(), "\n"), "\n") {
		if !sample.MatchString(line) && !typeLine.MatchString(line) {
			t.Errorf("exposition line does not parse: %q", line)
		}
	}
}

// TestFabricGoodbyeReceipt runs a federated two-executor loopback campaign
// 50 times, and each Run must return within one heartbeat interval of its
// last verdict. An executor answers the coordinator's shutdown with a
// receipt before it hangs up, and the receipt releases its session however
// the close then reads — a close with coordinator frames still unread
// resets the connection, which alone would hold the session until the
// heartbeat timeout.
func TestFabricGoodbyeReceipt(t *testing.T) {
	const units, hosts, rounds = 40, 2, 50
	const interval = 100 * time.Millisecond
	for round := 0; round < rounds; round++ {
		coord, err := NewCoordinator(CoordinatorOptions{
			Addr:              "127.0.0.1:0",
			MinHosts:          hosts,
			Spec:              testSpec(),
			Units:             units,
			HeartbeatInterval: interval,
			HeartbeatTimeout:  2 * time.Second,
			SessionTimeout:    150 * time.Millisecond,
			Quarantine:        journal.Outcome{Mode: 9},
			Registry:          telemetry.NewRegistry(),
		})
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		joinErr := make(chan error, hosts)
		for i := 0; i < hosts; i++ {
			go func() {
				joinErr <- Join(ctx, coord.Addr().String(), ExecutorOptions{
					Name:               fmt.Sprintf("exec-%d", i),
					Workers:            2,
					Batch:              inProcFactory(fakeFactory(units, 0), 2),
					Federation:         NewFederation(nil, nil),
					FederationInterval: time.Millisecond,
				})
			}()
		}
		var last time.Time
		err = coord.Run(context.Background(), seqIndices(units), func(worker.Result) error {
			last = time.Now()
			return nil
		})
		lag := time.Since(last)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		for i := 0; i < hosts; i++ {
			if err := <-joinErr; err != nil {
				t.Fatalf("round %d: executor join: %v", round, err)
			}
		}
		cancel()
		if lag > interval {
			t.Errorf("round %d: Run returned %v after its last verdict, want within %v", round, lag, interval)
		}
	}
}
