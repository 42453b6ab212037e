package campaign

import (
	"context"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/journal"
	"repro/internal/telemetry"
)

// perUnitKinds are the trace-event kinds that describe one unit. The test
// below pins how many of each every dispatch path emits.
var perUnitKinds = []string{
	telemetry.KindPlanned, telemetry.KindReplayed, telemetry.KindDispatched,
	telemetry.KindExecuted, telemetry.KindRetry, telemetry.KindDegraded,
	telemetry.KindQuarantine, telemetry.KindVerdict,
}

// partialJournal writes the journal of an isolationConfig campaign
// interrupted after its first few units (a serial run cancelled from the
// append hook) and returns its path.
func partialJournal(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "partial.wal")
	j, err := journal.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	j.OnAppend = func(done int) {
		if done >= 3 {
			cancel()
		}
	}
	cfg := isolationConfig()
	cfg.Workers = 1
	cfg.Ctx = ctx
	cfg.Journal = j
	if _, err := Run(cfg); err == nil {
		t.Fatal("interrupted run finished cleanly; nothing would be left to execute")
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// openJournalCopy opens a private copy of the journal at src for resuming.
func openJournalCopy(t *testing.T, src string) *journal.Journal {
	t.Helper()
	b, err := os.ReadFile(src)
	if err != nil {
		t.Fatal(err)
	}
	dst := filepath.Join(t.TempDir(), "resume.wal")
	if err := os.WriteFile(dst, b, 0o644); err != nil {
		t.Fatal(err)
	}
	j, err := journal.Open(dst)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { j.Close() })
	return j
}

// TestTelemetryEveryDispatchPath pins what telemetry reports on each way a
// campaign can dispatch its units: goroutines in this process, a supervised
// worker pool, and a two-executor loopback fabric. Each resumes the same
// partial journal, so the replayed and executed halves both show. On every
// path the campaign counters must match the Result (units done, executed,
// replayed, per-mode verdicts, activations), and the campaign trace must
// carry exactly the per-unit event kinds that path has always emitted.
func TestTelemetryEveryDispatchPath(t *testing.T) {
	ref, err := Run(isolationConfig())
	if err != nil {
		t.Fatal(err)
	}
	partial := partialJournal(t)

	type path struct {
		name string
		// setup returns the campaign config and, for the fabric, a check to
		// run once the campaign is over (it stops the executors and checks
		// their own traces).
		setup func(t *testing.T) (Config, func(executed int))
		// perExecuted are the per-unit kinds the campaign trace holds once
		// for every executed unit; every other per-unit kind but planned
		// (once per unit) and replayed (once per replayed unit) is absent.
		perExecuted []string
	}
	paths := []path{
		{
			name:  "inproc",
			setup: func(*testing.T) (Config, func(int)) { return isolationConfig(), nil },
			perExecuted: []string{
				telemetry.KindDispatched, telemetry.KindExecuted, telemetry.KindVerdict,
			},
		},
		{
			name:        "proc",
			setup:       func(*testing.T) (Config, func(int)) { return procConfig(), nil },
			perExecuted: []string{telemetry.KindVerdict},
		},
		{
			name:        "fabric",
			setup:       fabricWithTracedExecutors,
			perExecuted: []string{telemetry.KindVerdict},
		},
	}
	for _, p := range paths {
		t.Run(p.name, func(t *testing.T) {
			cfg, after := p.setup(t)
			tel := &telemetry.Telemetry{
				Reg:   telemetry.NewRegistry(),
				Trace: telemetry.NewTracer(telemetry.DefaultTraceCap),
			}
			cfg.Telemetry = tel
			cfg.Journal = openJournalCopy(t, partial)
			res, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !sameEntries(res, ref) {
				t.Fatal("the dispatch path changed the campaign outcome")
			}
			replayed := res.Exec.Replayed
			executed := res.Runs - replayed
			if replayed == 0 || executed == 0 {
				t.Fatalf("replayed %d, executed %d: both halves must be non-empty", replayed, executed)
			}
			if after != nil {
				after(executed)
			}

			c := tel.Reg.Counters()
			for name, want := range map[string]int{
				"campaign_units_done_total":     res.Runs,
				"campaign_units_executed_total": executed,
				"campaign_units_replayed_total": replayed,
				"campaign_units_total":          res.Runs,
			} {
				if got := c[name]; got != uint64(want) {
					t.Errorf("%s = %d, want %d", name, got, want)
				}
			}
			modes := make(map[FailureMode]int)
			activated := 0
			for i := range res.Entries {
				for m, n := range res.Entries[i].Counts {
					modes[m] += n
				}
				activated += res.Entries[i].Activated
			}
			for _, m := range tallyModes() {
				name := `campaign_verdicts_total{mode="` + m.String() + `"}`
				if got := c[name]; got != uint64(modes[m]) {
					t.Errorf("%s = %d, want %d", name, got, modes[m])
				}
			}
			if got := c["campaign_activated_total"]; got != uint64(activated) {
				t.Errorf("campaign_activated_total = %d, want %d", got, activated)
			}

			want := map[string]int{
				telemetry.KindPlanned:  res.Runs,
				telemetry.KindReplayed: replayed,
			}
			for _, k := range p.perExecuted {
				want[k] = executed
			}
			sum := tel.Trace.Summary()
			for _, k := range perUnitKinds {
				if sum[k] != want[k] {
					t.Errorf("trace holds %d %q events, want %d", sum[k], k, want[k])
				}
			}
		})
	}
}

// fabricWithTracedExecutors starts two loopback executors with their own
// tracers and federation off, so the coordinator's trace holds only what
// the coordinator itself emits. The returned check stops the executors and
// pins their traces: a dispatched and an executed event per unit run there
// (at least every unit the campaign executed; a stolen unit can run on both
// hosts), and none of the verdict-side kinds.
func fabricWithTracedExecutors(t *testing.T) (Config, func(int)) {
	addr := freeLoopbackAddr(t)
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	tracers := make([]*telemetry.Tracer, 2)
	for i, name := range []string{"exec-a", "exec-b"} {
		tracers[i] = telemetry.NewTracer(telemetry.DefaultTraceCap)
		wg.Add(1)
		go func(name string, tr *telemetry.Tracer) {
			defer wg.Done()
			joinUntilDone(ctx, t, addr, JoinOptions{Name: name, Workers: 2, Tracer: tr, noFederation: true})
		}(name, tracers[i])
	}
	stop := func() {
		cancel()
		wg.Wait()
	}
	t.Cleanup(stop)
	return fabricConfig(addr, 2), func(executed int) {
		stop()
		dispatched, ran := 0, 0
		for _, tr := range tracers {
			sum := tr.Summary()
			dispatched += sum[telemetry.KindDispatched]
			ran += sum[telemetry.KindExecuted]
			for _, k := range perUnitKinds {
				if k != telemetry.KindDispatched && k != telemetry.KindExecuted && sum[k] != 0 {
					t.Errorf("an executor traced %d %q events, want none", sum[k], k)
				}
			}
		}
		if dispatched != ran || ran < executed {
			t.Errorf("executors traced %d dispatched and %d executed events, want equal counts of at least %d", dispatched, ran, executed)
		}
	}
}
