package campaign_test

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/campaign"
	"repro/internal/golden"
	"repro/internal/journal"
	"repro/internal/telemetry"
)

// fullTelemetry builds a Telemetry handle with every plane enabled: a
// registry, a tracer sinking JSONL to a temp file, and a non-TTY progress
// line into a discarded buffer.
func fullTelemetry(t *testing.T) (*telemetry.Telemetry, string) {
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

// TestTelemetryDoesNotChangeResults is the acceptance property: a campaign
// observed by every telemetry plane produces a Result bit-identical to the
// same campaign with telemetry off.
func TestTelemetryDoesNotChangeResults(t *testing.T) {
	cfg := resumeBase()
	ref, err := campaign.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}

	tel, _ := fullTelemetry(t)
	cfg2 := resumeBase()
	cfg2.Workers = 4
	cfg2.Telemetry = tel
	res, err := campaign.Run(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	if err := tel.Trace.Close(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res, ref) {
		t.Errorf("telemetry changed the Result:\nobserved: %+v\nplain:    %+v", res, ref)
	}
}

// TestTelemetryCountersMatchResult cross-checks the live counters against
// the Result they observed: done units, per-mode verdicts, fast-forward
// accounting.
func TestTelemetryCountersMatchResult(t *testing.T) {
	// The shared golden store survives across tests in this process; start
	// it cold so golden_runs_total deterministically counts this campaign's
	// golden runs (they are rebuilt on demand, so other tests are unharmed).
	golden.Shared.Purge()
	tel, _ := fullTelemetry(t)
	cfg := resumeBase()
	cfg.Telemetry = tel
	res, err := campaign.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c := tel.Reg.Counters()
	if got := c["campaign_units_done_total"]; got != uint64(res.Runs) {
		t.Errorf("campaign_units_done_total = %d, want %d", got, res.Runs)
	}
	if got := c["campaign_units_executed_total"]; got != uint64(res.Runs) {
		t.Errorf("campaign_units_executed_total = %d, want %d (nothing replayed)", got, res.Runs)
	}
	if got := c["campaign_units_replayed_total"]; got != 0 {
		t.Errorf("campaign_units_replayed_total = %d, want 0", got)
	}
	if got := c["campaign_units_total"]; got != uint64(res.Runs) {
		t.Errorf("campaign_units_total gauge = %d, want %d", got, res.Runs)
	}
	var verdictSum uint64
	for _, mode := range campaign.Modes() {
		verdictSum += c[`campaign_verdicts_total{mode="`+mode.String()+`"}`]
	}
	verdictSum += c[`campaign_verdicts_total{mode="hostfault"}`]
	if verdictSum != uint64(res.Runs) {
		t.Errorf("verdict counters sum to %d, want %d", verdictSum, res.Runs)
	}
	// Fast-forward accounting covers every executed unit that had a
	// location-triggered fault: hits + misses + dormant skips > 0 on this
	// campaign (all §6 faults are location-triggered).
	ffwd := c["campaign_ffwd_hits_total"] + c["campaign_ffwd_misses_total"] + c["campaign_dormant_skips_total"]
	if ffwd != uint64(res.Runs) {
		t.Errorf("ffwd hits+misses+dormant = %d, want %d", ffwd, res.Runs)
	}
	if c["golden_runs_total"] == 0 {
		t.Error("golden_runs_total = 0, want > 0")
	}
	// Periodic-tail skips: registered (so -report and /metrics show them),
	// only ever on hang verdicts, and cycles counted exactly when runs are.
	skips, skipped := c["campaign_loop_skips_total"], c["campaign_cycles_skipped_total"]
	for _, name := range []string{"campaign_loop_skips_total", "campaign_cycles_skipped_total"} {
		if _, ok := c[name]; !ok {
			t.Errorf("%s not registered", name)
		}
	}
	if hangs := c[`campaign_verdicts_total{mode="hang"}`]; skips > hangs {
		t.Errorf("campaign_loop_skips_total = %d exceeds the %d hang verdicts", skips, hangs)
	}
	if (skips == 0) != (skipped == 0) {
		t.Errorf("campaign_loop_skips_total = %d but campaign_cycles_skipped_total = %d", skips, skipped)
	}
	// The latency histogram saw every unit.
	var found bool
	for _, h := range tel.Reg.Histograms() {
		if h.Name == "campaign_unit_latency_us" {
			found = true
			if h.Count != uint64(res.Runs) {
				t.Errorf("campaign_unit_latency_us count = %d, want %d", h.Count, res.Runs)
			}
		}
	}
	if !found {
		t.Error("campaign_unit_latency_us histogram missing")
	}
}

// TestTelemetryTraceLifecycle checks the JSONL sink holds a complete
// lifecycle per unit: planned, dispatched, executed and verdict counts all
// equal the number of units.
func TestTelemetryTraceLifecycle(t *testing.T) {
	tel, path := fullTelemetry(t)
	cfg := resumeBase()
	cfg.Telemetry = tel
	res, err := campaign.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := tel.Trace.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	events, err := telemetry.ReadJSONL(f)
	if err != nil {
		t.Fatal(err)
	}
	kinds := make(map[string]int)
	for _, e := range events {
		kinds[e.Kind]++
	}
	for _, k := range []string{telemetry.KindPlanned, telemetry.KindDispatched, telemetry.KindExecuted, telemetry.KindVerdict} {
		if kinds[k] != res.Runs {
			t.Errorf("trace has %d %q events, want %d", kinds[k], k, res.Runs)
		}
	}
	// The in-memory summary agrees with the sink.
	sum := tel.Trace.Summary()
	if sum[telemetry.KindVerdict] != res.Runs {
		t.Errorf("tracer summary verdicts = %d, want %d", sum[telemetry.KindVerdict], res.Runs)
	}
}

// TestTelemetryResumeSurfacesReplayed: a resumed campaign reports the
// journal-replayed split on the replayed counter, in Exec.Replayed, and in
// the trace.
func TestTelemetryResumeSurfacesReplayed(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.wal")
	j, err := journal.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	cfg := resumeBase()
	cfg.Journal = j
	ref, err := campaign.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	j.Close()

	j2, err := journal.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	tel, _ := fullTelemetry(t)
	cfg2 := resumeBase()
	cfg2.Journal = j2
	cfg2.Telemetry = tel
	res, err := campaign.Run(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Exec.Replayed != ref.Runs {
		t.Errorf("Exec.Replayed = %d, want %d", res.Exec.Replayed, ref.Runs)
	}
	c := tel.Reg.Counters()
	if got := c["campaign_units_replayed_total"]; got != uint64(ref.Runs) {
		t.Errorf("campaign_units_replayed_total = %d, want %d", got, ref.Runs)
	}
	if got := c["campaign_units_executed_total"]; got != 0 {
		t.Errorf("campaign_units_executed_total = %d, want 0 on a full replay", got)
	}
	if got := c["journal_appends_total"]; got != 0 {
		t.Errorf("journal_appends_total = %d, want 0 on a full replay", got)
	}
	if sum := tel.Trace.Summary(); sum[telemetry.KindReplayed] != ref.Runs {
		t.Errorf("trace replayed events = %d, want %d", sum[telemetry.KindReplayed], ref.Runs)
	}

	// The report composes the same split.
	r := telemetry.NewReport("test")
	campaign.FillReport(r, res)
	if r.Units.Replayed != ref.Runs || r.Units.Executed != 0 {
		t.Errorf("report units = %+v, want all %d replayed", r.Units, ref.Runs)
	}
	if r.Resilience["replayed"] != ref.Runs {
		t.Errorf("report resilience = %+v", r.Resilience)
	}
}

// TestFillReportTallies pins the report's tally shape on a plain run.
func TestFillReportTallies(t *testing.T) {
	res, err := campaign.Run(resumeBase())
	if err != nil {
		t.Fatal(err)
	}
	r := telemetry.NewReport("test")
	campaign.FillReport(r, res)
	if r.Units.Total != res.Runs || r.Units.Executed != res.Runs {
		t.Errorf("units = %+v, want %d executed", r.Units, res.Runs)
	}
	var sum int
	for _, n := range r.Tallies {
		sum += n
	}
	if sum != res.Runs {
		t.Errorf("tallies sum to %d, want %d", sum, res.Runs)
	}
	if len(r.Group("assignment/program")) == 0 || len(r.Group("checking/errtype")) == 0 {
		t.Errorf("groups missing: %+v", r.Groups)
	}
}
