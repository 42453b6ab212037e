package campaign

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/fault"
	"repro/internal/telemetry"
)

// This file is the campaign side of the observability layer: the metric
// bundle the executor updates on its hot path, the trace events it emits,
// the progress snapshot the live surface renders, and the report filler.
// Everything here is strictly passive — telemetry observes execution and
// never feeds back into it, which is what keeps a campaign's Result
// bit-identical with telemetry on or off (asserted by the property tests in
// telemetry_test.go). A nil *campMetrics (telemetry off) makes every method
// a single pointer check.

// campMetrics is the executor's instrument bundle, registered once per
// campaign-carrying registry. Counter updates on the unit path use the
// worker index as the shard, so parallel workers do not contend.
type campMetrics struct {
	unitsTotal    *telemetry.Gauge   // units planned (accumulates over sequential campaigns)
	unitsDone     *telemetry.Counter // executed + replayed
	unitsExecuted *telemetry.Counter
	unitsReplayed *telemetry.Counter
	verdicts      map[FailureMode]*telemetry.Counter
	activated     *telemetry.Counter
	ffwdHits      *telemetry.Counter // injections started from a restored checkpoint
	ffwdMisses    *telemetry.Counter // location faults that had to replay from reboot
	dormantSkips  *telemetry.Counter // dormant faults served from the golden record
	loopSkips     *telemetry.Counter // runs whose periodic hang tail was skipped
	cyclesSkipped *telemetry.Counter // VM cycles those skips did not simulate
	degraded      *telemetry.Counter
	retries       *telemetry.Counter
	quarantines   *telemetry.Counter
	unitLatency   *telemetry.Histogram

	// restarts is the worker supervisor's restart counter (same registry,
	// same name), read by the progress note so the live line surfaces worker
	// health without a second plumbing path.
	restarts *telemetry.Counter

	// fabricHosts/fabricDeaths are the coordinator's fleet instruments
	// (same registry, same names as newFabricMetrics registers), read by
	// the progress note so a distributed campaign's live line shows the
	// fleet size and losses. Both stay zero on single-host runs.
	fabricHosts  *telemetry.Gauge
	fabricDeaths *telemetry.Counter

	// reg is kept so the progress note can sum the federated per-host
	// executed gauges (fabric_units_executed_total{host=...}) — the
	// fleet-wide view on the coordinator's TTY line. Single-host runs have
	// no host-labeled series, so the scan costs one map walk per tick and
	// contributes nothing.
	reg *telemetry.Registry
}

// newCampMetrics registers the campaign instruments on reg; a nil registry
// yields a nil bundle, the telemetry-off fast path.
func newCampMetrics(reg *telemetry.Registry) *campMetrics {
	if reg == nil {
		return nil
	}
	m := &campMetrics{
		unitsTotal:    reg.Gauge("campaign_units_total"),
		unitsDone:     reg.Counter("campaign_units_done_total"),
		unitsExecuted: reg.Counter("campaign_units_executed_total"),
		unitsReplayed: reg.Counter("campaign_units_replayed_total"),
		verdicts:      make(map[FailureMode]*telemetry.Counter, len(Modes())),
		activated:     reg.Counter("campaign_activated_total"),
		ffwdHits:      reg.Counter("campaign_ffwd_hits_total"),
		ffwdMisses:    reg.Counter("campaign_ffwd_misses_total"),
		dormantSkips:  reg.Counter("campaign_dormant_skips_total"),
		loopSkips:     reg.Counter("campaign_loop_skips_total"),
		cyclesSkipped: reg.Counter("campaign_cycles_skipped_total"),
		degraded:      reg.Counter("campaign_degraded_total"),
		retries:       reg.Counter("campaign_retries_total"),
		quarantines:   reg.Counter("campaign_quarantines_total"),
		unitLatency:   reg.Histogram("campaign_unit_latency_us", telemetry.DefaultLatencyBuckets),
		restarts:      reg.Counter("worker_restarts_total"),
		fabricHosts:   reg.Gauge("fabric_hosts"),
		fabricDeaths:  reg.Counter("fabric_host_deaths_total"),
		reg:           reg,
	}
	for _, mode := range tallyModes() {
		m.verdicts[mode] = reg.Counter(fmt.Sprintf(`campaign_verdicts_total{mode=%q}`, mode))
	}
	return m
}

// tallyModes is the verdict-counter domain: the paper's four modes plus the
// HostFault quarantine bucket.
func tallyModes() []FailureMode { return append(Modes(), HostFault) }

// noteVerdict records one freshly executed unit's outcome on shard w.
func (m *campMetrics) noteVerdict(w int, o unitOutcome) {
	if m == nil {
		return
	}
	m.unitsDone.AddShard(w, 1)
	m.unitsExecuted.AddShard(w, 1)
	if c := m.verdicts[o.mode]; c != nil {
		c.AddShard(w, 1)
	}
	if o.activated {
		m.activated.AddShard(w, 1)
	}
	if o.degraded {
		m.degraded.AddShard(w, 1)
	}
	if o.retried {
		m.retries.AddShard(w, 1)
	}
	if o.mode == HostFault {
		m.quarantines.AddShard(w, 1)
	}
}

// noteReplayed records one unit taken from the journal instead of executed.
func (m *campMetrics) noteReplayed(o unitOutcome) {
	if m == nil {
		return
	}
	m.unitsDone.Inc()
	m.unitsReplayed.Inc()
	if c := m.verdicts[o.mode]; c != nil {
		c.Inc()
	}
	if o.activated {
		m.activated.Inc()
	}
}

// snapshot builds the live progress sample: done/total, the running
// failure-mode tallies, and a worker-health note.
func (m *campMetrics) snapshot() telemetry.ProgressSnap {
	s := telemetry.ProgressSnap{
		Done:  int64(m.unitsDone.Value()),
		Total: m.unitsTotal.Value(),
	}
	for _, mode := range tallyModes() {
		if n := m.verdicts[mode].Value(); n > 0 || mode != HostFault {
			s.Parts = append(s.Parts, telemetry.Part{Name: mode.String(), N: n})
		}
	}
	var notes []string
	if n := m.fabricHosts.Value(); n > 0 {
		note := fmt.Sprintf("%d hosts", n)
		if d := m.fabricDeaths.Value(); d > 0 {
			note += fmt.Sprintf(" (%d lost)", d)
		}
		// Fleet-wide executed total from the federated per-host gauges:
		// what the whole fleet has run, as opposed to Done (what the
		// coordinator has merged). The two differ by in-flight verdicts
		// and steal duplicates.
		var fleetExec uint64
		for name, v := range m.reg.Counters() {
			if strings.HasPrefix(name, `fabric_units_executed_total{host=`) {
				fleetExec += v
			}
		}
		if fleetExec > 0 {
			note += fmt.Sprintf(", fleet executed %d", fleetExec)
		}
		notes = append(notes, note)
	}
	if n := m.restarts.Value(); n > 0 {
		notes = append(notes, fmt.Sprintf("%d worker restarts", n))
	}
	s.Note = strings.Join(notes, ", ")
	return s
}

// newWorkerMetrics registers the worker-supervisor instruments on reg; nil
// registry, nil bundle (the supervisor treats that as disabled).
func newWorkerMetrics(reg *telemetry.Registry) *telemetry.WorkerMetrics {
	return telemetry.NewWorkerMetrics(reg)
}

// newJournalMetrics registers the journal instruments on reg.
func newJournalMetrics(reg *telemetry.Registry) telemetry.JournalMetrics {
	if reg == nil {
		return telemetry.JournalMetrics{}
	}
	return telemetry.JournalMetrics{
		Appends:       reg.Counter("journal_appends_total"),
		AppendLatency: reg.Histogram("journal_append_latency_us", telemetry.DefaultLatencyBuckets),
		DegradedMode:  reg.Gauge("journal_degraded_mode"),
	}
}

// newGoldenMetrics registers the golden-store instruments on reg.
func newGoldenMetrics(reg *telemetry.Registry) telemetry.GoldenMetrics {
	if reg == nil {
		return telemetry.GoldenMetrics{}
	}
	return telemetry.GoldenMetrics{
		Runs:        reg.Counter("golden_runs_total"),
		Checkpoints: reg.Counter("golden_checkpoints_total"),
		RunLatency:  reg.Histogram("golden_run_latency_us", telemetry.DefaultLatencyBuckets),
	}
}

// traceUnit emits the dispatch-side fields shared by a unit's trace events.
func traceUnit(kind string, i int, u *runUnit, w int) telemetry.Event {
	return telemetry.Event{
		Kind:    kind,
		Unit:    i,
		Program: u.program,
		Fault:   u.f.ID,
		Case:    u.caseIx,
		Worker:  w,
	}
}

// emitOutcomeTrace emits the post-execution events of one unit: executed
// (with duration), the resilience flags, and the verdict.
func emitOutcomeTrace(tr *telemetry.Tracer, i int, u *runUnit, w int, o unitOutcome, dur time.Duration) {
	if tr == nil {
		return
	}
	e := traceUnit(telemetry.KindExecuted, i, u, w)
	e.DurUS = dur.Microseconds()
	tr.Emit(e)
	if o.retried {
		tr.Emit(traceUnit(telemetry.KindRetry, i, u, w))
	}
	if o.degraded {
		tr.Emit(traceUnit(telemetry.KindDegraded, i, u, w))
	}
	if o.mode == HostFault {
		tr.Emit(traceUnit(telemetry.KindQuarantine, i, u, w))
	}
	v := traceUnit(telemetry.KindVerdict, i, u, w)
	v.Mode = o.mode.String()
	tr.Emit(v)
}

// ModeTally converts a failure-mode distribution into the report's
// string-keyed tally form.
func ModeTally(counts map[FailureMode]int) telemetry.Tally {
	t := make(telemetry.Tally, len(counts))
	for m, n := range counts {
		t[m.String()] = n
	}
	return t
}

// FillReport copies a campaign Result into a report: the unit stats
// (including the replayed-versus-executed split of a resumed run), the
// overall per-class tallies, the per-program and per-error-type breakdowns
// behind Figures 7–10, and the resilience counters.
func FillReport(r *telemetry.Report, res *Result) {
	if r == nil || res == nil {
		return
	}
	r.Units.Total += res.Runs
	r.Units.Executed += res.Runs - res.Exec.Replayed
	r.Units.Replayed += res.Exec.Replayed
	r.Units.Quarantined += res.Exec.HostFaults

	classes := make(map[fault.Class]bool)
	for i := range res.Entries {
		classes[res.Entries[i].Class] = true
	}
	for class := range classes {
		total := res.Total(class)
		r.Tallies.Add(ModeTally(total.Counts))
		prog := r.Group(class.String() + "/program")
		for name, d := range res.ByProgram(class) {
			t := prog[name]
			if t == nil {
				t = make(telemetry.Tally)
				prog[name] = t
			}
			t.Add(ModeTally(d.Counts))
		}
		errs := r.Group(class.String() + "/errtype")
		for name, d := range res.ByErrType(class) {
			t := errs[name]
			if t == nil {
				t = make(telemetry.Tally)
				errs[name] = t
			}
			t.Add(ModeTally(d.Counts))
		}
	}

	if res.Exec != (ExecStats{}) {
		if r.Resilience == nil {
			r.Resilience = make(map[string]int)
		}
		r.Resilience["degraded"] += res.Exec.Degraded
		r.Resilience["retried"] += res.Exec.Retried
		r.Resilience["hostfaults"] += res.Exec.HostFaults
		r.Resilience["replayed"] += res.Exec.Replayed
	}

	// Fabric campaigns: the per-host fleet breakdown. Sequential campaigns
	// (fig7 runs one per class) each contribute their hosts; the fleet is
	// usually the same, so the rows repeat per campaign by design — the
	// report is a log of what ran, not a deduplicated inventory.
	r.Hosts = append(r.Hosts, res.Hosts...)
}
