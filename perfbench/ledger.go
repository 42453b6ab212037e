package main

import (
	"math"
	"time"

	"repro/internal/campaign"
	"repro/internal/golden"
)

// span totals the calls the traced replay made into one public function of
// one layer.
type span struct {
	n int
	d time.Duration
}

// ledger is the traced run's record: time and call counts per layer call,
// plus the counts that give the timings their meaning (cycles executed per
// verdict, fast-forward decisions, unit latencies). Spans live in memory and
// are turned into metrics once the replay ends.
type ledger struct {
	spans map[string]*span

	// cycles and runs are indexed by verdict (campaign.FailureMode).
	cycles [6]uint64
	runs   [6]span

	units, ffwd, dormant, lean, armed int
	// degraded counts units sent down the straight path because their
	// checkpoint failed Verify, as campaign.ExecStats.Degraded does.
	degraded int
	unitUS   []float64
}

func newLedger() *ledger { return &ledger{spans: make(map[string]*span)} }

// since charges the time from start to now to the named call.
func (l *ledger) since(name string, start time.Time) {
	if l == nil {
		return
	}
	s := l.spans[name]
	if s == nil {
		s = &span{}
		l.spans[name] = s
	}
	s.n++
	s.d += time.Since(start)
}

// cyclesSince is the per-verdict cycle count added since c0.
func cyclesSince(c, c0 [6]uint64) [6]uint64 {
	for i := range c {
		c[i] -= c0[i]
	}
	return c
}

func (l *ledger) get(name string) span {
	if s := l.spans[name]; s != nil {
		return *s
	}
	return span{}
}

// total is the time charged to every call of the ledger.
func (l *ledger) total() time.Duration {
	var d time.Duration
	for _, s := range l.spans {
		d += s.d
	}
	return d
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// meanUS is the mean duration of one call in microseconds (0 when the call
// never happened).
func (s span) meanUS() float64 {
	if s.n == 0 {
		return 0
	}
	return us(s.d) / float64(s.n)
}

// perLayer names every per-layer metric with its unit. A traced run emits
// all of them; a layer that is not on a workload's path reads 0.
var perLayer = map[string]string{
	"cc.compile_ms":               "ms",
	"workload.generate_ms":        "ms",
	"campaign.calibrate_ms":       "ms",
	"locator.plan_ms":             "ms",
	"golden.build_ms":             "ms",
	"golden.records":              "count",
	"golden.checkpoints":          "count",
	"golden.snapshot_pages":       "count",
	"golden.verify_us":            "us",
	"campaign.ffwd_share":         "share",
	"campaign.dormant_share":      "share",
	"vm.run_ms.correct":           "ms",
	"vm.run_ms.incorrect":         "ms",
	"vm.run_ms.hang":              "ms",
	"vm.run_ms.crash":             "ms",
	"vm.cycles.correct":           "count",
	"vm.cycles.incorrect":         "count",
	"vm.cycles.hang":              "count",
	"vm.cycles.crash":             "count",
	"vm.minstr_per_s":             "Minstr/s",
	"vm.hang_cycle_share":         "share",
	"vm.restore_us":               "us",
	"vm.reset_us":                 "us",
	"campaign.unit_us.p50":        "us",
	"campaign.unit_us.p99":        "us",
	"campaign.unit_us.samples":    "count",
	"injector.arm_us":             "us",
	"injector.lean_share":         "share",
	"journal.append_us":           "us",
	"journal.canonicalize_ms":     "ms",
	"journal.bytes":               "B",
	"worker.roundtrip_us":         "us",
	"worker.overhead_us_per_unit": "us",
	"campaign.alloc_kb_per_unit":  "KiB",
	"trace.coverage":              "share",
	"trace.overhead":              "ratio",
}

// minTracePasses is the fewest untraced/traced pairs a traced run makes.
const minTracePasses = 2

// tracedRun collects what a traced run measured: the set-up ledger, the
// replay ledger summed over passes, the untraced and traced wall times of
// each pass, and the probes only some workloads make.
type tracedRun struct {
	setup *ledger // charged over setupPasses cold set-ups

	led               *ledger
	passes            int
	untraced          []float64 // seconds per untraced execution phase
	traced            []float64 // seconds per traced replay
	allocKBPerUnit    float64
	store             *golden.Store // the last replay's golden store; nil without one
	journalBytes      int64
	roundtripUS       float64
	overheadUSPerUnit float64
}

// metrics turns the run into the per-layer metrics: totals are per pass
// (per set-up pass for the set-up layers), call costs are means per call.
func (tr *tracedRun) metrics() map[string]metric {
	v := map[string]float64{}
	perSetup := func(name string) float64 { return ms(tr.setup.get(name).d) / setupPasses }
	v["cc.compile_ms"] = perSetup("cc.compile")
	v["workload.generate_ms"] = perSetup("workload.generate")
	v["campaign.calibrate_ms"] = perSetup("campaign.calibrate")
	v["locator.plan_ms"] = perSetup("locator.plan")

	l, p := tr.led, float64(tr.passes)
	v["golden.build_ms"] = ms(l.get("golden.run").d) / p
	if tr.store != nil {
		r, c, pg := tr.store.Stats()
		v["golden.records"], v["golden.checkpoints"], v["golden.snapshot_pages"] = float64(r), float64(c), float64(pg)
	}
	v["golden.verify_us"] = l.get("golden.verify").meanUS()
	if l.units > 0 {
		v["campaign.ffwd_share"] = float64(l.ffwd) / float64(l.units)
		v["campaign.dormant_share"] = float64(l.dormant) / float64(l.units)
	}
	var cycles uint64
	var run time.Duration
	for _, m := range campaign.Modes() {
		v["vm.run_ms."+m.String()] = ms(l.runs[m].d) / p
		v["vm.cycles."+m.String()] = float64(l.cycles[m]) / p
		cycles += l.cycles[m]
		run += l.runs[m].d
	}
	if run > 0 {
		v["vm.minstr_per_s"] = float64(cycles) / us(run)
	}
	if cycles > 0 {
		v["vm.hang_cycle_share"] = float64(l.cycles[campaign.Hang]) / float64(cycles)
	}
	v["vm.restore_us"] = l.get("vm.restore").meanUS()
	v["vm.reset_us"] = l.get("vm.reset").meanUS()
	v["campaign.unit_us.p50"] = quantile(l.unitUS, 0.5)
	v["campaign.unit_us.p99"] = quantile(l.unitUS, 0.99)
	v["campaign.unit_us.samples"] = float64(len(l.unitUS))
	v["injector.arm_us"] = l.get("injector.arm").meanUS()
	if n := l.lean + l.armed; n > 0 {
		v["injector.lean_share"] = float64(l.lean) / float64(n)
	}
	v["journal.append_us"] = l.get("journal.append").meanUS()
	v["journal.canonicalize_ms"] = ms(l.get("journal.canonicalize").d) / p
	v["journal.bytes"] = float64(tr.journalBytes)
	v["worker.roundtrip_us"] = tr.roundtripUS
	v["worker.overhead_us_per_unit"] = tr.overheadUSPerUnit
	v["campaign.alloc_kb_per_unit"] = tr.allocKBPerUnit
	var traced float64
	for _, s := range tr.traced {
		traced += s
	}
	if traced > 0 {
		v["trace.coverage"] = (l.total() + run).Seconds() / traced
	}
	if u := median(tr.untraced); u > 0 {
		v["trace.overhead"] = median(tr.traced) / u
	}
	out := make(map[string]metric, len(perLayer))
	for name, unit := range perLayer {
		x := v[name]
		if math.IsNaN(x) {
			x = 0
		}
		out[name] = metric{x, unit}
	}
	return out
}
