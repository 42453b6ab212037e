package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/campaign"
	"repro/internal/cc"
	"repro/internal/fault"
	"repro/internal/injector"
	"repro/internal/locator"
	"repro/internal/programs"
	"repro/internal/workload"
)

// table4 is the paper's Table 4 campaign (§6): eight programs, assignment
// and checking faults, hardware triggers, fast-forward on, one worker, at
// one case per fault and the paper's seed 2000.
//
// The plan is fixed on purpose, and table4 ignores --seed. Across campaign
// seeds the cost of one unit varies with the chosen locations and the
// generated inputs (hang units burn a watchdog budget proportional to their
// input's clean run); over eight seeds at this size the mean unit cost had
// a coefficient of variation of about 8%, and doubling the cases per fault
// did not lower it. Every table4 run is held to the pinned tallies.
const (
	table4Seed  = 2000
	table4Cases = 1
)

// table4Pinned are the verdict totals (correct, incorrect, hang, crash,
// hostfault) of the plan above.
var table4Pinned = [5]int{103, 233, 63, 37, 0}

func table4Config(o opts) campaign.Config {
	var names []string
	for _, p := range programs.Table4Programs() {
		names = append(names, p.Name)
	}
	if o.size > 0 && o.size < len(names) {
		names = names[:o.size]
	}
	return campaign.Config{
		Programs:      names,
		Classes:       []fault.Class{fault.ClassAssignment, fault.ClassChecking},
		CasesPerFault: table4Cases,
		Seed:          table4Seed,
		Mode:          injector.ModeHardware,
		Workers:       1,
	}
}

// withPinned adds the pinned expectation e when the run is at the inputs
// the pinned tallies are for.
func withPinned(exps []expectation, at bool, e expectation) []expectation {
	if !at {
		return exps
	}
	return append(exps, e)
}

// planSetup is one cold, uncached planning pass of a campaign config:
// compile, input generation with the oracle, watchdog calibration and
// location planning. cc.Compile and workload.Generate bypass the
// per-process caches campaign.Run uses, and a fresh compile gives the
// calibration cache a new key, so every pass does the full work. led, when
// non-nil, is charged per layer.
func planSetup(cfg campaign.Config, led *ledger) error {
	cases := map[programs.Kind][]workload.Case{}
	for _, name := range cfg.Programs {
		p, _ := programs.ByName(name)
		t := time.Now()
		c, err := cc.Compile(p.Source)
		led.since("cc.compile", t)
		if err != nil {
			return err
		}
		cs, ok := cases[p.Kind]
		if !ok {
			t = time.Now()
			cs, err = workload.Generate(p.Kind, cfg.CasesPerFault, cfg.Seed)
			led.since("workload.generate", t)
			if err != nil {
				return err
			}
			cases[p.Kind] = cs
		}
		t = time.Now()
		_, err = campaign.CalibrateCyclesWorkers(c, cs, 1)
		led.since("campaign.calibrate", t)
		if err != nil {
			return err
		}
		t = time.Now()
		if _, err := locator.PlanAssignment(c, name, chosen(cfg.ChosenAssign, campaign.PaperChosenAssign, name), cfg.Seed); err != nil {
			return err
		}
		if _, err := locator.PlanChecking(c, name, chosen(cfg.ChosenCheck, campaign.PaperChosenCheck, name), cfg.Seed); err != nil {
			return err
		}
		led.since("locator.plan", t)
	}
	return nil
}

// prime fills the caches campaign.Run plans through (compiled programs,
// case sets, calibrated budgets), so that every timed repetition pays the
// same cached planning and the cold cost shows in setup_s only.
func prime(cfg campaign.Config) error {
	_, err := planReplay(cfg, newLedger())
	return err
}

func runTable4(o opts) (*result, error) {
	cfg := table4Config(o)
	if err := prime(cfg); err != nil {
		return nil, err
	}
	var got []tally
	setup := func() error { return planSetup(cfg, nil) }
	setups, reps, err := measure("table4", o.seconds, setup, func() (int, error) {
		res, err := campaign.Run(cfg)
		if err != nil {
			return 0, err
		}
		got = append(got, campaignTally(res))
		return res.Runs, nil
	})
	if err != nil {
		return nil, err
	}
	var g gate
	for i, t := range got {
		g.check(fmt.Sprintf("table4 rep %d", i+1), t, withPinned([]expectation{same(got[0])}, o.size == 0, totalsAre(table4Pinned))...)
	}
	return g.result(g.withOKShare(endToEnd(setups, reps))), nil
}

// replayCampaign runs the traced replay of cfg once, returning its tally
// and wall time; onUnit, when non-nil, sees every unit's verdict in
// planning order (the journal's unit numbering).
func replayCampaign(cfg campaign.Config, led *ledger, onUnit func(i int, v campaign.FailureMode) error) (tally, *replayer, time.Duration, error) {
	start := time.Now()
	units, err := planReplay(cfg, led)
	if err != nil {
		return nil, nil, 0, err
	}
	r := newReplayer(led)
	t := tally{}
	for i := range units {
		u := &units[i]
		v, err := r.unit(u, cfg.Mode)
		if err != nil {
			return nil, nil, 0, fmt.Errorf("replay unit %d (%s): %w", i, u.f.ID, err)
		}
		t.add(entryKey(u.f.Where.Program, u.f.Class.String(), string(u.f.ErrType)), v, 1)
		if onUnit != nil {
			if err := onUnit(i, v); err != nil {
				return nil, nil, 0, err
			}
		}
	}
	return t, r, time.Since(start), nil
}

// sameDegraded expects the campaign to have degraded as many units to the
// straight path as the replay did (ExecStats.Degraded, the one dispatch
// figure campaign.Run reports).
func sameDegraded(res *campaign.Result, replayed int) expectation {
	return func(tally) string {
		if res.Exec.Degraded != replayed {
			return fmt.Sprintf("campaign degraded %d units, replay %d", res.Exec.Degraded, replayed)
		}
		return ""
	}
}

// allocKB is the heap allocated by fn, in KiB.
func allocKB(fn func() error) (float64, error) {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	err := fn()
	runtime.ReadMemStats(&b)
	return float64(b.TotalAlloc-a.TotalAlloc) / 1024, err
}

func traceTable4(o opts) (*result, error) {
	cfg := table4Config(o)
	setupLed := newLedger()
	err := timeSetups(func() error { return planSetup(cfg, setupLed) })
	if err != nil {
		return nil, err
	}
	if err := prime(cfg); err != nil {
		return nil, err
	}
	var g gate
	tr := &tracedRun{setup: setupLed, led: newLedger()}
	start := time.Now()
	for tr.passes < minTracePasses || time.Since(start) < o.seconds {
		// Untraced campaign first, then its traced replay.
		fresh()
		var res *campaign.Result
		t := time.Now()
		kb, err := allocKB(func() error {
			var err error
			res, err = campaign.Run(cfg)
			return err
		})
		if err != nil {
			return nil, err
		}
		tr.untraced = append(tr.untraced, time.Since(t).Seconds())
		tr.allocKBPerUnit = kb / float64(res.Runs)
		fresh()
		d0 := tr.led.degraded
		rt, r, wall, err := replayCampaign(cfg, tr.led, nil)
		if err != nil {
			return nil, err
		}
		tr.traced = append(tr.traced, wall.Seconds())
		tr.passes++
		tr.store = r.store
		ut := campaignTally(res)
		exps := []expectation{same(rt), sameDegraded(res, tr.led.degraded-d0)}
		g.check(fmt.Sprintf("table4 pass %d campaign", tr.passes), ut, withPinned(exps, o.size == 0, totalsAre(table4Pinned))...)
		fmt.Printf("table4 pass %d: campaign %.3f s, traced replay %.3f s\n", tr.passes, tr.untraced[len(tr.untraced)-1], wall.Seconds())
	}
	return g.result(tr.metrics()), nil
}
