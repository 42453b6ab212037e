package main

import (
	"fmt"
	"time"

	"repro/internal/campaign"
	"repro/internal/cc"
	"repro/internal/programs"
	"repro/internal/vm"
	"repro/internal/workload"
)

// table1 is the §5 intensive test behind Table 1: clean runs of the seven
// reconstructed faulty programs on generated inputs, through
// campaign.RunCleanBatch with one worker. It shares the VM engine with
// table4 but has no injector, golden store, checkpoint or hang verdict, so
// a change to those must read flat here. The inputs come from
// 2099 + --seed (the §5 experiment's seed offset), table1Cases per program.
const (
	table1Seed  = 2099
	table1Cases = 60
	// table1RefStride thins the untraced run's replay reference to every
	// fourth case, to keep it short beside the measured repetitions.
	table1RefStride = 4
)

// table1Pinned are the per-program verdict counts at --seed 0; every
// verdict is correct or incorrect.
var table1Pinned = tally{
	"C.team1":  {0, 59, 1, 0, 0, 0},
	"C.team2":  {0, 49, 11, 0, 0, 0},
	"C.team3":  {0, 53, 7, 0, 0, 0},
	"C.team4":  {0, 59, 1, 0, 0, 0},
	"C.team5":  {0, 55, 5, 0, 0, 0},
	"JB.team6": {0, 60, 0, 0, 0, 0},
	"JB.team7": {0, 60, 0, 0, 0, 0},
}

// table1Work is the workload's planned state: the faulty programs and one
// case set per program kind.
type table1Work struct {
	progs []*programs.Program
	comp  map[string]*cc.Compiled
	cases map[programs.Kind][]workload.Case
}

func (o opts) table1Cases() int {
	if o.size > 0 {
		return o.size
	}
	return table1Cases
}

// plan compiles the faulty programs and generates the inputs, uncached
// (cc.Compile and workload.Generate bypass the per-process caches).
func planTable1(o opts, led *ledger) (*table1Work, error) {
	w := &table1Work{
		progs: programs.RealFaultPrograms(),
		comp:  map[string]*cc.Compiled{},
		cases: map[programs.Kind][]workload.Case{},
	}
	for _, p := range w.progs {
		src, err := p.FaultySource()
		if err != nil {
			return nil, err
		}
		t := time.Now()
		c, err := cc.Compile(src)
		led.since("cc.compile", t)
		if err != nil {
			return nil, fmt.Errorf("compile faulty %s: %w", p.Name, err)
		}
		w.comp[p.Name] = c
		if _, ok := w.cases[p.Kind]; !ok {
			t = time.Now()
			cs, err := workload.Generate(p.Kind, o.table1Cases(), table1Seed+o.seed)
			led.since("workload.generate", t)
			if err != nil {
				return nil, err
			}
			w.cases[p.Kind] = cs
		}
	}
	return w, nil
}

// rep runs every program over its cases once and returns the verdicts per
// program, in case order, and the cycles the runs executed per verdict.
func (w *table1Work) rep() (map[string][]campaign.FailureMode, [6]uint64, int, error) {
	out := map[string][]campaign.FailureMode{}
	var cycles [6]uint64
	n := 0
	for _, p := range w.progs {
		rs, err := campaign.RunCleanBatch(w.comp[p.Name], w.cases[p.Kind], vm.DefaultMaxCycles, 1)
		if err != nil {
			return nil, cycles, 0, fmt.Errorf("%s: %w", p.Name, err)
		}
		for i := range rs {
			out[p.Name] = append(out[p.Name], rs[i].Mode)
			cycles[rs[i].Mode] += rs[i].Cycles
		}
		n += len(rs)
	}
	return out, cycles, n, nil
}

// perCase keys each verdict by program and case index.
func perCase(modes map[string][]campaign.FailureMode) tally {
	t := tally{}
	for name, ms := range modes {
		for i, m := range ms {
			t.add(fmt.Sprintf("%s#%d", name, i), m, 1)
		}
	}
	return t
}

func perProgram(modes map[string][]campaign.FailureMode) tally {
	t := tally{}
	for name, ms := range modes {
		for _, m := range ms {
			t.add(name, m, 1)
		}
	}
	return t
}

// replay is the traced counterpart of rep: one pooled machine per program,
// rebooted with Reset before every stride-th case and run to completion.
func (w *table1Work) replay(led *ledger, stride int) (map[string][]campaign.FailureMode, time.Duration, error) {
	start := time.Now()
	r := newReplayer(led)
	out := map[string][]campaign.FailureMode{}
	for _, p := range w.progs {
		c := w.comp[p.Name]
		cases := w.cases[p.Kind]
		for i := 0; i < len(cases); i += stride {
			u0 := time.Now()
			m, err := r.machine(c, &cases[i], vm.DefaultMaxCycles, nil)
			if err != nil {
				return nil, 0, err
			}
			v, err := r.run(m, cases[i].Golden)
			if err != nil {
				return nil, 0, err
			}
			led.units++
			led.unitUS = append(led.unitUS, us(time.Since(u0)))
			out[p.Name] = append(out[p.Name], v)
		}
	}
	return out, time.Since(start), nil
}

// sampled keeps every stride-th verdict of each program.
func sampled(modes map[string][]campaign.FailureMode, stride int) map[string][]campaign.FailureMode {
	out := map[string][]campaign.FailureMode{}
	for name, ms := range modes {
		for i := 0; i < len(ms); i += stride {
			out[name] = append(out[name], ms[i])
		}
	}
	return out
}

// expect is the expectation list of a repetition: the reference tally
// and, at the default size and seed, the pinned per-program counts.
func (o opts) table1Expect(want tally) []expectation {
	return withPinned([]expectation{same(want)}, o.size == 0 && o.seed == 0, same(table1Pinned))
}

func runTable1(o opts) (*result, error) {
	w, err := planTable1(o, nil)
	if err != nil {
		return nil, err
	}
	var got []map[string][]campaign.FailureMode
	setup := func() error { _, err := planTable1(o, nil); return err }
	setups, reps, err := measure("table1", o.seconds, setup, func() (int, error) {
		modes, _, n, err := w.rep()
		got = append(got, modes)
		return n, err
	})
	if err != nil {
		return nil, err
	}
	metrics := endToEnd(setups, reps)
	// Every repetition must equal the first, which must agree case by case
	// with the replay through the VM's public calls on every
	// table1RefStride-th case (run after the peak-memory reading, which it
	// must not disturb), and at the default inputs with the pinned counts.
	ref, _, err := w.replay(newLedger(), table1RefStride)
	if err != nil {
		return nil, err
	}
	var g gate
	for i, modes := range got {
		exps := o.table1Expect(perProgram(got[0]))
		exps = append(exps, func(tally) string { return perCase(sampled(modes, table1RefStride)).diff(perCase(ref)) })
		g.check(fmt.Sprintf("table1 rep %d", i+1), perProgram(modes), exps...)
	}
	return g.result(g.withOKShare(metrics)), nil
}

func traceTable1(o opts) (*result, error) {
	setupLed := newLedger()
	err := timeSetups(func() error { _, err := planTable1(o, setupLed); return err })
	if err != nil {
		return nil, err
	}
	w, err := planTable1(o, nil)
	if err != nil {
		return nil, err
	}
	var g gate
	tr := &tracedRun{setup: setupLed, led: newLedger()}
	start := time.Now()
	for tr.passes < minTracePasses || time.Since(start) < o.seconds {
		fresh()
		var modes map[string][]campaign.FailureMode
		var cycles [6]uint64
		t := time.Now()
		kb, err := allocKB(func() error {
			var err error
			modes, cycles, _, err = w.rep()
			return err
		})
		ut := perProgram(modes)
		if err != nil {
			return nil, err
		}
		tr.untraced = append(tr.untraced, time.Since(t).Seconds())
		tr.allocKBPerUnit = kb / float64(ut.units())
		fresh()
		c0 := tr.led.cycles
		rmodes, wall, err := w.replay(tr.led, 1)
		if err != nil {
			return nil, err
		}
		rt := perProgram(rmodes)
		tr.traced = append(tr.traced, wall.Seconds())
		tr.passes++
		// The ledger's vm.cycles.* are the replay's; they must be the
		// clean batch's own RunResult.Cycles, verdict by verdict.
		exps := append(o.table1Expect(rt), func(tally) string {
			if d := cyclesSince(tr.led.cycles, c0); d != cycles {
				return fmt.Sprintf("replay ran %v cycles per verdict, clean batch %v", d[1:], cycles[1:])
			}
			return ""
		})
		g.check(fmt.Sprintf("table1 pass %d clean batch", tr.passes), ut, exps...)
		fmt.Printf("table1 pass %d: clean batch %.3f s, traced replay %.3f s\n", tr.passes, tr.untraced[len(tr.untraced)-1], wall.Seconds())
	}
	return g.result(tr.metrics()), nil
}
