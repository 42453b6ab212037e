package main

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/campaign"
	"repro/internal/cc"
	"repro/internal/fault"
	"repro/internal/golden"
	"repro/internal/injector"
	"repro/internal/locator"
	"repro/internal/programs"
	"repro/internal/vm"
	"repro/internal/workload"
)

// The traced replay re-executes a campaign unit by unit through the layers'
// public calls, in the order campaign.Run plans them, and times every call.
// It mirrors the executor's fast-forward path (golden record, dormant
// shortcut, nearest checkpoint, lean arming, straight fallback) so that its
// verdicts must equal the untraced campaign's; the tally gate checks that
// they do. The executor's private watchdog constants are restated here for
// the same reason.
const (
	budgetFactor = 3
	budgetSlack  = 50_000
	quotaFactor  = 4
)

func hardQuota(maxCycles uint64) uint64 {
	if maxCycles == 0 {
		maxCycles = vm.DefaultMaxCycles
	}
	return maxCycles*quotaFactor + budgetSlack
}

func quantileMarks(budget uint64) []uint64 {
	if budget <= budgetSlack {
		return nil
	}
	clean := (budget - budgetSlack) / budgetFactor
	var marks []uint64
	for _, q := range [...]uint64{clean / 4, clean / 2, 3 * clean / 4} {
		if q > 0 && (len(marks) == 0 || q > marks[len(marks)-1]) {
			marks = append(marks, q)
		}
	}
	return marks
}

// verdict classifies a finished run the way the campaign package does.
func verdict(state vm.State, exit int32, output, want string) campaign.FailureMode {
	switch {
	case state == vm.StateHung:
		return campaign.Hang
	case state != vm.StateHalted || exit != 0:
		return campaign.Crash
	case output == want:
		return campaign.Correct
	default:
		return campaign.Incorrect
	}
}

// replayUnit is one planned injection.
type replayUnit struct {
	c      *cc.Compiled
	f      *fault.Fault
	cs     *workload.Case
	budget uint64
	ws     *golden.WatchSet // nil: no location-triggered fault, straight path
}

// planReplay rebuilds the unit list of cfg in campaign.Run's planning order
// (program, class, fault, case), timing the planning calls. cfg must be
// fully specified: Programs, Classes, CasesPerFault, Seed and Mode set.
func planReplay(cfg campaign.Config, led *ledger) ([]replayUnit, error) {
	var units []replayUnit
	for _, name := range cfg.Programs {
		p, ok := programs.ByName(name)
		if !ok {
			return nil, fmt.Errorf("unknown program %q", name)
		}
		t := time.Now()
		c, err := p.Compile()
		led.since("cc.compile", t)
		if err != nil {
			return nil, err
		}
		t = time.Now()
		cases, err := workload.Cached(p.Kind, cfg.CasesPerFault, cfg.Seed)
		led.since("workload.generate", t)
		if err != nil {
			return nil, err
		}
		t = time.Now()
		budgets, err := campaign.CalibrateCyclesWorkers(c, cases, 1)
		led.since("campaign.calibrate", t)
		if err != nil {
			return nil, err
		}
		plans := make([]*locator.Plan, len(cfg.Classes))
		var addrs []uint32
		for i, class := range cfg.Classes {
			t = time.Now()
			switch class {
			case fault.ClassAssignment:
				plans[i], err = locator.PlanAssignment(c, name, chosen(cfg.ChosenAssign, campaign.PaperChosenAssign, name), cfg.Seed)
			case fault.ClassChecking:
				plans[i], err = locator.PlanChecking(c, name, chosen(cfg.ChosenCheck, campaign.PaperChosenCheck, name), cfg.Seed)
			default:
				err = fmt.Errorf("class %v is not replayed", class)
			}
			led.since("locator.plan", t)
			if err != nil {
				return nil, err
			}
			for fi := range plans[i].Faults {
				if f := &plans[i].Faults[fi]; f.Trigger.Kind == fault.TriggerOnLocation {
					addrs = append(addrs, f.TriggerAddrs()...)
				}
			}
		}
		var ws *golden.WatchSet
		if len(addrs) > 0 {
			w := golden.NewWatchSet(addrs)
			ws = &w
		}
		for _, plan := range plans {
			for fi := range plan.Faults {
				for ci := range cases {
					units = append(units, replayUnit{c: c, f: &plan.Faults[fi], cs: &cases[ci], budget: budgets[ci], ws: ws})
				}
			}
		}
	}
	return units, nil
}

// chosen is campaign.Config's location-count lookup.
func chosen(m, def map[string]int, program string) int {
	if n, ok := m[program]; ok {
		return n
	}
	if n, ok := def[program]; ok {
		return n
	}
	return 5
}

// replayer executes units with one pooled machine per program and a fresh
// golden store, so every golden build of the replay is paid and timed.
type replayer struct {
	led      *ledger
	store    *golden.Store
	machines map[*cc.Compiled]*vm.Machine
}

func newReplayer(led *ledger) *replayer {
	return &replayer{led: led, store: golden.NewStore(), machines: make(map[*cc.Compiled]*vm.Machine)}
}

// machine returns the program's pooled machine, rebooted (Reset) or, with a
// checkpoint, rewound to it (Restore), with the unit's budget installed.
func (r *replayer) machine(c *cc.Compiled, cs *workload.Case, budget uint64, cp *golden.Checkpoint) (*vm.Machine, error) {
	m, ok := r.machines[c]
	if !ok {
		m = vm.New(vm.Config{})
		if err := m.Load(c.Prog.Image); err != nil {
			return nil, err
		}
		r.machines[c] = m
	}
	t := time.Now()
	if cp != nil {
		err := m.Restore(cp.Snap)
		r.led.since("vm.restore", t)
		if err != nil {
			return nil, err
		}
	} else {
		if ok {
			err := m.Reset()
			r.led.since("vm.reset", t)
			if err != nil {
				return nil, err
			}
		}
		m.SetInput(cs.Input.Ints)
		m.SetByteInput(cs.Input.Bytes)
	}
	m.SetMaxCycles(budget)
	m.SetCycleQuota(hardQuota(budget))
	return m, nil
}

// run executes m to completion and classifies it, charging the run's time
// and cycles to its verdict.
func (r *replayer) run(m *vm.Machine, want string) (campaign.FailureMode, error) {
	c0 := m.Cycles()
	t := time.Now()
	_, err := m.Run()
	d := time.Since(t)
	if errors.Is(err, vm.ErrCycleQuota) {
		return campaign.HostFault, nil
	}
	if err != nil {
		return 0, err
	}
	v := verdict(m.State(), m.ExitStatus(), string(m.Output()), want)
	r.led.runs[v].n++
	r.led.runs[v].d += d
	r.led.cycles[v] += m.Cycles() - c0
	return v, nil
}

// arm arms f on m, leanly when the fast path allows it.
func (r *replayer) arm(m *vm.Machine, f *fault.Fault, mode injector.Mode, lean bool) error {
	t := time.Now()
	if lean {
		ok, err := injector.ArmLean(m, mode, f)
		if err != nil || ok {
			r.led.since("injector.arm", t)
			r.led.lean++
			return err
		}
	}
	_, err := injector.Arm(m, mode, f)
	r.led.since("injector.arm", t)
	r.led.armed++
	return err
}

// straight is the reboot-arm-replay path.
func (r *replayer) straight(u *replayUnit, mode injector.Mode) (campaign.FailureMode, error) {
	m, err := r.machine(u.c, u.cs, u.budget, nil)
	if err != nil {
		return 0, err
	}
	if err := r.arm(m, u.f, mode, false); err != nil {
		return 0, err
	}
	return r.run(m, u.cs.Golden)
}

// unit replays one injection and returns its verdict.
func (r *replayer) unit(u *replayUnit, mode injector.Mode) (campaign.FailureMode, error) {
	start := time.Now()
	v, err := r.unitPath(u, mode)
	r.led.units++
	r.led.unitUS = append(r.led.unitUS, us(time.Since(start)))
	return v, err
}

func (r *replayer) unitPath(u *replayUnit, mode injector.Mode) (campaign.FailureMode, error) {
	if u.ws == nil || u.f.Trigger.Kind != fault.TriggerOnLocation {
		return r.straight(u, mode)
	}
	t := time.Now()
	rec, err := r.store.Run(u.c, u.cs, u.budget, quantileMarks(u.budget), *u.ws)
	r.led.since("golden.run", t)
	if err != nil {
		return 0, err
	}
	t = time.Now()
	applying, safe := rec.RestorePoint(u.f.TriggerAddrs(), uint64(u.f.Trigger.Skip))
	var cp *golden.Checkpoint
	if applying {
		cp = rec.Nearest(safe)
	}
	r.led.since("golden.restore_point", t)
	if !applying {
		// Dormant: arm on a rebooted machine (arming can fail on its own),
		// then take the golden run's outcome.
		m, err := r.machine(u.c, u.cs, u.budget, nil)
		if err != nil {
			return 0, err
		}
		if err := r.arm(m, u.f, mode, false); err != nil {
			return 0, err
		}
		r.led.dormant++
		return verdict(rec.State, rec.ExitStatus, rec.Output, u.cs.Golden), nil
	}
	if cp == nil {
		return r.straight(u, mode)
	}
	t = time.Now()
	ok := cp.Verify()
	r.led.since("golden.verify", t)
	if !ok {
		r.led.degraded++
		return r.straight(u, mode)
	}
	m, err := r.machine(u.c, u.cs, u.budget, cp)
	if err != nil {
		return 0, err
	}
	r.led.ffwd++
	if err := r.arm(m, u.f, mode, true); err != nil {
		return 0, err
	}
	return r.run(m, u.cs.Golden)
}
