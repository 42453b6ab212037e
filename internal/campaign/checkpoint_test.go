package campaign

import (
	"reflect"
	"testing"

	"repro/internal/fault"
	"repro/internal/golden"
	"repro/internal/injector"
	"repro/internal/locator"
	"repro/internal/programs"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// These tests pin the central claim of golden-run checkpointing: the
// fast-forwarded execution of an injection — restore the nearest checkpoint
// before the fault's first trigger arrival, arm, run the suffix — is
// observably identical to the straight execution that reboots and replays
// the whole run. See the soundness argument in package golden.

// ffFacts is the per-run observable surface the straight and checkpointed
// paths must agree on. Activations is compared as a boolean: the lean path
// reports an at-least-once indicator, which is all the campaign consumes.
type ffFacts struct {
	res       RunResult
	activated bool
}

func factsOf(r RunResult) ffFacts {
	act := r.Activations > 0
	r.Activations = 0
	return ffFacts{res: r, activated: act}
}

// TestFastForwardMatchesStraightRun deep-compares the checkpointed path
// against the straight path for every Table 4 program, both fault classes
// and both injector modes: failure mode, machine state, exception, output,
// cycle count, exit status and the activation indicator must all match.
// The checkpointed path also skips periodic hang tails (vm/loop.go) and the
// straight path never does, so the test requires that some unit skipped.
func TestFastForwardMatchesStraightRun(t *testing.T) {
	const nLocs, nCases = 2, 2
	seed := int64(41)
	met := newCampMetrics(telemetry.NewRegistry())
	for _, p := range programs.Table4Programs() {
		c, err := p.Compile()
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		cases, err := workload.Cached(p.Kind, nCases, seed)
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		budgets, err := CalibrateCycles(c, cases)
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		pa, err := locator.PlanAssignment(c, p.Name, nLocs, seed)
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		pc, err := locator.PlanChecking(c, p.Name, nLocs, seed)
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		faults := append(append([]fault.Fault(nil), pa.Faults...), pc.Faults...)
		gold := newGoldenSource(faults)
		if gold == nil {
			t.Fatalf("%s: no location-triggered faults planned", p.Name)
		}

		straightPool := newMachinePool()
		fastPool := newMachinePool()
		fastPool.met = met
		for _, mode := range []injector.Mode{injector.ModeHardware, injector.ModeTrap} {
			for fi := range faults {
				f := &faults[fi]
				for ci := range cases {
					u := &runUnit{
						program: p.Name, c: c, f: f,
						cs: &cases[ci], caseIx: ci,
						budget: budgets[ci], mode: mode, gold: gold,
					}
					straight, err := straightPool.runWithFault(c, &cases[ci], f, mode, budgets[ci])
					if err != nil {
						t.Fatalf("%s %s mode %v case %d: straight: %v", p.Name, f.ID, mode, ci, err)
					}
					fast, err := fastPool.runFastForward(u)
					if err != nil {
						t.Fatalf("%s %s mode %v case %d: fast-forward: %v", p.Name, f.ID, mode, ci, err)
					}
					if got, want := factsOf(fast), factsOf(straight); !reflect.DeepEqual(got, want) {
						t.Errorf("%s %s mode %v case %d:\n  fast-forward %+v\n  straight     %+v",
							p.Name, f.ID, mode, ci, got, want)
					}
				}
			}
		}
	}
	if met.loopSkips.Value() == 0 {
		t.Fatal("no unit skipped a periodic hang tail; the skip went untested")
	}
	t.Logf("%d units skipped %d cycles of periodic hang tail", met.loopSkips.Value(), met.cyclesSkipped.Value())
}

// TestFigure7FastForwardDeepEqual is the campaign-level form of the same
// claim, at the Figure 7 shape (assignment class, every Table 4 program):
// the Result of the checkpointed executor is deep-equal to the Result of
// the full-replay executor.
func TestFigure7FastForwardDeepEqual(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign A/B comparison is slow")
	}
	chosen := map[string]int{
		"C.team1": 2, "C.team2": 2, "C.team8": 2, "C.team9": 2,
		"C.team10": 2, "JB.team6": 2, "JB.team11": 2, "SOR": 3,
	}
	base := Config{
		Classes:       []fault.Class{fault.ClassAssignment},
		CasesPerFault: 2,
		ChosenAssign:  chosen,
		Seed:          7,
		Workers:       1,
	}
	fastCfg := base
	fast, err := Run(fastCfg)
	if err != nil {
		t.Fatal(err)
	}
	straightCfg := base
	straightCfg.NoFastForward = true
	straight, err := Run(straightCfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fast, straight) {
		t.Fatalf("checkpointed Result differs from full-replay Result:\nfast:     %+v\nstraight: %+v", fast, straight)
	}
	if !reflect.DeepEqual(fast.ByProgram(fault.ClassAssignment), straight.ByProgram(fault.ClassAssignment)) {
		t.Fatal("Figure 7 aggregation differs between checkpointed and full-replay executors")
	}
}

// TestCheckpointedDeterminismAcrossWorkers runs the same checkpointed
// campaign serially and with 8 workers and requires bit-identical Results,
// while confirming the golden store actually served records (the fast path
// was exercised, not silently skipped).
func TestCheckpointedDeterminismAcrossWorkers(t *testing.T) {
	golden.Shared.Purge()
	cfg := Config{
		Programs:      []string{"JB.team6", "SOR"},
		Classes:       []fault.Class{fault.ClassAssignment, fault.ClassChecking},
		CasesPerFault: 3,
		Seed:          23,
		Workers:       1,
	}
	serial, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	records, checkpoints, _ := golden.Shared.Stats()
	if records == 0 {
		t.Fatal("campaign ran without recording any golden runs; the checkpointed path was not exercised")
	}
	if checkpoints == 0 {
		t.Fatal("golden records carry no checkpoints")
	}
	cfg.Workers = 8
	wide, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, wide) {
		t.Fatalf("Workers=1 and Workers=8 diverge on the checkpointed path:\nserial: %+v\nwide:   %+v", serial, wide)
	}
}
