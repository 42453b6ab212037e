package campaign

import (
	"reflect"
	"testing"

	"repro/internal/cc"
	"repro/internal/fault"
	"repro/internal/golden"
	"repro/internal/injector"
	"repro/internal/locator"
	"repro/internal/programs"
	"repro/internal/telemetry"
	"repro/internal/vm"
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
		budgets, err := CalibrateCyclesWorkers(c, cases, 0)
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
		gold := newGoldenSource(golden.Shared, faults)
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

// TestRunCleanBatchMatchesRunClean pins the pooled batch path to a
// one-machine-per-run reference built here, including over a faulty binary
// where outputs deviate.
func TestRunCleanBatchMatchesRunClean(t *testing.T) {
	p, ok := programs.ByName("C.team2")
	if !ok {
		t.Fatal("C.team2 missing from the suite")
	}
	c, err := p.CompileFaulty()
	if err != nil {
		t.Fatal(err)
	}
	cases, err := workload.Generate(p.Kind, 25, 3)
	if err != nil {
		t.Fatal(err)
	}
	batch, err := RunCleanBatch(c, cases, 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(batch) != len(cases) {
		t.Fatalf("batch returned %d results for %d cases", len(batch), len(cases))
	}
	for i := range cases {
		m := vm.New(vm.Config{})
		if err := m.Load(c.Prog.Image); err != nil {
			t.Fatal(err)
		}
		m.SetInput(cases[i].Input.Ints)
		m.SetByteInput(cases[i].Input.Bytes)
		if _, err := m.Run(); err != nil {
			t.Fatal(err)
		}
		if ref := classify(m, cases[i].Golden); !reflect.DeepEqual(ref, batch[i]) {
			t.Errorf("case %d: batch %+v != reference %+v", i, batch[i], ref)
		}
	}
}

// TestFastForwardMatchesStraightRunStudies extends the comparison of
// TestFastForwardMatchesStraightRun to the shapes it does not plan: the
// trigger study's first-execution-only and skip-24 policies at calibrated
// budgets, and the §5 emulations at the studies' fixed vm.DefaultMaxCycles
// watchdog — C.team1 and C.team4 in hardware mode, and JB.team6's stack
// shift, with its 56 triggers, in trap mode.
func TestFastForwardMatchesStraightRunStudies(t *testing.T) {
	compare := func(label string, c *cc.Compiled, faults []fault.Fault, cases []workload.Case, budget func(ci int) uint64, mode injector.Mode) {
		t.Helper()
		gold := newGoldenSource(golden.NewStore(), faults)
		if gold == nil {
			t.Fatalf("%s: no location-triggered faults", label)
		}
		straightPool, fastPool := newMachinePool(), newMachinePool()
		fastPool.met = newCampMetrics(telemetry.NewRegistry())
		defer func() {
			if fastPool.met.ffwdHits.Value() == 0 {
				t.Errorf("%s: no run restored a checkpoint; the fast path went untested", label)
			}
		}()
		for fi := range faults {
			f := &faults[fi]
			for ci := range cases {
				u := &runUnit{
					program: label, c: c, f: f,
					cs: &cases[ci], caseIx: ci,
					budget: budget(ci), mode: mode, gold: gold,
				}
				straight, err := straightPool.runWithFault(c, &cases[ci], f, mode, u.budget)
				if err != nil {
					t.Fatalf("%s %s case %d: straight: %v", label, f.ID, ci, err)
				}
				fast, err := fastPool.runFastForward(u)
				if err != nil {
					t.Fatalf("%s %s case %d: fast-forward: %v", label, f.ID, ci, err)
				}
				if got, want := factsOf(fast), factsOf(straight); !reflect.DeepEqual(got, want) {
					t.Errorf("%s %s case %d:\n  fast-forward %+v\n  straight     %+v", label, f.ID, ci, got, want)
				}
			}
		}
	}

	p, _ := programs.ByName("JB.team11")
	c, err := p.Compile()
	if err != nil {
		t.Fatal(err)
	}
	cases, err := workload.Cached(p.Kind, 2, 5)
	if err != nil {
		t.Fatal(err)
	}
	budgets, err := CalibrateCyclesWorkers(c, cases, 0)
	if err != nil {
		t.Fatal(err)
	}
	pa, err := locator.PlanAssignment(c, p.Name, 1, 5)
	if err != nil {
		t.Fatal(err)
	}
	pc, err := locator.PlanChecking(c, p.Name, 1, 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, pol := range DefaultTriggerPolicies() {
		faults := append(append([]fault.Fault(nil), pa.Faults...), pc.Faults...)
		for fi := range faults {
			faults[fi].Trigger.Once, faults[fi].Trigger.Skip = pol.Once, pol.Skip
		}
		compare(p.Name+" "+pol.Name, c, faults, cases, func(ci int) uint64 { return budgets[ci] }, injector.ModeHardware)
	}

	for _, tc := range []struct {
		name string
		mode injector.Mode
	}{{"C.team1", injector.ModeHardware}, {"C.team4", injector.ModeHardware}, {"JB.team6", injector.ModeTrap}} {
		p, _ := programs.ByName(tc.name)
		em, err := BuildEmulation(p)
		if err != nil {
			t.Fatal(err)
		}
		c, err := p.Compile()
		if err != nil {
			t.Fatal(err)
		}
		compare(tc.name+" §5", c, []fault.Fault{*em.Fault}, ExposingCases(t, p), func(int) uint64 { return vm.DefaultMaxCycles }, tc.mode)
	}
}

// mkCase builds a workload case from a raw input via the program's oracle.
func mkCase(t *testing.T, kind programs.Kind, ints []int32, bytes []byte) workload.Case {
	t.Helper()
	in := programs.Input{Ints: ints, Bytes: bytes}
	golden, err := kind.Oracle()(in)
	if err != nil {
		t.Fatal(err)
	}
	return workload.Case{Input: in, Golden: golden}
}

// ExposingCases returns, per program, a case set that includes inputs known
// to expose the real fault (found by intensive search) plus the contest
// cases (where the fault stays dormant). It is exported to this package's
// external tests, which verify the §5 emulations over it.
func ExposingCases(t *testing.T, p *programs.Program) []workload.Case {
	t.Helper()
	contest, err := workload.ContestCases(p.Kind)
	if err != nil {
		t.Fatal(err)
	}
	switch p.Name {
	case "C.team1":
		return append(contest,
			mkCase(t, p.Kind, []int32{8, 0, 2, 2, 6, 0, 5, 6, 6, 2, 1, 3, 4, 4, 7, 6, 0, 5, 0}, nil),
			mkCase(t, p.Kind, []int32{8, 0, 6, 5, 2, 4, 0, 6, 3, 2, 7, 4, 7, 3, 3, 4, 5, 4, 2}, nil),
		)
	case "C.team4":
		return append(contest,
			mkCase(t, p.Kind, []int32{5, 7, 2, 2, 6, 3, 5, 0, 1, 0, 6, 1, 2}, nil),
			mkCase(t, p.Kind, []int32{4, 7, 6, 7, 1, 5, 2, 1, 2, 1, 0}, nil),
		)
	case "JB.team6":
		return append(contest,
			mkCase(t, p.Kind, []int32{-272473, 80}, []byte("Iq9pvnnTxknpxzh-ncesHD3pCbQruW.e-hrjfmcyh .fx-zGsqqW.-QaPY7XU y2ldCajXmDorlc5bfd")),
			mkCase(t, p.Kind, []int32{-677774, 80}, []byte("bhn6CGKqa!aiZ!eKaIRNjpYaa-u-t!zkvs6Mzewpnlrbw1b.tcqkTalf7gzyXRqrXscldsxqbhfa4wYe")),
		)
	}
	t.Fatalf("no exposing cases recorded for %s", p.Name)
	return nil
}
