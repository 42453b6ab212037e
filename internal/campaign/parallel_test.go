package campaign_test

import (
	"reflect"
	"testing"

	"repro/internal/campaign"
	"repro/internal/fault"
	"repro/internal/injector"
	"repro/internal/programs"
	"repro/internal/workload"
)

// TestCampaignParallelDeterminism is the §6 determinism gate: a scaled-down
// class campaign must produce a deep-equal Result — Entries, Plans and
// Runs — whether it executes serially or fanned out over eight workers.
// All randomness lives in planning, which is serial and seeded; execution
// only fills per-unit result slots, so the schedule cannot leak into the
// Result.
func TestCampaignParallelDeterminism(t *testing.T) {
	// The JamesB pair keeps the test fast (the guarantee is structural,
	// not per-program: execution order cannot reach the Result for any
	// target). Both fault classes and all Table 3 error types are in play.
	base := campaign.Config{
		Programs:      []string{"JB.team11", "JB.team6"},
		CasesPerFault: 20,
		Seed:          2000,
	}

	serial := base
	serial.Workers = 1
	a, err := campaign.Run(serial)
	if err != nil {
		t.Fatal(err)
	}

	fanned := base
	fanned.Workers = 8
	b, err := campaign.Run(fanned)
	if err != nil {
		t.Fatal(err)
	}

	if !reflect.DeepEqual(a.Entries, b.Entries) {
		t.Errorf("Entries differ between 1 and 8 workers:\nserial:   %+v\nparallel: %+v", a.Entries, b.Entries)
	}
	if !reflect.DeepEqual(a.Plans, b.Plans) {
		t.Errorf("Plans differ between 1 and 8 workers:\nserial:   %+v\nparallel: %+v", a.Plans, b.Plans)
	}
	if a.Runs != b.Runs {
		t.Errorf("Runs differ: serial %d, parallel %d", a.Runs, b.Runs)
	}
	if a.Runs == 0 {
		t.Fatal("campaign executed zero runs; the determinism check is vacuous")
	}
}

// TestVerifyEmulationParallelDeterminism is the §5 determinism gate: the
// equivalence verification of a real-fault emulation must count the same
// Equivalent/FaultShown totals for any worker count.
func TestVerifyEmulationParallelDeterminism(t *testing.T) {
	p, ok := programs.ByName("C.team1")
	if !ok {
		t.Fatal("C.team1 missing from the suite")
	}
	em, err := campaign.BuildEmulation(p)
	if err != nil {
		t.Fatal(err)
	}
	cases, err := workload.Generate(p.Kind, 30, 99)
	if err != nil {
		t.Fatal(err)
	}
	a, err := campaign.VerifyEmulationWorkers(p, em, campaign.StrategyFetchEveryExec, injector.ModeHardware, cases, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := campaign.VerifyEmulationWorkers(p, em, campaign.StrategyFetchEveryExec, injector.ModeHardware, cases, 8)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Errorf("equivalence reports differ:\nserial:   %+v\nparallel: %+v", a, b)
	}
}

// TestTriggerStudyParallelDeterminism covers the third executor client: the
// per-policy failure-mode distributions must be schedule-independent.
func TestTriggerStudyParallelDeterminism(t *testing.T) {
	a, err := campaign.RunTriggerStudyWorkers("JB.team11", 3, 8, 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := campaign.RunTriggerStudyWorkers("JB.team11", 3, 8, 5, 8)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Errorf("trigger study differs:\nserial:   %+v\nparallel: %+v", a, b)
	}
}

// TestCalibrateCyclesCached proves repeated campaigns do not recalibrate:
// the same (program, case set) returns the identical budgets slice.
func TestCalibrateCyclesCached(t *testing.T) {
	p, ok := programs.ByName("JB.team11")
	if !ok {
		t.Fatal("JB.team11 missing from the suite")
	}
	c, err := p.Compile()
	if err != nil {
		t.Fatal(err)
	}
	cases, err := workload.Cached(p.Kind, 6, 12345)
	if err != nil {
		t.Fatal(err)
	}
	a, err := campaign.CalibrateCyclesWorkers(c, cases, 2)
	if err != nil {
		t.Fatal(err)
	}
	b, err := campaign.CalibrateCyclesWorkers(c, cases, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(cases) {
		t.Fatalf("got %d budgets for %d cases", len(a), len(cases))
	}
	if &a[0] != &b[0] {
		t.Error("second calibration did not hit the cache")
	}

	// A different case set must not alias the cached budgets.
	other, err := workload.Cached(p.Kind, 6, 54321)
	if err != nil {
		t.Fatal(err)
	}
	d, err := campaign.CalibrateCyclesWorkers(c, other, 1)
	if err != nil {
		t.Fatal(err)
	}
	if &d[0] == &a[0] {
		t.Error("distinct case sets share cached budgets")
	}
}

// TestCampaignWithFaultClassesParallel smoke-tests the executor across the
// hardware class and trap mode, the two paths with extra machine-state
// mutation (text rewrites), under a parallel schedule.
func TestCampaignWithFaultClassesParallel(t *testing.T) {
	res, err := campaign.Run(campaign.Config{
		Programs:      []string{"JB.team11"},
		Classes:       []fault.Class{fault.ClassAssignment, fault.ClassHardware},
		CasesPerFault: 4,
		Seed:          7,
		Mode:          injector.ModeTrap,
		Workers:       8,
	})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := campaign.Run(campaign.Config{
		Programs:      []string{"JB.team11"},
		Classes:       []fault.Class{fault.ClassAssignment, fault.ClassHardware},
		CasesPerFault: 4,
		Seed:          7,
		Mode:          injector.ModeTrap,
		Workers:       1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res, ref) {
		t.Errorf("trap-mode campaign differs between schedules:\nparallel: %+v\nserial:   %+v", res, ref)
	}
}
