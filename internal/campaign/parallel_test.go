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
	a, err := campaign.VerifyEmulation(p, em, campaign.StrategyFetchEveryExec, injector.ModeHardware, cases, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := campaign.VerifyEmulation(p, em, campaign.StrategyFetchEveryExec, injector.ModeHardware, cases, 8)
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
	a, err := campaign.RunTriggerStudy("JB.team11", 3, 8, 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := campaign.RunTriggerStudy("JB.team11", 3, 8, 5, 8)
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
