package campaign_test

import (
	"testing"

	"repro/internal/campaign"
	"repro/internal/fault"
)

func TestClassCampaignSmall(t *testing.T) {
	res, err := campaign.Run(campaign.SmallConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.Runs == 0 {
		t.Fatal("no runs executed")
	}
	// Plan arithmetic: injected = faults × cases.
	if len(res.Plans) != 4 {
		t.Fatalf("plans = %d, want 4 (2 programs × 2 classes)", len(res.Plans))
	}
	totalInjected := 0
	for _, pl := range res.Plans {
		if pl.Chosen > pl.Possible {
			t.Errorf("%s/%v: chosen %d > possible %d", pl.Program, pl.Class, pl.Chosen, pl.Possible)
		}
		if pl.Class == fault.ClassAssignment && pl.Faults != pl.Chosen*4 {
			t.Errorf("%s assignment: faults = %d, want chosen×4 = %d", pl.Program, pl.Faults, pl.Chosen*4)
		}
		if pl.Injected != pl.Faults*4 {
			t.Errorf("%s/%v: injected = %d, want faults×cases = %d", pl.Program, pl.Class, pl.Injected, pl.Faults*4)
		}
		totalInjected += pl.Injected
	}
	if res.Runs != totalInjected {
		t.Errorf("runs = %d, want %d", res.Runs, totalInjected)
	}
	// Every entry's counts must sum to its runs.
	for _, e := range res.Entries {
		sum := 0
		for _, n := range e.Counts {
			sum += n
		}
		if sum != e.Runs {
			t.Errorf("%s/%s/%s: counts sum %d != runs %d", e.Program, e.Class, e.ErrType, sum, e.Runs)
		}
		if e.Activated > e.Runs {
			t.Errorf("%s/%s/%s: activated %d > runs %d", e.Program, e.Class, e.ErrType, e.Activated, e.Runs)
		}
	}
}

func TestCampaignAggregations(t *testing.T) {
	res, err := campaign.Run(campaign.SmallConfig())
	if err != nil {
		t.Fatal(err)
	}
	byProg := res.ByProgram(fault.ClassAssignment)
	if len(byProg) != 2 {
		t.Fatalf("ByProgram has %d programs, want 2", len(byProg))
	}
	byType := res.ByErrType(fault.ClassAssignment)
	if len(byType) != 4 {
		t.Fatalf("assignment ByErrType has %d types, want 4", len(byType))
	}
	for _, et := range fault.AssignmentErrTypes() {
		if _, ok := byType[string(et)]; !ok {
			t.Errorf("missing error type %s", et)
		}
	}
	total := res.Total(fault.ClassAssignment)
	sum := 0
	for _, d := range byProg {
		sum += d.Runs
	}
	if total.Runs != sum {
		t.Errorf("total runs %d != sum by program %d", total.Runs, sum)
	}
	var pct float64
	for _, m := range campaign.Modes() {
		pct += total.Pct(m)
	}
	if pct < 99.9 || pct > 100.1 {
		t.Errorf("percentages sum to %.2f", pct)
	}
}

// TestInjectedFaultsHitHard is the paper's headline §6 observation: the
// injected faults have a much stronger impact than the real software
// faults — only a small share of runs stays correct, far below the ≥94%
// correct rate of every faulty program in Table 1.
func TestInjectedFaultsHitHard(t *testing.T) {
	cfg := campaign.SmallConfig()
	cfg.CasesPerFault = 6
	res, err := campaign.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, class := range []fault.Class{fault.ClassAssignment, fault.ClassChecking} {
		d := res.Total(class)
		if d.Runs == 0 {
			t.Fatalf("no %v runs", class)
		}
		if d.Pct(campaign.Correct) > 80 {
			t.Errorf("%v faults: %.1f%% correct; injected faults should hit much harder than real ones",
				class, d.Pct(campaign.Correct))
		}
		if d.Counts[campaign.Incorrect] == 0 {
			t.Errorf("%v faults never produced incorrect results", class)
		}
	}
}

func TestCampaignUnknownProgram(t *testing.T) {
	_, err := campaign.Run(campaign.Config{Programs: []string{"nope"}, CasesPerFault: 1})
	if err == nil {
		t.Fatal("campaign accepted unknown program")
	}
}

func TestHardwareClassCampaign(t *testing.T) {
	cfg := campaign.Config{
		Programs:      []string{"JB.team11"},
		Classes:       []fault.Class{fault.ClassHardware},
		CasesPerFault: 3,
		ChosenAssign:  map[string]int{"JB.team11": 6},
		Seed:          5,
	}
	res, err := campaign.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	d := res.Total(fault.ClassHardware)
	if d.Runs != 18 {
		t.Fatalf("hardware runs = %d, want 6 faults x 3 cases", d.Runs)
	}
	if len(res.Plans) != 1 || res.Plans[0].Class != fault.ClassHardware {
		t.Fatalf("plans = %+v", res.Plans)
	}
	// Random bit flips must produce at least one abnormal outcome over 18
	// runs (crashes are their signature failure mode).
	if d.Counts[campaign.Correct] == d.Runs {
		t.Error("every hardware fault stayed dormant; plan is not injecting")
	}
}

func TestMetricGuidedCampaign(t *testing.T) {
	cfg := campaign.SmallConfig()
	cfg.Programs = []string{"JB.team6"}
	cfg.MetricGuided = true
	guided, err := campaign.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.MetricGuided = false
	uniform, err := campaign.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if guided.Runs == 0 || uniform.Runs == 0 {
		t.Fatal("empty campaign")
	}
	// Both policies expand the same number of assignment faults per chosen
	// location; the plans may differ in which checking locations (and thus
	// how many applicable error types) they pick.
	for _, res := range []*campaign.Result{guided, uniform} {
		for _, pl := range res.Plans {
			if pl.Class == fault.ClassAssignment && pl.Faults != pl.Chosen*4 {
				t.Errorf("assignment faults = %d, want %d", pl.Faults, pl.Chosen*4)
			}
		}
	}
}

// TestTriggerStudy checks the conclusion-section hypothesis the study was
// built for: with the fault types held fixed, softer triggers (one-shot,
// late activation) leave more runs correct than the always-on §6 trigger.
func TestTriggerStudy(t *testing.T) {
	res, err := campaign.RunTriggerStudy("JB.team11", 3, 8, 5, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Dists) != len(res.Policies) || len(res.Policies) != 3 {
		t.Fatalf("policies/dists = %d/%d", len(res.Policies), len(res.Dists))
	}
	for i, d := range res.Dists {
		if d.Runs != res.Faults*res.Cases {
			t.Errorf("%s: runs = %d, want %d", res.Policies[i].Name, d.Runs, res.Faults*res.Cases)
		}
	}
	always := res.Dists[0]
	late := res.Dists[2]
	if late.Pct(campaign.Correct) < always.Pct(campaign.Correct) {
		t.Errorf("late activation (%.1f%% correct) should be gentler than always-on (%.1f%%)",
			late.Pct(campaign.Correct), always.Pct(campaign.Correct))
	}
	if late.Activated >= always.Activated {
		t.Errorf("late activation fired in %d runs, always-on in %d; expected fewer", late.Activated, always.Activated)
	}
	if _, err := campaign.RunTriggerStudy("nope", 1, 1, 1, 0); err == nil {
		t.Error("unknown program accepted")
	}
}
