package campaign

import (
	"fmt"

	"repro/internal/fault"
	"repro/internal/golden"
	"repro/internal/injector"
	"repro/internal/locator"
	"repro/internal/programs"
	"repro/internal/workload"
)

// This file implements the study the paper's conclusion calls for:
// "a promising approach seems to be devising ways to perform an independent
// evaluation of the accuracy of the fault types and the fault triggers."
// It holds the fault types (What/Where) fixed and varies only the trigger's
// When parameter, so differences in failure modes are attributable to the
// trigger alone.

// TriggerPolicy is one When setting.
type TriggerPolicy struct {
	Name string
	Once bool
	Skip int
}

// DefaultTriggerPolicies returns the three policies compared by the study:
// the §6 always-on trigger, a first-execution-only trigger, and a
// late-activation trigger that lets the program run warm before the error
// appears (closer to a latent software fault exposed by a rare state).
func DefaultTriggerPolicies() []TriggerPolicy {
	return []TriggerPolicy{
		{Name: "every execution (paper §6)", Once: false, Skip: 0},
		{Name: "first execution only", Once: true, Skip: 0},
		{Name: "single late activation (skip 24)", Once: true, Skip: 24},
	}
}

// TriggerStudyResult aggregates failure modes per policy.
type TriggerStudyResult struct {
	Program  string
	Policies []TriggerPolicy
	Dists    []Dist // parallel to Policies
	Faults   int
	Cases    int
}

// RunTriggerStudy injects the same fault set (assignment plus checking,
// nLocs locations each) under every policy and collects the failure-mode
// distributions over workers (0 selects runtime.GOMAXPROCS(0), 1 the serial
// path). Planning — fault selection and the per-policy trigger rewrites —
// stays serial; the (policy, fault, case) runs execute through the shared
// campaign executor with outcomes merged in planning order, so the
// distributions are identical for any worker count.
func RunTriggerStudy(programName string, nLocs, nCases int, seed int64, workers int) (*TriggerStudyResult, error) {
	p, ok := programs.ByName(programName)
	if !ok {
		return nil, fmt.Errorf("campaign: unknown program %q", programName)
	}
	c, err := p.Compile()
	if err != nil {
		return nil, err
	}
	cases, err := workload.Cached(p.Kind, nCases, seed)
	if err != nil {
		return nil, err
	}
	budgets, err := CalibrateCyclesWorkers(c, cases, workers)
	if err != nil {
		return nil, err
	}
	pa, err := locator.PlanAssignment(c, programName, nLocs, seed)
	if err != nil {
		return nil, err
	}
	pc, err := locator.PlanChecking(c, programName, nLocs, seed)
	if err != nil {
		return nil, err
	}
	faults := append(append([]fault.Fault(nil), pa.Faults...), pc.Faults...)

	res := &TriggerStudyResult{
		Program:  programName,
		Policies: DefaultTriggerPolicies(),
		Faults:   len(faults),
		Cases:    len(cases),
	}
	// One watch set serves every policy: the policies rewrite only the
	// When parameters, never the trigger addresses. The late-activation
	// policy benefits the most from the golden record — faults whose
	// location executes fewer than Skip+1 times are recognised as dormant
	// without running anything.
	gold := newGoldenSource(golden.Shared, faults)
	var units []runUnit
	for pi, pol := range res.Policies {
		// Each policy gets its own fault copies so the trigger rewrite
		// does not leak between policies; units reference the copies.
		polFaults := make([]fault.Fault, len(faults))
		copy(polFaults, faults)
		for fi := range polFaults {
			f := &polFaults[fi]
			f.Trigger.Once = pol.Once
			f.Trigger.Skip = pol.Skip
			for ci := range cases {
				units = append(units, runUnit{
					program: fmt.Sprintf("trigger study %s", pol.Name),
					c:       c, f: f,
					cs: &cases[ci], caseIx: ci,
					budget: budgets[ci], mode: injector.ModeHardware,
					entry: pi, gold: gold,
				})
			}
		}
	}
	outcomes, err := executeUnitsOpts(execOpts{workers: workers}, units)
	if err != nil {
		return nil, err
	}
	dists := make([]Dist, len(res.Policies))
	for i := range dists {
		dists[i] = Dist{Counts: make(map[FailureMode]int)}
	}
	for i := range units {
		d := &dists[units[i].entry]
		d.Runs++
		d.Counts[outcomes[i].mode]++
		if outcomes[i].activated {
			d.Activated++
		}
	}
	res.Dists = dists
	return res, nil
}
