package mutation

import (
	"fmt"

	"repro/internal/campaign"
	"repro/internal/fault"
	"repro/internal/injector"
	"repro/internal/locator"
	"repro/internal/programs"
	"repro/internal/workload"
)

// StudyResult is the outcome of the mutation-versus-injection comparison.
type StudyResult struct {
	Program    string
	Locations  int // checking locations compared
	Pairs      int // (mutant, injection) pairs
	Runs       int // total paired runs
	Equivalent int // runs where mutant and injection behaved identically
	// PerType counts equivalent/total runs per error type.
	PerType map[fault.ErrType]*PairCount
}

// PairCount is the equivalence tally of one error type.
type PairCount struct {
	Equivalent int
	Total      int
}

// Study compares, for nLocs checking locations of the program, the
// source-level mutant of each operator error type against the machine-level
// injection of the same error type into the unmutated binary. Perfect
// emulation means every paired run is identical — which is exactly what
// the §5 methodology claims for checking faults. The (mutant, injection)
// pairs run through campaign.CompareEmulations over workers (0 selects
// runtime.GOMAXPROCS(0)); the result is identical for any worker count.
func Study(p *programs.Program, nLocs, nCases int, seed int64, workers int) (*StudyResult, error) {
	c, err := p.Compile()
	if err != nil {
		return nil, err
	}
	cases, err := workload.Generate(p.Kind, nCases, seed)
	if err != nil {
		return nil, err
	}
	res := &StudyResult{
		Program: p.Name,
		PerType: make(map[fault.ErrType]*PairCount),
	}
	var pairs []campaign.EmulationPair
	chosen := locator.ChooseLocations(len(c.Debug.Checks), nLocs, seed)
	for _, li := range chosen {
		ck := c.Debug.Checks[li]
		mutants, err := OperatorMutants(p.Source, ck)
		if err != nil {
			return nil, err
		}
		if len(mutants) == 0 {
			continue
		}
		injections, err := locator.CheckingFaults(c, ck)
		if err != nil {
			return nil, err
		}
		byType := make(map[fault.ErrType]*fault.Fault)
		for i := range injections {
			byType[injections[i].ErrType] = &injections[i]
		}
		res.Locations++
		for mi := range mutants {
			m := &mutants[mi]
			inj, ok := byType[m.ErrType]
			if !ok {
				return nil, fmt.Errorf("mutation: no injection counterpart for %s at %d:%d", m.ErrType, m.Line, m.Col)
			}
			mc, err := m.Compile()
			if err != nil {
				return nil, err
			}
			pairs = append(pairs, campaign.EmulationPair{Ref: mc, Fault: inj})
		}
	}
	reps, err := campaign.CompareEmulations(c, pairs, injector.ModeHardware, cases, workers)
	if err != nil {
		return nil, err
	}
	res.Pairs = len(pairs)
	for i, rep := range reps {
		et := pairs[i].Fault.ErrType
		pc := res.PerType[et]
		if pc == nil {
			pc = &PairCount{}
			res.PerType[et] = pc
		}
		pc.Total += rep.Cases
		pc.Equivalent += rep.Equivalent
		res.Runs += rep.Cases
		res.Equivalent += rep.Equivalent
	}
	return res, nil
}
