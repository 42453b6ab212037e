package campaign

import (
	"reflect"
	"testing"

	"repro/internal/injector"
)

// TestInterpOnlyCampaignEquivalence is the engine A/B gate: a campaign whose
// executor pools force every machine onto step (vm.(*Machine).SetInterpOnly,
// the reference semantics) must produce a deep-equal Result to the default
// block-compiled Run. The engine may only change speed, never verdicts. Both
// trigger modes are covered, since the hardware mode leans on IABR arming
// mid-run and the trap mode on ExecuteInjected, the two paths where the
// block engine most aggressively bails to step.
func TestInterpOnlyCampaignEquivalence(t *testing.T) {
	for _, mode := range []injector.Mode{injector.ModeHardware, injector.ModeTrap} {
		base := Config{
			Programs:      []string{"JB.team11", "JB.team6"},
			CasesPerFault: 4,
			ChosenAssign:  map[string]int{"JB.team11": 3, "JB.team6": 3},
			ChosenCheck:   map[string]int{"JB.team11": 3, "JB.team6": 3},
			Seed:          5,
			Mode:          mode,
		}

		compiled, err := Run(base)
		if err != nil {
			t.Fatalf("mode %v: %v", mode, err)
		}

		// The reference side plans the same campaign and executes its
		// units with the pools' interpOnly option set.
		interp := base
		pc, err := planCampaign(&interp)
		if err != nil {
			t.Fatalf("mode %v: %v", mode, err)
		}
		outcomes, err := executeUnitsOpts(execOpts{workers: interp.Workers, interpOnly: true}, pc.units)
		if err != nil {
			t.Fatalf("mode %v: %v", mode, err)
		}
		foldOutcomes(pc.res, pc.entryList, pc.units, outcomes)
		ref := pc.res

		if !reflect.DeepEqual(compiled.Entries, ref.Entries) {
			t.Errorf("mode %v: Entries differ between engines:\nblock: %+v\nstep:  %+v", mode, compiled.Entries, ref.Entries)
		}
		if !reflect.DeepEqual(compiled.Plans, ref.Plans) {
			t.Errorf("mode %v: Plans differ between engines", mode)
		}
		if compiled.Runs != ref.Runs {
			t.Errorf("mode %v: Runs differ: block %d, step %d", mode, compiled.Runs, ref.Runs)
		}
		if compiled.Runs == 0 {
			t.Fatalf("mode %v: campaign executed zero runs; the equivalence check is vacuous", mode)
		}
	}
}
