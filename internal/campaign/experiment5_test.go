package campaign_test

import (
	"errors"
	"math"
	"strings"
	"testing"

	"repro/internal/campaign"
	"repro/internal/injector"
	"repro/internal/odc"
	"repro/internal/programs"
	"repro/internal/workload"
)

func mustProgram(t *testing.T, name string) *programs.Program {
	t.Helper()
	p, ok := programs.ByName(name)
	if !ok {
		t.Fatalf("program %s missing", name)
	}
	return p
}

func TestBuildEmulationVerdicts(t *testing.T) {
	tests := []struct {
		program    string
		odcType    odc.DefectType
		verdict    odc.EmulationVerdict
		hasFault   bool
		needsTraps bool
	}{
		{"C.team1", odc.Checking, odc.Emulable, true, false},
		{"C.team4", odc.Assignment, odc.Emulable, true, false},
		{"JB.team6", odc.Assignment, odc.EmulableWithSupport, true, true},
		{"C.team2", odc.Algorithm, odc.NotEmulable, false, false},
		{"C.team3", odc.Algorithm, odc.NotEmulable, false, false},
		{"C.team5", odc.Algorithm, odc.NotEmulable, false, false},
		{"JB.team7", odc.Algorithm, odc.NotEmulable, false, false},
	}
	for _, tt := range tests {
		t.Run(tt.program, func(t *testing.T) {
			em, err := campaign.BuildEmulation(mustProgram(t, tt.program))
			if err != nil {
				t.Fatal(err)
			}
			if em.ODCType != tt.odcType {
				t.Errorf("ODC type = %v, want %v", em.ODCType, tt.odcType)
			}
			if em.Verdict != tt.verdict {
				t.Errorf("verdict = %v, want %v", em.Verdict, tt.verdict)
			}
			if (em.Fault != nil) != tt.hasFault {
				t.Errorf("fault present = %v, want %v", em.Fault != nil, tt.hasFault)
			}
			if em.NeedsTraps != tt.needsTraps {
				t.Errorf("needsTraps = %v, want %v (triggers %d)", em.NeedsTraps, tt.needsTraps, em.Triggers)
			}
			if em.Evidence == "" {
				t.Error("no evidence recorded")
			}
		})
	}
}

// TestEmulationEquivalence is the heart of §5: for the emulable faults, the
// corrected binary plus the injected fault must behave exactly like the
// faulty binary — including on the inputs where the bug bites.
func TestEmulationEquivalence(t *testing.T) {
	for _, name := range []string{"C.team1", "C.team4"} {
		p := mustProgram(t, name)
		em, err := campaign.BuildEmulation(p)
		if err != nil {
			t.Fatal(err)
		}
		cases := campaign.ExposingCases(t, p)
		for _, s := range []campaign.Strategy{campaign.StrategyTextAtStart, campaign.StrategyFetchEveryExec} {
			t.Run(name+"/"+s.String(), func(t *testing.T) {
				rep, err := campaign.VerifyEmulation(p, em, s, injector.ModeHardware, cases)
				if err != nil {
					t.Fatal(err)
				}
				if rep.Equivalent != rep.Cases {
					t.Errorf("equivalent on %d of %d runs", rep.Equivalent, rep.Cases)
				}
				if rep.FaultShown == 0 {
					t.Error("no case exposed the fault; equivalence is vacuous")
				}
			})
		}
	}
}

// TestStackShiftEmulation reproduces the Figure 4 finding: the JB.team6
// stack-shift fault exceeds the two hardware breakpoint registers (point B
// of §5) but is fully emulable with trap-instruction triggers.
func TestStackShiftEmulation(t *testing.T) {
	p := mustProgram(t, "JB.team6")
	em, err := campaign.BuildEmulation(p)
	if err != nil {
		t.Fatal(err)
	}
	if em.Triggers <= 2 {
		t.Fatalf("stack shift needs %d triggers; expected more than the 2 IABRs", em.Triggers)
	}
	cases := campaign.ExposingCases(t, p)

	// Hardware mode must refuse to arm it.
	_, err = campaign.VerifyEmulation(p, em, campaign.StrategyFetchEveryExec, injector.ModeHardware, cases)
	if !errors.Is(err, injector.ErrOutOfBreakpoints) {
		t.Fatalf("hardware mode: got %v, want ErrOutOfBreakpoints", err)
	}

	// Trap mode reproduces the faulty behaviour exactly, including the
	// rare 80-character negative-seed failures.
	rep, err := campaign.VerifyEmulation(p, em, campaign.StrategyFetchEveryExec, injector.ModeTrap, cases)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Equivalent != rep.Cases {
		t.Errorf("equivalent on %d of %d runs", rep.Equivalent, rep.Cases)
	}
	if rep.FaultShown < 2 {
		t.Errorf("fault shown on %d cases, want the 2 crafted ones", rep.FaultShown)
	}
}

func TestAlgorithmFaultsNotEmulable(t *testing.T) {
	for _, name := range []string{"C.team2", "C.team3", "C.team5", "JB.team7"} {
		p := mustProgram(t, name)
		em, err := campaign.BuildEmulation(p)
		if err != nil {
			t.Fatal(err)
		}
		if em.Fault != nil {
			t.Errorf("%s: algorithm fault unexpectedly produced an emulation", name)
		}
		if !strings.Contains(em.Evidence, "instructions") {
			t.Errorf("%s: evidence %q does not describe the code-shape change", name, em.Evidence)
		}
		contest, err := workload.ContestCases(p.Kind)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := campaign.VerifyEmulation(p, em, campaign.StrategyFetchEveryExec, injector.ModeHardware, contest); err == nil {
			t.Errorf("%s: VerifyEmulation accepted a nil fault", name)
		}
	}
}

func TestSection5Summary(t *testing.T) {
	sum, err := campaign.BuildSection5Summary()
	if err != nil {
		t.Fatal(err)
	}
	if len(sum.Emulations) != 7 {
		t.Fatalf("summary covers %d faults, want 7", len(sum.Emulations))
	}
	if math.Abs(sum.NotEmulablePct-44.0) > 1.0 {
		t.Errorf("not-emulable share %.2f%%, want ≈44%%", sum.NotEmulablePct)
	}
	var total float64
	for _, share := range sum.ShareByVerdict {
		total += share
	}
	if total < 90 || total > 100 {
		t.Errorf("verdict shares sum to %.2f", total)
	}
	counts := map[odc.EmulationVerdict]int{}
	for _, em := range sum.Emulations {
		counts[em.Verdict]++
	}
	if counts[odc.Emulable] != 2 || counts[odc.EmulableWithSupport] != 1 || counts[odc.NotEmulable] != 4 {
		t.Errorf("verdict counts = %v, want A=2 B=1 C=4", counts)
	}
}
