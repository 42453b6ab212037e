package mutation_test

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/cc"
	"repro/internal/fault"
	"repro/internal/mutation"
	"repro/internal/programs"
)

const mutProbe = `int main() {
    int i;
    int n = 0;
    for (i = 0; i < 10; i++) {
        if (i != 3) {
            n = n + 1;
        }
    }
    print_int(n);
    return 0;
}`

func TestOperatorMutants(t *testing.T) {
	c, err := cc.Compile(mutProbe)
	if err != nil {
		t.Fatal(err)
	}
	var ltCheck, neCheck *cc.CheckInfo
	for i := range c.Debug.Checks {
		switch c.Debug.Checks[i].Op {
		case "<":
			ltCheck = &c.Debug.Checks[i]
		case "!=":
			neCheck = &c.Debug.Checks[i]
		}
	}
	if ltCheck == nil || neCheck == nil {
		t.Fatal("checks not found")
	}

	muts, err := mutation.OperatorMutants(mutProbe, *ltCheck)
	if err != nil {
		t.Fatal(err)
	}
	if len(muts) != 1 || muts[0].ErrType != fault.ErrLtLe {
		t.Fatalf("mutants for < = %+v", muts)
	}
	if !strings.Contains(muts[0].Source, "i <= 10") {
		t.Errorf("mutant source does not contain the swap:\n%s", muts[0].Source)
	}
	if strings.Contains(muts[0].Source, "i < 10") {
		t.Errorf("original operator still present")
	}

	muts, err = mutation.OperatorMutants(mutProbe, *neCheck)
	if err != nil {
		t.Fatal(err)
	}
	if len(muts) != 1 || muts[0].ErrType != fault.ErrNeEq {
		t.Fatalf("mutants for != = %+v", muts)
	}
	if !strings.Contains(muts[0].Source, "i == 3") {
		t.Errorf("!= mutant wrong:\n%s", muts[0].Source)
	}
	if _, err := muts[0].Compile(); err != nil {
		t.Errorf("mutant does not compile: %v", err)
	}
}

func TestOperatorMutantsPositionMismatch(t *testing.T) {
	ck := cc.CheckInfo{Op: "<", Line: 1, Col: 1}
	if _, err := mutation.OperatorMutants(mutProbe, ck); err == nil {
		t.Fatal("mismatched position accepted")
	}
	ck = cc.CheckInfo{Op: "<", Line: 999, Col: 1}
	if _, err := mutation.OperatorMutants(mutProbe, ck); err == nil {
		t.Fatal("out-of-range line accepted")
	}
}

func TestOperatorMutantsSkipsConnectives(t *testing.T) {
	muts, err := mutation.OperatorMutants(mutProbe, cc.CheckInfo{Op: "truth"})
	if err != nil || muts != nil {
		t.Fatalf("truth checks should yield no mutants (got %v, %v)", muts, err)
	}
}

// TestMutationInjectionEquivalence is the abstraction-gap theorem of the
// reproduction: for operator error types, compiling the bug into the
// source and injecting it into the correct binary are behaviourally
// indistinguishable, run by run. The study must also be deep-equal at 1
// and 4 workers.
func TestMutationInjectionEquivalence(t *testing.T) {
	nCases := 12
	if testing.Short() {
		nCases = 3
	}
	for _, name := range []string{"JB.team11", "JB.team6"} {
		p, ok := programs.ByName(name)
		if !ok {
			t.Fatal(name)
		}
		res, err := mutation.Study(p, 6, nCases, 7, 1)
		if err != nil {
			t.Fatal(err)
		}
		wide, err := mutation.Study(p, 6, nCases, 7, 4)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(res, wide) {
			t.Errorf("%s: study differs between 1 and 4 workers:\nserial: %+v\nwide:   %+v", name, res, wide)
		}
		if res.Pairs == 0 {
			t.Fatalf("%s: no mutant/injection pairs", name)
		}
		if res.Equivalent != res.Runs {
			t.Errorf("%s: %d/%d paired runs equivalent; machine-level emulation of checking faults must be exact",
				name, res.Equivalent, res.Runs)
			for et, pc := range res.PerType {
				if pc.Equivalent != pc.Total {
					t.Logf("  %s: %d/%d", et, pc.Equivalent, pc.Total)
				}
			}
		}
	}
}
