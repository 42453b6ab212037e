package programs_test

import (
	"strings"
	"testing"

	"repro/internal/campaign"
	"repro/internal/programs"
	"repro/internal/vm"
	"repro/internal/workload"
)

func TestRegistryShape(t *testing.T) {
	all := programs.All()
	if len(all) != 14 {
		t.Fatalf("suite has %d programs, want 14", len(all))
	}
	if len(programs.Table4Programs()) != 8 {
		t.Error("Table 4 needs 8 programs")
	}
	if len(programs.RealFaultPrograms()) != 7 {
		t.Error("Table 1 needs 7 real-fault programs")
	}
	seen := map[string]bool{}
	for _, p := range all {
		if seen[p.Name] {
			t.Errorf("duplicate program %s", p.Name)
		}
		seen[p.Name] = true
		if p.LineCount() < 30 {
			t.Errorf("%s suspiciously small: %d lines", p.Name, p.LineCount())
		}
	}
	if _, ok := programs.ByName("C.team1"); !ok {
		t.Error("ByName(C.team1) failed")
	}
	if _, ok := programs.ByName("nope"); ok {
		t.Error("ByName(nope) succeeded")
	}
}

func TestAllProgramsCompile(t *testing.T) {
	for _, p := range programs.All() {
		if _, err := p.Compile(); err != nil {
			t.Errorf("%s: %v", p.Name, err)
		}
		if p.Fault != nil {
			if _, err := p.CompileFaulty(); err != nil {
				t.Errorf("%s faulty: %v", p.Name, err)
			}
		}
	}
}

func TestFaultySourceDiffers(t *testing.T) {
	for _, p := range programs.RealFaultPrograms() {
		src, err := p.FaultySource()
		if err != nil {
			t.Errorf("%s: %v", p.Name, err)
			continue
		}
		if src == p.Source {
			t.Errorf("%s: faulty source identical to corrected source", p.Name)
		}
	}
	sor, _ := programs.ByName("SOR")
	if _, err := sor.FaultySource(); err == nil {
		t.Error("SOR has no real fault; FaultySource should fail")
	}
}

// runCases executes a compiled program over the cases and returns the
// failure-mode counts.
func runCases(t *testing.T, p *programs.Program, faulty bool, cases []workload.Case) map[campaign.FailureMode]int {
	t.Helper()
	compiled, err := p.Compile()
	if faulty {
		compiled, err = p.CompileFaulty()
	}
	if err != nil {
		t.Fatal(err)
	}
	results, err := campaign.RunCleanBatch(compiled, cases, vm.DefaultMaxCycles, 0)
	if err != nil {
		t.Fatalf("%s: %v", p.Name, err)
	}
	counts := map[campaign.FailureMode]int{}
	for i, res := range results {
		if res.Mode == campaign.Incorrect && !faulty {
			t.Fatalf("%s (corrected) wrong on case %d:\ninput %v\ngot %q\nwant %q",
				p.Name, i, cases[i].Input.Ints, truncate(res.Output), truncate(cases[i].Golden))
		}
		counts[res.Mode]++
	}
	return counts
}

func truncate(s string) string {
	if len(s) > 200 {
		return s[:200] + "..."
	}
	return s
}

// TestCorrectedProgramsMatchOracle is the suite's ground truth: every
// corrected program must agree with its specification oracle on random
// inputs (the contest "acceptance" property).
func TestCorrectedProgramsMatchOracle(t *testing.T) {
	nCases := 30
	if testing.Short() {
		nCases = 6
	}
	for _, p := range programs.All() {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			cases, err := workload.Generate(p.Kind, nCases, 7)
			if err != nil {
				t.Fatal(err)
			}
			counts := runCases(t, p, false, cases)
			if counts[campaign.Correct] != len(cases) {
				t.Errorf("correct runs = %d of %d (%v)", counts[campaign.Correct], len(cases), counts)
			}
		})
	}
}

// TestFaultyProgramsPassContestTestCase mirrors the paper's setup: the
// faulty programs passed the (small) contest test case — the seeded bugs
// are subtle enough to slip through a handful of inputs.
func TestFaultyProgramsPassContestTestCase(t *testing.T) {
	for _, p := range programs.RealFaultPrograms() {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			cases, err := workload.ContestCases(p.Kind)
			if err != nil {
				t.Fatal(err)
			}
			counts := runCases(t, p, true, cases)
			if counts[campaign.Correct] != len(cases) {
				t.Errorf("faulty %s failed the contest test case (%v); the fault is not subtle enough",
					p.Name, counts)
			}
		})
	}
}

// TestFaultyProgramsFailIntensiveTest is Table 1's premise: under an
// intensive random test every faulty program eventually produces wrong
// results, and only wrong results (no hangs or crashes were observed for
// the real faults in the paper).
func TestFaultyProgramsFailIntensiveTest(t *testing.T) {
	if testing.Short() {
		t.Skip("intensive test needs many runs")
	}
	// Failure probabilities differ by orders of magnitude (Table 1), so
	// each program gets a case budget sized to its expected rarity.
	budgets := map[string]int{
		"C.team1":  400,
		"C.team2":  60,
		"C.team3":  200,
		"C.team4":  60,
		"C.team5":  200,
		"JB.team6": 4000,
		"JB.team7": 400,
	}
	for _, p := range programs.RealFaultPrograms() {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			cases, err := workload.Generate(p.Kind, budgets[p.Name], 99)
			if err != nil {
				t.Fatal(err)
			}
			counts := runCases(t, p, true, cases)
			if counts[campaign.Incorrect] == 0 {
				t.Errorf("faulty %s never failed in %d runs; real fault not exposed", p.Name, len(cases))
			}
			if counts[campaign.Hang] != 0 || counts[campaign.Crash] != 0 {
				t.Errorf("faulty %s hung/crashed (%v); the paper's real faults only produced wrong results", p.Name, counts)
			}
			t.Logf("%s: %.2f%% wrong results (%d/%d)", p.Name,
				100*float64(counts[campaign.Incorrect])/float64(len(cases)),
				counts[campaign.Incorrect], len(cases))
		})
	}
}

func TestOracleInputValidation(t *testing.T) {
	if _, err := programs.CamelotSolve(programs.Input{Ints: []int32{1, 0}}); err == nil {
		t.Error("camelot accepted truncated input")
	}
	if _, err := programs.CamelotSolve(programs.Input{Ints: []int32{99, 0, 0}}); err == nil {
		t.Error("camelot accepted 99 knights")
	}
	if _, err := programs.CamelotSolve(programs.Input{Ints: []int32{1, 0, 0, 9, 9}}); err == nil {
		t.Error("camelot accepted off-board knight")
	}
	if _, err := programs.JamesBSolve(programs.Input{Ints: []int32{1}}); err == nil {
		t.Error("jamesb accepted truncated input")
	}
	if _, err := programs.JamesBSolve(programs.Input{Ints: []int32{1, 10}, Bytes: []byte("ab")}); err == nil {
		t.Error("jamesb accepted length > bytes")
	}
	if _, err := programs.SORSolve(programs.Input{Ints: []int32{1}}); err == nil {
		t.Error("sor accepted truncated input")
	}
	if _, err := programs.SORSolve(programs.Input{Ints: []int32{999, 1, 1, 1, 1}}); err == nil {
		t.Error("sor accepted huge iteration count")
	}
}

func TestCamelotOracleKnownValues(t *testing.T) {
	tests := []struct {
		name string
		ints []int32
		want string
	}{
		{"king alone", []int32{0, 3, 3}, "0\n"},
		{"knight on king square", []int32{1, 2, 2, 2, 2}, "0\n"},
		{"knight one move away, gather there", []int32{1, 1, 2, 3, 3}, "1\n"},
		{"king adjacent, no knight", []int32{0, 0, 0}, "0\n"},
	}
	for _, tt := range tests {
		got, err := programs.CamelotSolve(programs.Input{Ints: tt.ints})
		if err != nil {
			t.Fatalf("%s: %v", tt.name, err)
		}
		if got != tt.want {
			t.Errorf("%s: got %q, want %q", tt.name, got, tt.want)
		}
	}
}

func TestJamesBOracleKnownValues(t *testing.T) {
	// seed 0: shift at position i is (7i) mod 26.
	got, err := programs.JamesBSolve(programs.Input{Ints: []int32{0, 3}, Bytes: []byte("abz")})
	if err != nil {
		t.Fatal(err)
	}
	// a+0=a, b+7=i, z+14=n
	if got != "ain\n" {
		t.Errorf("got %q, want \"ain\\n\"", got)
	}
	// Negative seed: -1 -> shift (26-1)=25 at i=0.
	got, err = programs.JamesBSolve(programs.Input{Ints: []int32{-1, 2}, Bytes: []byte("aA")})
	if err != nil {
		t.Fatal(err)
	}
	// a+25=z, A+(25+7)%26=A+6=G
	if got != "zG\n" {
		t.Errorf("got %q, want \"zG\\n\"", got)
	}
	// Non-letters pass through.
	got, err = programs.JamesBSolve(programs.Input{Ints: []int32{5, 4}, Bytes: []byte("a.1!")})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(got, "f.1!") {
		t.Errorf("got %q, want prefix \"f.1!\"", got)
	}
}

func TestSOROracleProperties(t *testing.T) {
	// Zero boundary, any iterations: interior stays zero, residual zero.
	out, err := programs.SORSolve(programs.Input{Ints: []int32{5, 0, 0, 0, 0}})
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		if line != "0" {
			t.Fatalf("zero boundary produced %q", line)
		}
	}
	// Uniform boundary v: the interior converges toward v*16; after some
	// iterations every interior value is within [0, v*16].
	out, err = programs.SORSolve(programs.Input{Ints: []int32{12, 100, 100, 100, 100}})
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	// 256 interior + 12 residual history + min, max, avg, checksum, residual.
	if len(lines) != 273 {
		t.Fatalf("got %d output lines, want 273", len(lines))
	}
}
