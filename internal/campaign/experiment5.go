package campaign

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"repro/internal/cc"
	"repro/internal/fault"
	"repro/internal/golden"
	"repro/internal/injector"
	"repro/internal/locator"
	"repro/internal/odc"
	"repro/internal/programs"
	"repro/internal/vm"
	"repro/internal/workload"
)

// This file implements the paper's first experiment (§5): for each real
// software fault, attempt to build an equivalent Xception-style injection
// on the corrected binary and verify that the injected runs reproduce the
// faulty program's behaviour exactly.

// Strategy selects one of the two emulation strategies shown in the paper's
// Figures 3 and 5.
type Strategy int

// Emulation strategies.
const (
	// StrategyTextAtStart plants the corruption permanently in instruction
	// memory before the program runs ("opcode fetch from the first program
	// code address ... error inserted in memory", strategy 1).
	StrategyTextAtStart Strategy = iota + 1
	// StrategyFetchEveryExec corrupts the fetched instruction word on every
	// execution, leaving memory intact ("changing the fetched operand every
	// time the instruction is executed", strategy 2).
	StrategyFetchEveryExec
)

// String names the strategy.
func (s Strategy) String() string {
	switch s {
	case StrategyTextAtStart:
		return "persistent instruction-memory corruption at start"
	case StrategyFetchEveryExec:
		return "transient fetch-bus corruption on every execution"
	}
	return fmt.Sprintf("strategy(%d)", int(s))
}

// Emulation is the result of analysing one real fault for emulability.
type Emulation struct {
	Program  string
	ODCType  odc.DefectType
	Verdict  odc.EmulationVerdict
	Fault    *fault.Fault // nil when the fault is not emulable
	Triggers int          // distinct trigger addresses the fault needs
	// NeedsTraps is true when the fault exceeds the hardware breakpoint
	// budget and can only be armed in trap mode (the paper's category B).
	NeedsTraps bool
	Evidence   string
}

// lineOf returns the 1-based line number at which fragment starts in src,
// or 0 if absent.
func lineOf(src, fragment string) int {
	i := strings.Index(src, fragment)
	if i < 0 {
		return 0
	}
	return 1 + strings.Count(src[:i], "\n")
}

// BuildEmulation analyses one real-fault program and constructs the
// injected-fault emulation where the paper found one to exist.
func BuildEmulation(p *programs.Program) (*Emulation, error) {
	if p.Fault == nil {
		return nil, fmt.Errorf("campaign: %s has no real fault", p.Name)
	}
	em := &Emulation{
		Program: p.Name,
		ODCType: p.Fault.ODCType,
		Verdict: odc.VerdictFor(p.Fault.ODCType),
	}
	correct, err := p.Compile()
	if err != nil {
		return nil, err
	}
	faulty, err := p.CompileFaulty()
	if err != nil {
		return nil, err
	}

	switch p.Name {
	case "C.team1":
		// Checking fault: ">=" shipped as ">" — a single bc-condition
		// rewrite (Figure 5).
		f, err := emulateCheckMutation(correct, p, fault.ErrGeGt)
		if err != nil {
			return nil, err
		}
		em.Fault = f
	case "C.team4":
		// Assignment fault in a for-init: 0 shipped as 1 — the value+1
		// error type on the initialising store (Figure 3).
		f, err := emulateAssignMutation(correct, p, fault.ErrValuePlusOne)
		if err != nil {
			return nil, err
		}
		em.Fault = f
	case "JB.team6":
		// Stack-shift assignment fault (Figure 4).
		f, err := locator.StackShiftFault(correct, faulty, "main")
		if err != nil {
			return nil, err
		}
		em.Fault = f
		em.Verdict = odc.EmulableWithSupport
	default:
		// Algorithm faults: the corrective diff changes the shape of the
		// generated code; no What/Where corruption set reproduces it.
		em.Evidence = algorithmEvidence(correct, faulty)
		return em, nil
	}

	em.Fault.Where.Program = p.Name
	em.Triggers = len(em.Fault.TriggerAddrs())
	em.NeedsTraps = em.Triggers > vm.NumIABR
	if em.NeedsTraps {
		em.Verdict = odc.EmulableWithSupport
		em.Evidence = fmt.Sprintf("needs %d trigger addresses; the processor has %d breakpoint registers",
			em.Triggers, vm.NumIABR)
	} else {
		em.Evidence = fmt.Sprintf("single-location corruption (%d trigger address)", em.Triggers)
	}
	return em, nil
}

// emulateCheckMutation finds the checking location of the program's real
// fault and returns the operator-mutation fault of the given error type.
func emulateCheckMutation(c *cc.Compiled, p *programs.Program, et fault.ErrType) (*fault.Fault, error) {
	line := lineOf(p.Source, p.Fault.CorrectCode)
	if line == 0 {
		return nil, fmt.Errorf("campaign: %s: corrective fragment not found", p.Name)
	}
	var pick *cc.CheckInfo
	for i := range c.Debug.Checks {
		ck := &c.Debug.Checks[i]
		if ck.Line != line {
			continue
		}
		if _, ok := fault.OperatorMutations(ck.Op)[et]; !ok {
			continue
		}
		if pick == nil || ck.Col < pick.Col {
			pick = ck
		}
	}
	if pick == nil {
		return nil, fmt.Errorf("campaign: %s: no mutable check on line %d", p.Name, line)
	}
	faults, err := locator.CheckingFaults(c, *pick)
	if err != nil {
		return nil, err
	}
	for i := range faults {
		if faults[i].ErrType == et {
			f := faults[i]
			f.ID = fmt.Sprintf("%s/real/%s", p.Name, et)
			return &f, nil
		}
	}
	return nil, fmt.Errorf("campaign: %s: error type %s not applicable at line %d", p.Name, et, line)
}

// emulateAssignMutation finds the assignment location of the program's real
// fault and returns the value-mutation fault of the given error type.
func emulateAssignMutation(c *cc.Compiled, p *programs.Program, et fault.ErrType) (*fault.Fault, error) {
	line := lineOf(p.Source, p.Fault.CorrectCode)
	if line == 0 {
		return nil, fmt.Errorf("campaign: %s: corrective fragment not found", p.Name)
	}
	for _, a := range c.Debug.Assigns {
		if a.Line == line && a.InLoopHeader {
			f, err := locator.AssignmentFault(a, et, fault.Location{
				Program: p.Name, Func: a.Func, Line: a.Line, Detail: a.LHS,
			}, 0)
			if err != nil {
				return nil, err
			}
			f.ID = fmt.Sprintf("%s/real/%s", p.Name, et)
			return f, nil
		}
	}
	return nil, fmt.Errorf("campaign: %s: no loop-header assignment on line %d", p.Name, line)
}

// algorithmEvidence summarises why an algorithm fault defeats machine-level
// emulation: the faulty and corrected binaries differ structurally, not by
// an operand or operator.
func algorithmEvidence(correct, faulty *cc.Compiled) string {
	ct := len(correct.Prog.Image.Text)
	ft := len(faulty.Prog.Image.Text)
	diff := 0
	n := ct
	if ft < n {
		n = ft
	}
	for i := 0; i < n; i++ {
		if correct.Prog.Image.Text[i] != faulty.Prog.Image.Text[i] {
			diff++
		}
	}
	diff += ct - n + ft - n
	return fmt.Sprintf("code shape changes: %d vs %d instructions, %d words differ", ct, ft, diff)
}

// EquivalenceReport is the outcome of verifying one emulation against the
// real faulty program.
type EquivalenceReport struct {
	Program    string
	Strategy   Strategy
	Mode       injector.Mode
	Cases      int
	Equivalent int // runs where the injected run reproduced the faulty run exactly
	FaultShown int // runs where the real fault changed the output (the interesting cases)
}

// applyStrategy converts the default fault into the requested strategy.
// StrategyTextAtStart rewrites instruction memory once, before execution:
// for fetch corruptions it plants the same word persistently; for the
// value±1 assignment error types it edits the immediate of the constant-
// producing addi, exactly as the paper's Figure 3 strategy 1 does.
func applyStrategy(c *cc.Compiled, f *fault.Fault, s Strategy) (*fault.Fault, error) {
	switch s {
	case StrategyFetchEveryExec:
		return f, nil
	case StrategyTextAtStart:
		if len(f.Corruptions) != 1 {
			return nil, fmt.Errorf("campaign: strategy 1 needs a single corruption, fault %s has %d", f.ID, len(f.Corruptions))
		}
		corr := f.Corruptions[0]
		g := *f
		g.Trigger = fault.Trigger{Kind: fault.TriggerAtStart}
		switch corr.Kind {
		case fault.CorruptFetch:
			g.Corruptions = []fault.Corruption{{
				Kind: fault.CorruptText, Addr: corr.Addr, NewWord: corr.NewWord,
			}}
			return &g, nil
		case fault.CorruptStoreData:
			if corr.Op != fault.ValPlusOne && corr.Op != fault.ValMinusOne {
				return nil, fmt.Errorf("campaign: strategy 1 cannot express store transform %d in memory", corr.Op)
			}
			// The instruction before the store must be the addi that
			// materialises the assigned constant.
			w, err := c.Prog.ReadTextWord(corr.Addr - vm.WordSize)
			if err != nil {
				return nil, err
			}
			in, err := vm.Decode(w)
			if err != nil || in.Op != vm.OpAddi || in.RA != vm.RegZero {
				return nil, fmt.Errorf("campaign: strategy 1 needs a constant assignment; %#x does not hold one", corr.Addr-vm.WordSize)
			}
			if corr.Op == fault.ValPlusOne {
				in.Imm++
			} else {
				in.Imm--
			}
			g.Corruptions = []fault.Corruption{{
				Kind: fault.CorruptText, Addr: corr.Addr - vm.WordSize, NewWord: vm.Encode(in),
			}}
			return &g, nil
		}
		return nil, fmt.Errorf("campaign: strategy 1 cannot express corruption kind %v", corr.Kind)
	}
	return nil, fmt.Errorf("campaign: unknown strategy %d", s)
}

// VerifyEmulation runs the faulty binary and the corrected-binary-plus-
// injection side by side over the cases and counts exact behavioural
// matches ("if the results are the same in both runs it means Xception do
// emulate the fault accurately"). The case pairs fan out over
// runtime.GOMAXPROCS(0) workers; see VerifyEmulationWorkers.
func VerifyEmulation(p *programs.Program, em *Emulation, s Strategy, mode injector.Mode, cases []workload.Case) (*EquivalenceReport, error) {
	return VerifyEmulationWorkers(p, em, s, mode, cases, 0)
}

// VerifyEmulationWorkers is VerifyEmulation with an explicit worker count
// (0 selects runtime.GOMAXPROCS(0), 1 the serial path): CompareEmulations
// of the one pair (faulty binary, strategy-applied emulation).
func VerifyEmulationWorkers(p *programs.Program, em *Emulation, s Strategy, mode injector.Mode, cases []workload.Case, workers int) (*EquivalenceReport, error) {
	if em.Fault == nil {
		return nil, fmt.Errorf("campaign: %s is not emulable", p.Name)
	}
	correct, err := p.Compile()
	if err != nil {
		return nil, err
	}
	faulty, err := p.CompileFaulty()
	if err != nil {
		return nil, err
	}
	f, err := applyStrategy(correct, em.Fault, s)
	if err != nil {
		return nil, err
	}
	reps, err := CompareEmulations(correct, []EmulationPair{{Ref: faulty, Fault: f}}, mode, cases, workers)
	if err != nil {
		return nil, err
	}
	reps[0].Program, reps[0].Strategy = p.Name, s
	return &reps[0], nil
}

// EmulationPair is one emulation to verify: a reference binary — a real
// faulty program, or a source-level mutant — and the fault that should
// reproduce its behaviour when injected into the correct binary.
type EmulationPair struct {
	Ref   *cc.Compiled
	Fault *fault.Fault
}

// CompareEmulations is the study path: one report per pair, in pair order,
// each counting the cases on which a clean run of the pair's reference and
// an injected run of correct end in the same failure mode with the same
// output. Injected runs are executor units at the fixed vm.DefaultMaxCycles
// watchdog (fast-forward, lean arming, the periodic-tail skip, checkpoint
// verification, the panic guard). Runs fan out over workers (0 selects
// runtime.GOMAXPROCS(0)) and fold in pair, then case order, so the reports
// are identical for any worker count. A report is named after its fault's
// program and carries no Strategy.
func CompareEmulations(correct *cc.Compiled, pairs []EmulationPair, mode injector.Mode, cases []workload.Case, workers int) ([]EquivalenceReport, error) {
	faults := make([]fault.Fault, len(pairs))
	for i := range pairs {
		faults[i] = *pairs[i].Fault
	}
	// The study's records live in a store of its own, dropped with it: a
	// golden.Store key leaves out the budget, and a campaign's calibrated
	// budget for the same cached cases differs from the study's watchdog.
	gold := newGoldenSource(golden.NewStore(), faults)
	type pairRun struct{ equivalent, faultShown bool }
	n := len(cases)
	runs, err := pooledMap(context.Background(), workers, len(pairs)*n, func(p *machinePool, k int) (pairRun, error) {
		pr, ci := &pairs[k/n], k%n
		ref, err := p.runClean(pr.Ref, &cases[ci], vm.DefaultMaxCycles)
		if err != nil {
			return pairRun{}, err
		}
		u := &runUnit{
			program: pr.Fault.Where.Program, c: correct, f: pr.Fault,
			cs: &cases[ci], caseIx: ci,
			budget: vm.DefaultMaxCycles, mode: mode, gold: gold,
		}
		inj, err := runUnitGuarded(p, u, 1)
		if err != nil {
			return pairRun{}, fmt.Errorf("campaign: %s case %d: %w", pr.Fault.ID, ci, err)
		}
		return pairRun{
			equivalent: ref.Mode == inj.Mode && ref.Output == inj.Output,
			faultShown: ref.Mode != Correct,
		}, nil
	})
	if err != nil {
		return nil, err
	}
	reps := make([]EquivalenceReport, len(pairs))
	for i := range reps {
		reps[i] = EquivalenceReport{Program: pairs[i].Fault.Where.Program, Mode: mode, Cases: n}
	}
	for k, r := range runs {
		rep := &reps[k/n]
		if r.equivalent {
			rep.Equivalent++
		}
		if r.faultShown {
			rep.FaultShown++
		}
	}
	return reps, nil
}

// Section5Summary aggregates the §5 verdicts plus the field-data share they
// cover, reproducing the paper's A/B/C conclusion and the ≈44% figure.
type Section5Summary struct {
	Emulations []Emulation
	// ShareByVerdict maps each verdict to the percentage of field faults
	// (per the ODC field distribution) whose defect type gets it.
	ShareByVerdict map[odc.EmulationVerdict]float64
	NotEmulablePct float64
}

// BuildSection5Summary analyses every real-fault program.
func BuildSection5Summary() (*Section5Summary, error) {
	sum := &Section5Summary{
		ShareByVerdict: make(map[odc.EmulationVerdict]float64),
		NotEmulablePct: odc.NotEmulableShare(),
	}
	for _, p := range programs.RealFaultPrograms() {
		em, err := BuildEmulation(p)
		if err != nil {
			return nil, fmt.Errorf("campaign: %s: %w", p.Name, err)
		}
		sum.Emulations = append(sum.Emulations, *em)
	}
	for _, fs := range odc.FieldDistribution() {
		sum.ShareByVerdict[odc.VerdictFor(fs.Type)] += fs.Share
	}
	sort.Slice(sum.Emulations, func(i, j int) bool {
		return sum.Emulations[i].Program < sum.Emulations[j].Program
	})
	return sum, nil
}
