// Package campaign is the experiment-management layer (the paper's
// "Experiment Management software"): it executes target programs on fresh
// virtual machines, arms faults through the injector, collects outcomes and
// classifies them into the paper's failure modes, and drives the §5
// equivalence experiments and §6 class campaigns.
package campaign

import (
	"fmt"

	"repro/internal/golden"
	"repro/internal/vm"
)

// FailureMode is the outcome classification of one run (§6.2).
type FailureMode int

// Failure modes, in the order of the paper's figures. HostFault is not a
// paper mode: it marks a unit whose *host-side* execution failed — the
// interpreter or injector panicked twice, or the unit exceeded its
// wall-clock deadline — and was quarantined so the campaign could finish.
// Target programs can never produce it; any non-zero HostFault count in a
// result points at a bug in this repository, not in the target.
const (
	Correct   FailureMode = iota + 1 // terminated normally, output correct
	Incorrect                        // terminated normally, output wrong
	Hang                             // watchdog expired (dead loop)
	Crash                            // terminated abnormally (hardware exception)
	HostFault                        // host-side failure, unit quarantined (not a paper mode)
)

var modeNames = map[FailureMode]string{
	Correct:   "correct",
	Incorrect: "incorrect",
	Hang:      "hang",
	Crash:     "crash",
	HostFault: "hostfault",
}

// String names the failure mode.
func (f FailureMode) String() string {
	if s, ok := modeNames[f]; ok {
		return s
	}
	return fmt.Sprintf("mode(%d)", int(f))
}

// Modes lists the failure modes in presentation order.
func Modes() []FailureMode { return []FailureMode{Correct, Incorrect, Hang, Crash} }

// RunResult is the outcome of a single program run.
type RunResult struct {
	Mode        FailureMode
	State       vm.State
	Exc         vm.Exc
	Output      string
	Cycles      uint64
	Activations uint64 // 0 for clean runs
	ExitStatus  int32
}

// classify maps a finished machine plus the golden output to a failure
// mode. A normal termination with a non-zero exit status counts as a crash
// (the system detected an error), matching the paper's "program terminated
// abnormally" category.
func classify(m *vm.Machine, golden string) RunResult {
	res := RunResult{
		State:      m.State(),
		Output:     string(m.Output()),
		Cycles:     m.Cycles(),
		ExitStatus: m.ExitStatus(),
	}
	res.Exc, _ = m.Exception()
	res.Mode = classifyMode(res.State, res.ExitStatus, res.Output, golden)
	return res
}

// classifyMode is the failure-mode decision shared by classify and the
// golden-record shortcut.
func classifyMode(state vm.State, exit int32, output, golden string) FailureMode {
	switch state {
	case vm.StateHung:
		return Hang
	case vm.StateCrashed:
		return Crash
	case vm.StateHalted:
		switch {
		case exit != 0:
			return Crash
		case output == golden:
			return Correct
		default:
			return Incorrect
		}
	default:
		return Crash
	}
}

// resultFromRecord rebuilds the RunResult of a run that was never executed
// because its fault is dormant: the outcome is the golden run's, classified
// against the oracle exactly as classify would.
func resultFromRecord(rec *golden.Record, goldenOut string) RunResult {
	return RunResult{
		Mode:       classifyMode(rec.State, rec.ExitStatus, rec.Output, goldenOut),
		State:      rec.State,
		Exc:        rec.Exc,
		Output:     rec.Output,
		Cycles:     rec.Cycles,
		ExitStatus: rec.ExitStatus,
	}
}
