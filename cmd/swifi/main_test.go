package main

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/telemetry"
)

func TestRunList(t *testing.T) {
	if err := run([]string{"-list"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunVersion(t *testing.T) {
	if err := run([]string{"-version"}); err != nil {
		t.Fatal(err)
	}
}

// TestRunReportAndTrace: -report writes a readable JSON report stamped with
// the run's parameters, and -trace creates the JSONL sink, even for static
// experiments that spawn no campaign.
func TestRunReportAndTrace(t *testing.T) {
	dir := t.TempDir()
	repPath := filepath.Join(dir, "report.json")
	trPath := filepath.Join(dir, "trace.jsonl")
	if err := run([]string{"-report", repPath, "-trace", trPath, "table2"}); err != nil {
		t.Fatal(err)
	}
	rep, err := telemetry.ReadReport(repPath)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Tool != "swifi" {
		t.Errorf("report tool = %q, want swifi", rep.Tool)
	}
	if rep.Params["args"] != "table2" || rep.Params["seed"] != "2000" {
		t.Errorf("report params = %+v", rep.Params)
	}
	if _, err := os.Stat(trPath); err != nil {
		t.Errorf("trace sink not created: %v", err)
	}
}

func TestRunStaticExperiments(t *testing.T) {
	if err := run([]string{"table2", "table3", "fielddist"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunVerify(t *testing.T) {
	if err := run([]string{"-verify-cases", "2", "verify", "C.team4"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunErrors(t *testing.T) {
	if err := run([]string{}); err == nil {
		t.Error("no experiment accepted")
	}
	if err := run([]string{"table99"}); err == nil {
		t.Error("unknown experiment accepted")
	}
	if err := run([]string{"-mode", "zap", "table2"}); err == nil {
		t.Error("unknown mode accepted")
	}
	if err := run([]string{"verify"}); err == nil {
		t.Error("verify without program accepted")
	}
	if err := run([]string{"-progress", "sometimes", "table2"}); err == nil {
		t.Error("bad -progress value accepted")
	}
	for _, flag := range []string{"-proc-max-deliveries", "-proc-max-restarts"} {
		if err := run([]string{"-isolation", "proc", flag, "-1", "table2"}); err == nil {
			t.Errorf("negative %s accepted", flag)
		}
	}
}

// TestRunRejectsIgnoredIsolationFlags: isolation flags that cannot apply
// are refused with an error that names where they do apply, instead of
// being dropped while -report records them. table2 runs no campaign, so
// a run that accepted the flags would finish at once.
func TestRunRejectsIgnoredIsolationFlags(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-isolation", "proc", "-fabric-listen", "127.0.0.1:0", "table2"}, "-fabric-join"},
		{[]string{"-proc-max-deliveries", "5", "table2"}, "-isolation=proc"},
		{[]string{"-isolation", "inproc", "-proc-max-restarts", "5", "table2"}, "-isolation=proc"},
	} {
		err := run(tc.args)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("run(%q) = %v, want an error naming %s", tc.args, err, tc.want)
		}
	}
	// A run that accepted these would start a campaign, so the accepted
	// cases go to the validator alone.
	if err := validateArgs(true, false, "-proc-max-deliveries", "5", "-proc-max-restarts", "5", "fig9"); err != nil {
		t.Errorf("proc budgets with -isolation=proc refused: %v", err)
	}
}

// validateArgs runs validateIsolationFlags over args parsed by a flag set
// that knows the -proc-max-* flags.
func validateArgs(procIsolation, coordinator bool, args ...string) error {
	fs := flag.NewFlagSet("swifi", flag.ContinueOnError)
	fs.Int("proc-max-deliveries", 0, "")
	fs.Int("proc-max-restarts", 0, "")
	if err := fs.Parse(args); err != nil {
		return err
	}
	return validateIsolationFlags(fs, procIsolation, coordinator, fs.Args())
}

// TestRunRejectsIsolationWithoutCampaign: -isolation=proc and
// -fabric-listen apply only where a campaign runs units. A request whose
// experiments run none (verify, the studies, the static tables, and for
// the fabric also hwcompare, which stays local) is refused with an error
// naming the experiments that do, instead of running in-process while
// -report records "proc", or never listening while executors dial.
func TestRunRejectsIsolationWithoutCampaign(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-isolation", "proc", "-verify-cases", "5", "verify", "C.team4"}, "hwcompare"},
		{[]string{"-isolation", "proc", "table2", "triggers", "mutation"}, "fig7"},
		{[]string{"-fabric-listen", "127.0.0.1:0", "verify", "C.team4"}, "fig7"},
		{[]string{"-fabric-listen", "127.0.0.1:0", "hwcompare"}, "table4"},
	} {
		err := run(tc.args)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("run(%q) = %v, want an error naming %s", tc.args, err, tc.want)
		}
	}
	for _, tc := range []struct {
		procIsolation, coordinator bool
		ids                        []string
	}{
		{true, false, []string{"all"}},
		{true, false, []string{"table2", "hwcompare"}},
		{true, false, []string{"table1", "fig7", "triggers"}},
		{false, true, []string{"all"}},
		{false, true, []string{"table2", "fig10"}},
		{false, false, []string{"verify", "C.team4"}},
	} {
		if err := validateArgs(tc.procIsolation, tc.coordinator, tc.ids...); err != nil {
			t.Errorf("proc=%v coordinator=%v %q refused: %v", tc.procIsolation, tc.coordinator, tc.ids, err)
		}
	}
}
