package main

import (
	"os"
	"path/filepath"
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
