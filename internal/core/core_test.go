package core_test

import (
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
)

// tiny returns an engine small enough for unit tests.
func tiny() *core.Engine {
	e := core.New(0.01)
	return e
}

var (
	campaignOnce   sync.Once
	campaignEngine *core.Engine
)

// campaignTiny returns the one tiny engine the campaign tests share, built
// once, so the scale-0.01 §6 campaign it caches runs once per test binary.
func campaignTiny() *core.Engine {
	campaignOnce.Do(func() { campaignEngine = tiny() })
	return campaignEngine
}

func TestExperimentIDsAllDispatch(t *testing.T) {
	if testing.Short() {
		t.Skip("runs scaled campaigns")
	}
	e := campaignTiny()
	for _, id := range core.ExperimentIDs() {
		if id == "table1" {
			continue // exercised separately; the intensive floor is slow
		}
		out, err := e.Experiment(id)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if len(out) < 40 {
			t.Errorf("%s output suspiciously short:\n%s", id, out)
		}
	}
}

func TestExperimentUnknown(t *testing.T) {
	if _, err := tiny().Experiment("table99"); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestStaticExperiments(t *testing.T) {
	e := tiny()
	for id, want := range map[string]string{
		"table2":    "C.team9",
		"table3":    "value+1",
		"fielddist": "algorithm",
		"summary5":  "not emulable",
	} {
		out, err := e.Experiment(id)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if !strings.Contains(out, want) {
			t.Errorf("%s missing %q:\n%s", id, want, out)
		}
	}
}

func TestVerifyRealFault(t *testing.T) {
	e := tiny()
	out, err := e.VerifyRealFault("C.team4", 3)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "equivalence: 3/3") {
		t.Errorf("C.team4 emulation not equivalent:\n%s", out)
	}
	out, err = e.VerifyRealFault("JB.team7", 3)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "category C") {
		t.Errorf("JB.team7 should be non-emulable:\n%s", out)
	}
	if _, err := e.VerifyRealFault("nope", 1); err == nil {
		t.Error("unknown program accepted")
	}
}

func TestMetricsReport(t *testing.T) {
	out, err := tiny().Experiment("metrics")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"C.team1", "SOR", "Cyclomatic", "main"} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics report missing %q", want)
		}
	}
}

func TestCampaignResultCached(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a scaled campaign")
	}
	e := campaignTiny()
	a, err := e.CampaignResult()
	if err != nil {
		t.Fatal(err)
	}
	b, err := e.CampaignResult()
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("campaign result not cached")
	}
}
