package main

import (
	"encoding/json"
	"os"
	"testing"
	"time"

	"repro/internal/campaign"
)

// TestMain lets the test binary serve as its own worker subprocess, as the
// benchmark binary does: proc-journal and the worker probe re-execute
// os.Executable with -worker-mode or -noop-worker.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && (os.Args[1] == "-worker-mode" || os.Args[1] == "-noop-worker") {
		os.Exit(run(os.Args[1:]))
	}
	os.Exit(m.Run())
}

// benchSpec is the part of BENCHMARK.json the tests hold the code to.
type benchSpec struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func loadSpec(t *testing.T) benchSpec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// tiny runs a workload at a size that takes seconds, not minutes.
func tiny(t *testing.T, name string) opts {
	t.Helper()
	size := map[string]int{"table4": 1, "table1": 4, "proc-journal": 2}[name]
	return opts{seed: 3, seconds: time.Millisecond, size: size, dir: t.TempDir()}
}

func checkMetrics(t *testing.T, what string, res *result, want []struct{ Name, Unit string }) {
	t.Helper()
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Errorf("%s: correct=%v attempted=%d failed=%d", what, res.Correct, res.Attempted, res.Failed)
	}
	if len(res.Metrics) != len(want) {
		t.Errorf("%s: %d metrics, BENCHMARK.json lists %d", what, len(res.Metrics), len(want))
	}
	for _, m := range want {
		got, ok := res.Metrics[m.Name]
		if !ok {
			t.Errorf("%s: metric %s missing", what, m.Name)
		} else if got.Unit != m.Unit {
			t.Errorf("%s: metric %s has unit %q, BENCHMARK.json says %q", what, m.Name, got.Unit, m.Unit)
		}
	}
}

// TestSmoke runs every workload at a tiny size, untraced and traced, and
// checks that each emits exactly the metrics BENCHMARK.json lists, with
// their units, and passes its gate. table4 runs too, though BENCHMARK.json
// does not list it (see README.md).
func TestSmoke(t *testing.T) {
	spec := loadSpec(t)
	for _, wl := range spec.Workloads {
		if _, ok := workloads[wl.Name]; !ok {
			t.Errorf("workload %s is not implemented", wl.Name)
		}
	}
	for name, w := range workloads {
		res, err := w.run(tiny(t, name))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		checkMetrics(t, name, res, spec.EndToEnd)
		if v := res.Metrics["ok_share"].Value; v != 1 {
			t.Errorf("%s: ok_share %v", name, v)
		}
		res, err = w.trace(tiny(t, name))
		if err != nil {
			t.Fatalf("%s traced: %v", name, err)
		}
		checkMetrics(t, name+" traced", res, spec.PerLayer)
	}
}

// TestGateRejectsPerturbedExpectation perturbs one count of a real
// campaign's tally and of the pinned totals: the gate must fail every unit
// of the repetition either way.
func TestGateRejectsPerturbedExpectation(t *testing.T) {
	res, err := campaign.Run(table4Config(tiny(t, "table4")))
	if err != nil {
		t.Fatal(err)
	}
	got := campaignTally(res)
	var ok gate
	ok.check("same", got, same(got), totalsAre(got.totals()))
	if !ok.ok() || ok.attempted != res.Runs {
		t.Fatalf("unperturbed expectation rejected: %v", ok.problems)
	}

	want := tally{}
	for k, v := range got {
		want[k] = v
	}
	for k, v := range want {
		v[campaign.Correct]++
		v[campaign.Incorrect]--
		want[k] = v
		break
	}
	pinned := got.totals()
	pinned[campaign.Hang-1]++
	for name, exp := range map[string]expectation{"tally": same(want), "pinned totals": totalsAre(pinned)} {
		var g gate
		g.check(name, got, exp)
		if g.ok() || g.failed != res.Runs {
			t.Errorf("perturbed %s: ok=%v failed=%d of %d", name, g.ok(), g.failed, res.Runs)
		}
	}
}

// TestReplayMatchesCampaign checks the traced replay against the untraced
// runs it mirrors, verdict for verdict.
func TestReplayMatchesCampaign(t *testing.T) {
	for _, name := range []string{"table4", "proc-journal"} {
		o := tiny(t, name)
		cfg := table4Config(o)
		if name == "proc-journal" {
			cfg = procConfig(o)
		}
		fresh()
		res, err := campaign.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		led := newLedger()
		rt, _, _, err := replayCampaign(cfg, led, nil)
		if err != nil {
			t.Fatal(err)
		}
		if d := rt.diff(campaignTally(res)); d != "" || rt.units() != res.Runs {
			t.Errorf("%s: replay differs from campaign.Run: %s", name, d)
		}
		if led.degraded != res.Exec.Degraded {
			t.Errorf("%s: replay degraded %d units, campaign.Run %d", name, led.degraded, res.Exec.Degraded)
		}
	}

	w, err := planTable1(tiny(t, "table1"), nil)
	if err != nil {
		t.Fatal(err)
	}
	modes, cycles, _, err := w.rep()
	if err != nil {
		t.Fatal(err)
	}
	led := newLedger()
	rmodes, _, err := w.replay(led, 1)
	if err != nil {
		t.Fatal(err)
	}
	if d := perCase(rmodes).diff(perCase(modes)); d != "" {
		t.Errorf("table1: replay differs from RunCleanBatch: %s", d)
	}
	if led.cycles != cycles {
		t.Errorf("table1: replay ran %v cycles per verdict, RunCleanBatch %v", led.cycles, cycles)
	}
}
