package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"time"

	"repro/internal/campaign"
	"repro/internal/fault"
	"repro/internal/injector"
	"repro/internal/journal"
	"repro/internal/worker"
)

// proc-journal is a journaled campaign over JB.team6 and JB.team11 under
// IsolationProc with one worker subprocess (this binary, re-executed with
// -worker-mode). Its units are tiny in VM work, so the supervisor-worker
// pipe round trip and the journal write path weigh heavily. The plan takes
// every assignment and checking location of both programs (212 faults) at
// procCases cases per fault, from campaign seed 2000 + --seed.
//
// Every location, not the paper's five per class: with five locations
// chosen by the seed, the cycles a repetition executes moved with the seed
// by a coefficient of variation of 0.27 over ten seeds (hang-prone
// locations burn whole watchdog budgets), which alone exceeds the metrics'
// bounds. With every location the seed only draws the inputs and the
// random error values, and at 150 cases per fault the cycles per
// repetition varied by 0.03.
const (
	procSeed  = 2000
	procCases = 150
	// allLocations asks the locator for more locations than any program
	// has, which makes it take every one of them.
	allLocations = 1 << 20
)

// procPinned are the verdict totals at --seed 0.
var procPinned = [5]int{6724, 19527, 3338, 2211, 0}

func procConfig(o opts) campaign.Config {
	n := procCases
	if o.size > 0 {
		n = o.size
	}
	all := map[string]int{"JB.team6": allLocations, "JB.team11": allLocations}
	return campaign.Config{
		Programs:      []string{"JB.team6", "JB.team11"},
		Classes:       []fault.Class{fault.ClassAssignment, fault.ClassChecking},
		ChosenAssign:  all,
		ChosenCheck:   all,
		CasesPerFault: n,
		Seed:          procSeed + o.seed,
		Mode:          injector.ModeHardware,
		Workers:       1,
	}
}

// self re-executes this binary with one flag.
func self(flag string) func() *exec.Cmd {
	return func() *exec.Cmd {
		exe, err := os.Executable()
		if err != nil {
			exe = os.Args[0]
		}
		cmd := exec.Command(exe, flag)
		cmd.Stderr = os.Stderr
		return cmd
	}
}

// journaled runs cfg with a fresh journal at path, in a worker subprocess
// when proc is set, and returns the Result with the canonicalized journal's
// bytes.
func journaled(cfg campaign.Config, path string, proc bool) (*campaign.Result, []byte, error) {
	j, err := journal.Create(path)
	if err != nil {
		return nil, nil, err
	}
	cfg.Journal = j
	if proc {
		cfg.Isolation = campaign.IsolationProc
		cfg.Proc = &campaign.ProcOptions{Spawn: self("-worker-mode")}
	}
	res, err := campaign.Run(cfg)
	if cerr := j.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, nil, err
	}
	b, err := os.ReadFile(path)
	return res, b, err
}

// journalTally re-opens a canonicalized journal through journal.Open and
// tallies its outcomes per unit; it fails unless every unit is on record.
func journalTally(path string, units int) ([]campaign.FailureMode, error) {
	j, err := journal.Open(path)
	if err != nil {
		return nil, err
	}
	defer j.Close()
	if j.Len() != units {
		return nil, fmt.Errorf("journal %s holds %d units, want %d", path, j.Len(), units)
	}
	out := make([]campaign.FailureMode, units)
	for i := range out {
		o, ok := j.Done(i)
		if !ok {
			return nil, fmt.Errorf("journal %s lacks unit %d", path, i)
		}
		out[i] = campaign.FailureMode(o.Mode)
	}
	return out, nil
}

// procReference runs the same campaign in process, journaled: its Result
// and canonical journal bytes are what every proc repetition must match.
func procReference(cfg campaign.Config, dir string) (tally, []byte, error) {
	fresh()
	res, b, err := journaled(cfg, filepath.Join(dir, "inproc.journal"), false)
	if err != nil {
		return nil, nil, fmt.Errorf("in-process reference: %w", err)
	}
	return campaignTally(res), b, nil
}

// checkProcRep holds one proc repetition to the reference: equal tallies,
// identical canonical journal bytes, and a journal that re-opens with the
// same outcomes.
func (o opts) checkProcRep(g *gate, what string, res *campaign.Result, b []byte, path string, want tally, wantBytes []byte) {
	got := campaignTally(res)
	exps := withPinned([]expectation{same(want)}, o.size == 0 && o.seed == 0, totalsAre(procPinned))
	exps = append(exps, func(tally) string {
		if !bytes.Equal(b, wantBytes) {
			return "canonical journal differs from the in-process run's"
		}
		modes, err := journalTally(path, res.Runs)
		if err != nil {
			return err.Error()
		}
		jt := [5]int{}
		for _, m := range modes {
			jt[m-1]++
		}
		if jt != got.totals() {
			return fmt.Sprintf("re-opened journal totals %v, result %v", jt, got.totals())
		}
		return ""
	})
	g.check(what, got, exps...)
}

func runProcJournal(o opts) (*result, error) {
	cfg := procConfig(o)
	if err := prime(cfg); err != nil {
		return nil, err
	}
	type repOut struct {
		res  *campaign.Result
		b    []byte
		path string
	}
	var outs []repOut
	setup := func() error { return planSetup(cfg, nil) }
	setups, reps, err := measure("proc-journal", o.seconds, setup, func() (int, error) {
		path := filepath.Join(o.dir, fmt.Sprintf("proc-%d.journal", len(outs)+1))
		res, b, err := journaled(cfg, path, true)
		if err != nil {
			return 0, err
		}
		outs = append(outs, repOut{res, b, path})
		return res.Runs, nil
	})
	if err != nil {
		return nil, err
	}
	metrics := endToEnd(setups, reps)
	want, wantBytes, err := procReference(cfg, o.dir)
	if err != nil {
		return nil, err
	}
	var g gate
	for i, r := range outs {
		o.checkProcRep(&g, fmt.Sprintf("proc-journal rep %d", i+1), r.res, r.b, r.path, want, wantBytes)
	}
	return g.result(g.withOKShare(metrics)), nil
}

func traceProcJournal(o opts) (*result, error) {
	cfg := procConfig(o)
	setupLed := newLedger()
	err := timeSetups(func() error { return planSetup(cfg, setupLed) })
	if err != nil {
		return nil, err
	}
	if err := prime(cfg); err != nil {
		return nil, err
	}
	var g gate
	tr := &tracedRun{setup: setupLed, led: newLedger()}
	var procS, inprocS []float64
	var units int
	start := time.Now()
	for tr.passes < minTracePasses || time.Since(start) < o.seconds {
		tr.passes++
		// The in-process journaled campaign is the untraced twin of the
		// replay (and the reference); the proc run differs from it only by
		// the worker layer.
		fresh()
		t := time.Now()
		want, wantBytes, err := procReference(cfg, o.dir)
		if err != nil {
			return nil, err
		}
		inprocS = append(inprocS, time.Since(t).Seconds())
		fresh()
		path := filepath.Join(o.dir, fmt.Sprintf("proc-%d.journal", tr.passes))
		var res *campaign.Result
		var b []byte
		t = time.Now()
		kb, err := allocKB(func() error {
			var err error
			res, b, err = journaled(cfg, path, true)
			return err
		})
		if err != nil {
			return nil, err
		}
		procS = append(procS, time.Since(t).Seconds())
		units = res.Runs
		tr.allocKBPerUnit = kb / float64(units)
		o.checkProcRep(&g, fmt.Sprintf("proc-journal pass %d", tr.passes), res, b, path, want, wantBytes)

		fresh()
		d0 := tr.led.degraded
		rt, wall, jb, err := replayJournaled(cfg, filepath.Join(o.dir, fmt.Sprintf("replay-%d.journal", tr.passes)), tr)
		if err != nil {
			return nil, err
		}
		tr.traced = append(tr.traced, wall.Seconds())
		tr.journalBytes = jb
		g.check(fmt.Sprintf("proc-journal pass %d replay", tr.passes), rt, same(want), sameDegraded(res, tr.led.degraded-d0))
		fmt.Printf("proc-journal pass %d: in-process %.3f s, proc %.3f s, traced replay %.3f s\n",
			tr.passes, inprocS[len(inprocS)-1], procS[len(procS)-1], wall.Seconds())
	}
	tr.untraced = inprocS
	tr.overheadUSPerUnit = (median(procS) - median(inprocS)) * 1e6 / float64(units)
	rt, err := roundtripUS(4000)
	if err != nil {
		return nil, err
	}
	tr.roundtripUS = rt
	return g.result(tr.metrics()), nil
}

// replayJournaled is the traced replay with every verdict appended to a
// bound journal, then canonicalized, as campaign.Run does with a journal.
func replayJournaled(cfg campaign.Config, path string, tr *tracedRun) (tally, time.Duration, int64, error) {
	start := time.Now()
	j, err := journal.Create(path)
	if err != nil {
		return nil, 0, 0, err
	}
	defer j.Close()
	if err := j.Bind(uint64(cfg.Seed)); err != nil {
		return nil, 0, 0, err
	}
	rt, r, _, err := replayCampaign(cfg, tr.led, func(i int, v campaign.FailureMode) error {
		t := time.Now()
		err := j.Append(i, journal.Outcome{Mode: uint8(v)})
		tr.led.since("journal.append", t)
		return err
	})
	if err != nil {
		return nil, 0, 0, err
	}
	t := time.Now()
	err = j.Canonicalize()
	tr.led.since("journal.canonicalize", t)
	if err != nil {
		return nil, 0, 0, err
	}
	tr.store = r.store
	wall := time.Since(start)
	fi, err := os.Stat(path)
	if err != nil {
		return nil, 0, 0, err
	}
	return rt, wall, fi.Size(), nil
}

// The worker probe drives a one-subprocess worker.Pool whose Runner does
// nothing, so the time per unit is the supervisor-worker round trip alone:
// exec frame out, verdict frame back.
const noopKind = "perfbench/noop/v1"

type noopRunner struct{ n int }

func (r noopRunner) Units() int { return r.n }
func (r noopRunner) Run(int) (journal.Outcome, []byte, error) {
	return journal.Outcome{Mode: uint8(campaign.Correct)}, nil, nil
}

func noopFactory(spec worker.Spec) (worker.Runner, error) {
	if spec.Kind != noopKind {
		return nil, fmt.Errorf("spec kind %q, want %q", spec.Kind, noopKind)
	}
	var n int
	if err := json.Unmarshal(spec.Payload, &n); err != nil {
		return nil, err
	}
	return noopRunner{n}, nil
}

// roundtripUS is the mean round trip of n no-op units through one worker
// subprocess, timed from the first verdict to the last so that spawning
// and the handshake stay out of it.
func roundtripUS(n int) (float64, error) {
	payload, _ := json.Marshal(n)
	pool, err := worker.NewPool(worker.Options{
		Workers: 1,
		Command: self("-noop-worker"),
		Spec:    worker.Spec{Kind: noopKind, Payload: payload},
	})
	if err != nil {
		return 0, err
	}
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	var first, last time.Time
	seen := 0
	err = pool.Run(context.Background(), idx, func(r worker.Result) error {
		last = time.Now()
		if seen == 0 {
			first = last
		}
		seen++
		return nil
	})
	if err != nil {
		return 0, fmt.Errorf("worker probe: %w", err)
	}
	if seen != n {
		return 0, fmt.Errorf("worker probe: %d verdicts for %d units", seen, n)
	}
	return us(last.Sub(first)) / float64(n-1), nil
}
