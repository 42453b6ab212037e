package main

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/campaign"
)

// tally counts verdicts per key (an Entry's program/class/error type, or a
// program); the array is indexed by campaign.FailureMode.
type tally map[string][6]int

func (t tally) add(key string, m campaign.FailureMode, n int) {
	c := t[key]
	c[m] += n
	t[key] = c
}

// campaignTally tallies a campaign Result per Entry.
func campaignTally(res *campaign.Result) tally {
	t := tally{}
	for _, e := range res.Entries {
		key := entryKey(e.Program, e.Class.String(), string(e.ErrType))
		for m, n := range e.Counts {
			t.add(key, m, n)
		}
	}
	return t
}

func entryKey(program, class, errType string) string {
	return program + "/" + class + "/" + errType
}

// totals sums the tally over its keys:
// [correct, incorrect, hang, crash, hostfault].
func (t tally) totals() [5]int {
	var out [5]int
	for _, c := range t {
		for m := campaign.Correct; m <= campaign.HostFault; m++ {
			out[m-1] += c[m]
		}
	}
	return out
}

func (t tally) units() int {
	n := 0
	for _, v := range t.totals() {
		n += v
	}
	return n
}

// diff describes how t differs from want ("" when equal).
func (t tally) diff(want tally) string {
	keys := map[string]bool{}
	for k := range t {
		keys[k] = true
	}
	for k := range want {
		keys[k] = true
	}
	var out []string
	for k := range keys {
		if a, b := t[k], want[k]; a != b {
			out = append(out, fmt.Sprintf("%s: got %v want %v", k, a[1:], b[1:]))
		}
	}
	sort.Strings(out)
	if len(out) > 3 {
		out = append(out[:3], fmt.Sprintf("and %d more", len(out)-3))
	}
	return strings.Join(out, "; ")
}

// gate accumulates a run's correctness checks. A repetition whose tally
// differs from the expected one counts all its units as failed; host faults
// always count as failed, since they are not paper verdicts.
type gate struct {
	attempted, failed int
	problems          []string
}

func (g *gate) failf(format string, args ...any) {
	g.problems = append(g.problems, fmt.Sprintf(format, args...))
}

// expectation checks a tally, describing any difference ("" when met).
type expectation func(got tally) string

// same expects exactly the tally want.
func same(want tally) expectation { return func(got tally) string { return got.diff(want) } }

// totalsAre expects the verdict totals pinned.
func totalsAre(pinned [5]int) expectation {
	return func(got tally) string {
		if got.totals() != pinned {
			return fmt.Sprintf("totals %v, pinned %v", got.totals(), pinned)
		}
		return ""
	}
}

// check holds one repetition's tally to every expectation; a miss fails all
// its units.
func (g *gate) check(what string, got tally, exps ...expectation) {
	n := got.units()
	g.attempted += n
	for _, e := range exps {
		if d := e(got); d != "" {
			g.failed += n
			g.failf("%s: tally mismatch: %s", what, d)
			return
		}
	}
	if hf := got.totals()[campaign.HostFault-1]; hf > 0 {
		g.failed += hf
		g.failf("%s: %d host faults", what, hf)
	}
}

func (g *gate) ok() bool { return len(g.problems) == 0 && g.failed == 0 }

// withOKShare adds ok_share, the share of attempted units that passed, to
// the end-to-end metrics.
func (g *gate) withOKShare(m map[string]metric) map[string]metric {
	m["ok_share"] = metric{float64(g.attempted-g.failed) / float64(max(g.attempted, 1)), "share"}
	return m
}

// result builds the run's result line and prints every problem found.
func (g *gate) result(metrics map[string]metric) *result {
	for _, p := range g.problems {
		fmt.Println("gate:", p)
	}
	if g.attempted == 0 {
		g.attempted = 1
		g.failed = 1
	}
	return &result{Correct: g.ok(), Attempted: g.attempted, Failed: g.failed, Metrics: metrics}
}
