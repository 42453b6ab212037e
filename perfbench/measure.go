package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"syscall"
	"time"

	"repro/internal/golden"
)

// sample is one execution-phase repetition and the CPU it ran on (-1
// when the process was not pinned).
type sample struct {
	units     int
	wall, cpu time.Duration
	on        int
}

func (s sample) unitsPerS() float64    { return float64(s.units) / s.wall.Seconds() }
func (s sample) cpuMSPerUnit() float64 { return ms(s.cpu) / float64(s.units) }

// cpuTime is the user plus system CPU time of this process and of every
// child it has waited for (the proc-journal worker subprocesses).
func cpuTime() time.Duration {
	var self, kids syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &self)
	_ = syscall.Getrusage(syscall.RUSAGE_CHILDREN, &kids)
	tv := func(t syscall.Timeval) time.Duration { return time.Duration(t.Nano()) }
	return tv(self.Utime) + tv(self.Stime) + tv(kids.Utime) + tv(kids.Stime)
}

// peakRSSMB is the peak resident set of this process plus the largest peak
// of its waited-for children, in MiB (Linux reports ru_maxrss in KiB).
func peakRSSMB() float64 {
	var self, kids syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &self)
	_ = syscall.Getrusage(syscall.RUSAGE_CHILDREN, &kids)
	return float64(self.Maxrss+kids.Maxrss) / 1024
}

// fresh resets process-wide state before a timed phase, so that every
// repetition does the same work: golden records are rebuilt (the shared
// store would otherwise serve them from the previous repetition) and the
// heap starts from the same live set.
func fresh() {
	golden.Shared.Purge()
	runtime.GC()
}

// minReps is the fewest repetitions a run makes, whatever --seconds says,
// so that the median has a majority to stand on.
const minReps = 3

// A run times setupPasses cold set-ups: minSetups before the first
// repetition and the rest spread over the execution phase in step with the
// time spent, so that setup_s, their median, samples the same host states
// as the repetitions instead of the first second of the run. The count is
// fixed because a campaign set-up leaves its calibration in a process-wide
// cache, so the number of passes shows in peak_rss_mb.
const (
	minSetups   = 5
	setupPasses = 40
)

// benchCPUs are the CPUs the repetitions take turns on; with fewer than
// two the process is left where it is. On a shared host each CPU goes
// through speed states of its own that last tens of seconds (two pinned
// loops, one per CPU of a 2-vCPU guest, correlated only about 0.3 over 5 s
// windows), so a run whose repetitions alternate samples two of them.
var benchCPUs []int

// measure times the workload's uncached set-up and runs one repetition
// after another until the budget is spent (at least minReps), timing each
// and printing it, so that a burst of host interference costs one
// repetition and shows in the output. Repetitions take turns on benchCPUs,
// one busy CPU at a time.
func measure(label string, budget time.Duration, setup func() error, rep func() (int, error)) ([]time.Duration, []sample, error) {
	var setups []time.Duration
	var out []sample
	start := time.Now()
	setupsTo := func(n int) error {
		for len(setups) < n {
			runtime.GC()
			t := time.Now()
			if err := setup(); err != nil {
				return fmt.Errorf("setup: %w", err)
			}
			setups = append(setups, time.Since(t))
		}
		return nil
	}
	for len(out) < minReps || time.Since(start) < budget {
		f := min(1, time.Since(start).Seconds()/budget.Seconds())
		if err := setupsTo(minSetups + int(f*(setupPasses-minSetups))); err != nil {
			return nil, nil, err
		}
		on := -1
		if len(benchCPUs) > 1 {
			on = benchCPUs[len(out)%len(benchCPUs)]
			pinTo(on)
		}
		fresh()

		t, c := time.Now(), cpuTime()
		n, err := rep()
		s := sample{units: n, wall: time.Since(t), cpu: cpuTime() - c, on: on}

		if err != nil {
			return nil, nil, fmt.Errorf("%s repetition %d: %w", label, len(out)+1, err)
		}
		out = append(out, s)
		fmt.Printf("%s rep %d on cpu %d: %d units in %.3f s: %.2f units/s, %.3f cpu ms/unit\n",
			label, len(out), on, s.units, s.wall.Seconds(), s.unitsPerS(), s.cpuMSPerUnit())
	}
	if err := setupsTo(setupPasses); err != nil {
		return nil, nil, err
	}
	fmt.Printf("setup: %d passes, median %.4f s\n", len(setups), median(secs(setups)))
	return setups, out, nil
}

// timeSetups runs the workload's uncached set-up setupPasses times in a
// row, for the traced runs' set-up ledger.
func timeSetups(setup func() error) error {
	for range setupPasses {
		runtime.GC()
		if err := setup(); err != nil {
			return fmt.Errorf("setup: %w", err)
		}
	}
	return nil
}

func secs(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

// median of xs (NaN when empty).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile by linear interpolation between order statistics.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[lo]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// endToEnd builds the timed end-to-end metrics from the set-ups and
// repetitions: for each CPU the median over its repetitions, and the mean
// of those over the CPUs, never totals over the run. It reads the peak
// RSS, so it must run before any reference computation the gate needs; the
// gate adds ok_share.
func endToEnd(setups []time.Duration, reps []sample) map[string]metric {
	ups := map[int][]float64{}
	cpu := map[int][]float64{}
	for _, s := range reps {
		ups[s.on] = append(ups[s.on], s.unitsPerS())
		cpu[s.on] = append(cpu[s.on], s.cpuMSPerUnit())
	}
	return map[string]metric{
		"units_per_s":     {meanOfMedians(ups), "1/s"},
		"cpu_ms_per_unit": {meanOfMedians(cpu), "ms"},
		"setup_s":         {median(secs(setups)), "s"},
		"peak_rss_mb":     {peakRSSMB(), "MiB"},
	}
}

// meanOfMedians is the mean over groups of each group's median.
func meanOfMedians(groups map[int][]float64) float64 {
	var sum float64
	for _, xs := range groups {
		sum += median(xs)
	}
	return sum / float64(len(groups))
}
