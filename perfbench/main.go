// Command perfbench is the repository's benchmark: it drives the campaign
// stack from outside, through public functions only, on three workloads
// (table4, table1, proc-journal), checks every verdict tally, and prints the
// end-to-end metrics (or, with --trace 1, the per-layer ledger) as one JSON
// object on the last line of standard output. See README.md.
//
//	go build -o perfbench . && ./perfbench --workload table4 --seed 0 --seconds 30 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"

	"repro/internal/campaign"
	"repro/internal/worker"
)

// metric is one named value of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// workloads maps a workload name to its untraced and traced runs.
var workloads = map[string]struct {
	run   func(opts) (*result, error)
	trace func(opts) (*result, error)
}{
	"table4":       {runTable4, traceTable4},
	"table1":       {runTable1, traceTable1},
	"proc-journal": {runProcJournal, traceProcJournal},
}

// opts are the command-line settings a workload runs under.
type opts struct {
	seed    int64
	seconds time.Duration
	// size scales the workload's per-repetition work; 0 selects the
	// default the pinned tallies are for. Only the tests set it, to run
	// tiny workloads; there is no flag for it.
	size int
	// dir is a scratch directory inside the working directory (journals).
	dir string
}

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: table4, table1 or proc-journal")
	seed := fs.Int64("seed", 0, "input seed (0 gives the inputs the pinned tallies are for; table4 ignores it)")
	seconds := fs.Int("seconds", 30, "seconds of execution-phase repetitions to measure")
	trace := fs.Int("trace", 0, "1: traced layer-ledger run (per-layer metrics) instead of the end-to-end run")
	workerMode := fs.Bool("worker-mode", false, "internal: serve campaign units over stdin/stdout (proc-journal)")
	noopWorker := fs.Bool("noop-worker", false, "internal: serve no-op units over stdin/stdout (worker probe)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	switch {
	case *workerMode:
		return serve(campaign.WorkerFactory)
	case *noopWorker:
		return serve(noopFactory)
	}
	w, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (%s), --seconds >= 1, --trace 0|1\n", workloadNames())
		return 2
	}
	dir, err := scratchDir()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(dir)
	// One busy CPU: a single P, and the repetitions take turns on the
	// CPUs the process was started with.
	runtime.GOMAXPROCS(1)
	benchCPUs = allowedCPUs()
	o := opts{seed: *seed, seconds: time.Duration(*seconds) * time.Second, dir: dir}
	fn := w.run
	if *trace == 1 {
		fn = w.trace
	}
	res, err := fn(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		fmt.Fprintln(os.Stderr, "perfbench: correctness gate failed")
		return 1
	}
	return 0
}

func serve(f worker.Factory) int {
	if err := worker.Serve(os.Stdin, os.Stdout, f); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	return 0
}

func workloadNames() string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return fmt.Sprint(names)
}

// scratchDir makes a private directory under .bench_build in the working
// directory, so the benchmark writes nothing outside its checkout.
func scratchDir() (string, error) {
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(".bench_build", "perfbench-")
}
