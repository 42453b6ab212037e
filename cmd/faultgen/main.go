// Command faultgen enumerates fault locations and generates fault lists —
// the front end of Table 4. For a given program it prints the possible
// assignment and checking locations found in the compiler's debug
// information, or expands a chosen subset into the full fault list.
//
// Usage:
//
//	faultgen <program>...               # location summary (Table 4 inputs)
//	faultgen -class check -n 5 <program>  # expanded fault list
//	faultgen -metrics <program>           # complexity-guided location weights
//	faultgen -workers 8 all               # whole suite, planned in parallel
//
// "all" expands to every program of the suite. With more than one program
// the compilations and plans fan out over -workers goroutines in this
// process (the whole suite plans in milliseconds; only swifi distributes
// work to subprocesses or hosts); output order always follows the
// argument order.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"strconv"
	"strings"
	"syscall"

	"repro/internal/cliutil"
	"repro/internal/fault"
	"repro/internal/locator"
	"repro/internal/metrics"
	"repro/internal/parallel"
	"repro/internal/programs"
	"repro/internal/telemetry"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "faultgen:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("faultgen", flag.ContinueOnError)
	class := fs.String("class", "", "expand faults for one class: assign, check or hardware")
	n := fs.Int("n", 5, "number of locations to choose")
	seed := fs.Int64("seed", 2000, "random seed for location choice")
	withMetrics := fs.Bool("metrics", false, "print complexity-guided location weights (§6.1)")
	asJSON := fs.Bool("json", false, "emit the expanded fault list as JSON")
	workers := fs.Int("workers", runtime.GOMAXPROCS(0), "parallel planning workers when several programs are given (1 = serial)")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := fs.String("memprofile", "", "write a heap profile to this file on exit")
	version := fs.Bool("version", false, "print the binary version and exit")
	tf := cliutil.AddTelemetryFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *version {
		cliutil.PrintVersion("faultgen")
		return nil
	}
	if err := cliutil.ValidateWorkers(*workers); err != nil {
		return err
	}
	stopProf, err := cliutil.StartProfiles("faultgen", *cpuProfile, *memProfile)
	if err != nil {
		return err
	}
	defer stopProf()
	tel, telCleanup, err := tf.Setup("faultgen")
	if err != nil {
		return err
	}
	defer telCleanup()
	rest := fs.Args()
	if len(rest) == 0 {
		return fmt.Errorf("usage: faultgen [flags] <program>... (or 'all')")
	}
	if len(rest) == 1 && rest[0] == "all" {
		rest = rest[:0]
		for _, p := range programs.All() {
			rest = append(rest, p.Name)
		}
	}
	// Plans are deterministic per (program, seed), so parallel planning
	// changes nothing but wall-clock; outputs are joined in argument order.
	// SIGINT/SIGTERM drains in-flight plans instead of killing mid-write.
	ctx, stopSignals := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stopSignals()
	var plans *telemetry.Counter
	if reg := tel.Registry(); reg != nil {
		reg.Gauge("faultgen_programs_total").Set(int64(len(rest)))
		plans = reg.Counter("faultgen_plans_total")
	}
	tr := tel.Tracer()
	outs, err := parallel.MapCtx(ctx, *workers, len(rest), func(w, i int) (string, error) {
		tr.Emit(telemetry.Event{Kind: telemetry.KindDispatched, Unit: i, Program: rest[i], Worker: w})
		out, derr := describe(rest[i], *class, *n, *seed, *withMetrics, *asJSON)
		if derr == nil {
			plans.AddShard(w, 1)
			tr.Emit(telemetry.Event{Kind: telemetry.KindExecuted, Unit: i, Program: rest[i], Worker: w})
		}
		return out, derr
	})
	if err != nil {
		return err
	}
	for _, out := range outs {
		fmt.Print(out)
	}
	rep := telemetry.NewReport("faultgen")
	rep.Params["class"] = *class
	rep.Params["n"] = strconv.Itoa(*n)
	rep.Params["seed"] = strconv.FormatInt(*seed, 10)
	rep.Params["programs"] = strings.Join(rest, " ")
	rep.Units.Total = len(rest)
	rep.Units.Executed = len(rest)
	return tf.WriteReport(rep, tel)
}

// describe renders the requested report for one program.
func describe(name, class string, n int, seed int64, withMetrics, asJSON bool) (string, error) {
	p, ok := programs.ByName(name)
	if !ok {
		return "", fmt.Errorf("unknown program %q", name)
	}
	c, err := p.Compile()
	if err != nil {
		return "", err
	}
	var sb strings.Builder

	if withMetrics {
		rep := metrics.Analyze(p.Name, c.AST)
		fmt.Fprintf(&sb, "%s: complexity-guided weights for assignment locations\n", p.Name)
		funcs := metrics.AssignFuncs(c)
		w := metrics.LocationWeights(rep, funcs)
		for i, a := range c.Debug.Assigns {
			fmt.Fprintf(&sb, "  loc %3d  %-14s line %3d  %-10s weight %.1f\n", i, a.Func, a.Line, a.LHS, w[i])
		}
		return sb.String(), nil
	}

	switch class {
	case "":
		fmt.Fprintf(&sb, "%s: %d possible assignment locations, %d possible checking locations\n",
			p.Name, len(c.Debug.Assigns), len(c.Debug.Checks))
		for _, a := range c.Debug.Assigns {
			fmt.Fprintf(&sb, "  assign  %-14s line %3d  %s = ...  store at %#x\n", a.Func, a.Line, a.LHS, a.StoreAddr)
		}
		for _, ck := range c.Debug.Checks {
			arrays := ""
			if len(ck.ArrayLoads) > 0 {
				arrays = fmt.Sprintf("  (%d array loads)", len(ck.ArrayLoads))
			}
			fmt.Fprintf(&sb, "  check   %-14s line %3d  op %-5q bc at %#x%s\n", ck.Func, ck.Line, ck.Op, ck.BcAddr, arrays)
		}
		return sb.String(), nil
	case "assign":
		plan, err := locator.PlanAssignment(c, p.Name, n, seed)
		if err != nil {
			return "", err
		}
		return emitPlan(plan, asJSON)
	case "check":
		plan, err := locator.PlanChecking(c, p.Name, n, seed)
		if err != nil {
			return "", err
		}
		return emitPlan(plan, asJSON)
	case "hardware":
		plan, err := locator.PlanHardware(c, p.Name, n, seed)
		if err != nil {
			return "", err
		}
		return emitPlan(plan, asJSON)
	default:
		return "", fmt.Errorf("unknown class %q (assign, check or hardware)", class)
	}
}

// emitPlan renders the plan either human-readably or as JSON.
func emitPlan(plan *locator.Plan, asJSON bool) (string, error) {
	if !asJSON {
		return printPlan(plan), nil
	}
	var sb strings.Builder
	enc := json.NewEncoder(&sb)
	enc.SetIndent("", "  ")
	if err := enc.Encode(plan); err != nil {
		return "", err
	}
	return sb.String(), nil
}

func printPlan(plan *locator.Plan) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s %s faults: %d possible locations, %d chosen, %d faults\n",
		plan.Program, plan.Class, plan.Possible, len(plan.Chosen), len(plan.Faults))
	for i := range plan.Faults {
		f := &plan.Faults[i]
		fmt.Fprintf(&sb, "  %-40s %-12s", f.ID, f.ErrType)
		for _, c := range f.Corruptions {
			fmt.Fprintf(&sb, "  %s@%#x", corruptionName(c), c.Addr)
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

func corruptionName(c fault.Corruption) string {
	return c.Kind.String()
}
