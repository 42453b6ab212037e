// Command swifi regenerates the paper's tables and figures.
//
// Usage:
//
//	swifi [-scale 0.1] [-seed 2000] [-mode hw|trap] [-workers N] <experiment>...
//	swifi -list
//	swifi verify <program>
//
// Experiments are named after the paper: table1..table4, fig2, fig7..fig10,
// summary5, fielddist, metrics, or "all". -scale 1.0 reproduces the paper's
// full run counts (108,600 injections for the §6 campaign).
//
// Campaigns are crash-safe when journaled: run with -journal run.wal, kill
// the process at any point (the first SIGINT drains in-flight injections and
// flushes the journal; a second kills immediately), then rerun with
// -journal run.wal -resume — finished injections replay from the journal and
// the final output is byte-identical to an uninterrupted run, under any
// -workers count.
//
// With -isolation=proc the campaign's injections run in supervised worker
// subprocesses (swifi re-executes itself with -worker-mode): a hard host
// failure — OOM-kill, wedge, crash — costs one worker and at most one
// in-flight injection instead of the campaign. Results are bit-identical to
// -isolation=inproc; if the host cannot keep workers alive, the campaign
// degrades back to in-process execution on its own.
//
// Campaigns scale past one host with the fabric: a coordinator started with
// -fabric-listen :9370 plans the campaign and shards it over executors
// started with -fabric-join host:9370 (executors take no experiment
// arguments — the campaign spec crosses the wire), work-stealing from
// stragglers and redelivering a lost host's units. The merged output — and
// the journal, when -journal is given — is byte-identical to a single-host
// run. -heartbeat-interval and -heartbeat-timeout tune liveness for both
// worker subprocesses and fabric links.
//
// Campaigns are observable without changing their results: -progress draws
// a live tally line on stderr (on by default on a terminal), -trace
// streams structured per-injection events as JSON lines, -debug-addr
// serves Prometheus-style /metrics plus expvar and pprof over HTTP, and
// -report writes a machine-readable end-of-run JSON summary.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/campaign"
	"repro/internal/cliutil"
	"repro/internal/core"
	"repro/internal/injector"
	"repro/internal/journal"
	"repro/internal/telemetry"
	"repro/internal/worker"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "swifi:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("swifi", flag.ContinueOnError)
	scale := fs.Float64("scale", 0.1, "fraction of the paper's run counts (1.0 = full scale)")
	seed := fs.Int64("seed", 2000, "random seed for location choice and input generation")
	mode := fs.String("mode", "hw", "injector trigger mode: hw (breakpoint registers) or trap")
	workers := fs.Int("workers", runtime.GOMAXPROCS(0), "parallel campaign workers (1 = serial; results are identical for any count)")
	list := fs.Bool("list", false, "list experiment identifiers and exit")
	verifyCases := fs.Int("verify-cases", 50, "input count for 'verify <program>'")
	noFFwd := fs.Bool("no-ffwd", false, "disable golden-run checkpointing (full replay per injection)")
	journalPath := fs.String("journal", "", "journal the §6 campaign to this file (crash-safe; see -resume)")
	resume := fs.Bool("resume", false, "resume the campaign from an existing -journal file")
	unitTimeout := fs.Duration("unit-timeout", 0, "host wall-clock deadline per injection (0 = off); exceeding units are quarantined")
	isolation := fs.String("isolation", "inproc", "campaign unit execution: inproc (goroutines) or proc (supervised worker subprocesses)")
	procMaxDeliveries := fs.Int("proc-max-deliveries", 0, "with -isolation=proc: workers a unit may take down before quarantine (0 = default 2; chaos drills want headroom)")
	procMaxRestarts := fs.Int("proc-max-restarts", 0, "with -isolation=proc: pool-wide worker restart budget before degrading to in-process (0 = default 2×workers)")
	workerMode := fs.Bool("worker-mode", false, "internal: serve campaign units over stdin/stdout (spawned by -isolation=proc)")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := fs.String("memprofile", "", "write a heap profile to this file on exit")
	version := fs.Bool("version", false, "print the binary version and exit")
	tf := cliutil.AddTelemetryFlags(fs)
	hb := cliutil.AddHeartbeatFlags(fs)
	fab := cliutil.AddFabricFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *workerMode {
		return worker.Serve(os.Stdin, os.Stdout, campaign.WorkerFactory)
	}
	if *version {
		cliutil.PrintVersion("swifi")
		return nil
	}
	procIsolation, err := cliutil.ParseIsolation(*isolation)
	if err != nil {
		return err
	}
	if err := cliutil.ValidateWorkers(*workers); err != nil {
		return err
	}
	if err := cliutil.ValidateUnitTimeout(fs, "unit-timeout", *unitTimeout); err != nil {
		return err
	}
	if err := cliutil.ValidateResume(*resume, *journalPath); err != nil {
		return err
	}
	// 0 picks the worker pool's default; a negative count is a typo, not a
	// request (a negative restart budget would trip the circuit breaker at
	// the first worker death).
	if *procMaxDeliveries < 0 {
		return fmt.Errorf("-proc-max-deliveries must not be negative, got %d (0 picks the default)", *procMaxDeliveries)
	}
	if *procMaxRestarts < 0 {
		return fmt.Errorf("-proc-max-restarts must not be negative, got %d (0 picks the default)", *procMaxRestarts)
	}
	if err := hb.Validate(); err != nil {
		return err
	}
	if err := fab.Validate(); err != nil {
		return err
	}
	if err := cliutil.ValidateFabricTelemetry(fab, tf); err != nil {
		return err
	}
	stopProf, err := cliutil.StartProfiles("swifi", *cpuProfile, *memProfile)
	if err != nil {
		return err
	}
	defer stopProf()
	if *list {
		fmt.Println(strings.Join(core.ExperimentIDs(), "\n"))
		return nil
	}
	tel, telCleanup, err := tf.Setup("swifi")
	if err != nil {
		return err
	}
	defer telCleanup()
	rest := fs.Args()
	if len(rest) == 0 && fab.Join == "" {
		return fmt.Errorf("no experiment given; try -list, 'all', or 'verify <program>'")
	}

	// First SIGINT/SIGTERM cancels the context: campaigns stop handing out
	// units, drain in-flight ones, flush the journal and print partial
	// tallies. A second signal restores default handling, so it kills the
	// process the ordinary way.
	ctx, stopSignals := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stopSignals()
	go func() {
		<-ctx.Done()
		stopSignals()
	}()

	chaosCfg, err := fab.ChaosConfig()
	if err != nil {
		return err
	}
	// The storage/IPC half of -chaos: one process-wide injector shared by
	// the journal and sidecar handles, the golden checkpoint poisoner and
	// the proc-isolation pipes, so every plane draws from the same seed.
	// nil unless the spec carries disk.*, pipe.* or poison keys.
	storageChaos := campaign.StorageInjector(chaosCfg, tel.Registry())

	if fab.Join != "" {
		// Executor mode: everything about the campaign — programs, scale,
		// seed, mode — comes from the coordinator's spec; only local
		// execution knobs apply here.
		jo := campaign.JoinOptions{
			Workers:         *workers,
			DialTimeout:     fab.DialTimeout,
			ReconnectWindow: fab.ReconnectWindow,
			Chaos:           chaosCfg,
			Registry:        tel.Registry(),
			Tracer:          tel.Tracer(),
			Log: func(format string, args ...any) {
				fmt.Fprintf(os.Stderr, "swifi: "+format+"\n", args...)
			},
		}
		if procIsolation {
			jo.Isolation = campaign.IsolationProc
			jo.Proc = &campaign.ProcOptions{
				HeartbeatInterval: hb.Interval,
				HeartbeatTimeout:  hb.Timeout,
				MaxDeliveries:     *procMaxDeliveries,
				MaxRestarts:       *procMaxRestarts,
			}
		}
		return campaign.JoinFabric(ctx, fab.Join, jo)
	}

	e := core.New(*scale)
	e.Seed = *seed
	e.Workers = *workers
	e.NoFastForward = *noFFwd
	e.Ctx = ctx
	e.UnitTimeout = *unitTimeout
	e.Telemetry = tel
	e.StorageChaos = storageChaos
	if procIsolation {
		e.Isolation = campaign.IsolationProc
		e.Proc = &campaign.ProcOptions{
			HeartbeatInterval: hb.Interval,
			HeartbeatTimeout:  hb.Timeout,
			MaxDeliveries:     *procMaxDeliveries,
			MaxRestarts:       *procMaxRestarts,
		}
	}
	if fab.Listen != "" {
		e.Fabric = &campaign.FabricOptions{
			Listen:            fab.Listen,
			MinHosts:          fab.Hosts,
			HeartbeatInterval: hb.Interval,
			HeartbeatTimeout:  hb.Timeout,
			SessionTimeout:    fab.SessionTimeout,
			Chaos:             chaosCfg,
		}
	}
	switch *mode {
	case "hw":
		e.Mode = injector.ModeHardware
	case "trap":
		e.Mode = injector.ModeTrap
	default:
		return fmt.Errorf("unknown mode %q (hw or trap)", *mode)
	}

	if *journalPath != "" {
		var j *journal.Journal
		var err error
		// Under disk chaos the journal's own file handle is wrapped: the
		// WAL must survive the disk faults it exists to absorb (ENOSPC and
		// friends degrade it to in-memory mode; the campaign continues).
		wrap := campaign.JournalWrap(storageChaos)
		if *resume {
			j, err = journal.OpenWrapped(*journalPath, wrap)
		} else {
			j, err = journal.CreateWrapped(*journalPath, wrap)
		}
		if err != nil {
			return err
		}
		defer j.Close()
		if *resume && j.Len() > 0 {
			fmt.Fprintf(os.Stderr, "swifi: journal %s holds %d finished injections; replaying them\n",
				*journalPath, j.Len())
		}
		e.Journal = j
	}

	rep := telemetry.NewReport("swifi")
	rep.Params["scale"] = strconv.FormatFloat(*scale, 'g', -1, 64)
	rep.Params["seed"] = strconv.FormatInt(*seed, 10)
	rep.Params["mode"] = *mode
	rep.Params["workers"] = strconv.Itoa(*workers)
	rep.Params["isolation"] = *isolation
	rep.Params["args"] = strings.Join(rest, " ")

	if rest[0] == "verify" {
		if len(rest) != 2 {
			return fmt.Errorf("usage: swifi verify <program>")
		}
		out, err := e.VerifyRealFault(rest[1], *verifyCases)
		if err != nil {
			return err
		}
		fmt.Print(out)
		return tf.WriteReport(rep, tel)
	}

	ids := rest
	if len(ids) == 1 && ids[0] == "all" {
		ids = core.ExperimentIDs()
	}
	for _, id := range ids {
		start := time.Now()
		out, err := e.Experiment(id)
		if err != nil {
			var ie *campaign.InterruptedError
			if errors.As(err, &ie) {
				reportInterrupt(ie, *journalPath)
				rep.Interrupted = true
				campaign.FillReport(rep, ie.Partial)
				if werr := tf.WriteReport(rep, tel); werr != nil {
					fmt.Fprintln(os.Stderr, "swifi: report:", werr)
				}
				return err
			}
			return err
		}
		fmt.Println(out)
		fmt.Fprintf(os.Stderr, "[%s took %s]\n", id, time.Since(start).Round(time.Millisecond))
	}
	if res := e.CachedCampaignResult(); res != nil {
		campaign.FillReport(rep, res)
		if res.Exec.Replayed > 0 {
			fmt.Fprintf(os.Stderr, "swifi: resume: %d injections replayed from the journal, %d executed this run\n",
				res.Exec.Replayed, res.Runs-res.Exec.Replayed)
		}
	}
	if s := e.ResilienceSummary(); s != "" {
		fmt.Fprintln(os.Stderr, "swifi:", s)
	}
	return tf.WriteReport(rep, tel)
}

// reportInterrupt prints the partial per-mode tallies of an interrupted
// campaign and, when a journal was in use, how to resume it.
func reportInterrupt(ie *campaign.InterruptedError, journalPath string) {
	fmt.Fprintf(os.Stderr, "swifi: interrupted: %d of %d injections finished\n", ie.Done, ie.Total)
	if ie.Partial != nil && ie.Done > 0 {
		counts := make(map[campaign.FailureMode]int)
		for i := range ie.Partial.Entries {
			for m, n := range ie.Partial.Entries[i].Counts {
				counts[m] += n
			}
		}
		fmt.Fprintf(os.Stderr, "swifi: partial tallies: %s\n", telemetry.FormatTally(campaign.ModeTally(counts)))
	}
	if journalPath != "" {
		fmt.Fprintf(os.Stderr, "swifi: finished injections are journaled; resume with: swifi -journal %s -resume ...\n", journalPath)
	} else {
		fmt.Fprintln(os.Stderr, "swifi: no -journal was given, so this progress is lost; journal the next run to make it resumable")
	}
}
