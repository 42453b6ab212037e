// Package core is the top-level façade of the reproduction: one Engine
// that can regenerate every table and figure of the paper by its
// identifier, at a configurable fraction of the paper's experiment sizes.
// The command-line tools, the examples and the benchmark harness all drive
// this package.
package core

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/campaign"
	"repro/internal/chaos"
	"repro/internal/fault"
	"repro/internal/injector"
	"repro/internal/journal"
	"repro/internal/metrics"
	"repro/internal/mutation"
	"repro/internal/programs"
	"repro/internal/stats"
	"repro/internal/telemetry"
	"repro/internal/vm"
	"repro/internal/workload"
)

// Engine runs the paper's experiments. The zero value is not usable; call
// New.
type Engine struct {
	// Scale multiplies the paper's experiment sizes (run counts); 1.0
	// reproduces the full 108,600-injection campaign and the >10,000-run
	// intensive tests. The default in New is 0.1.
	Scale float64
	// Seed drives every random choice (locations, inputs).
	Seed int64
	// Mode selects the injector trigger mechanism for campaigns.
	Mode injector.Mode
	// Workers sets the campaign executor fan-out: 0 selects
	// runtime.GOMAXPROCS(0), 1 the legacy serial path. Results are
	// bit-identical across worker counts for the same Seed.
	Workers int
	// NoFastForward disables golden-run checkpointing in the §6 campaigns,
	// forcing every injection to reboot and replay its full fault-free
	// prefix. Results are identical either way; the knob exists for A/B
	// timing comparisons (swifi -no-ffwd).
	NoFastForward bool
	// Ctx, when non-nil, interrupts long experiments gracefully: cancelled
	// campaigns drain in-flight injections and surface a
	// *campaign.InterruptedError with partial tallies.
	Ctx context.Context
	// Journal, when non-nil, makes the main §6 campaign crash-safe (swifi
	// -journal/-resume). Side campaigns (hwcompare, triggers) do not use
	// it: a journal binds to exactly one campaign plan.
	Journal *journal.Journal
	// UnitTimeout bounds each injection's host wall-clock time; see
	// campaign.Config.UnitTimeout. 0 disables the watchdog.
	UnitTimeout time.Duration
	// Isolation selects where campaign injections execute: in-process
	// goroutines (default) or supervised worker subprocesses (swifi
	// -isolation=proc). Results are bit-identical either way; see
	// campaign.Config.Isolation.
	Isolation campaign.Isolation
	// Proc tunes the worker pool when Isolation is campaign.IsolationProc;
	// nil picks the defaults (re-exec this binary with -worker-mode).
	Proc *campaign.ProcOptions
	// Fabric, when non-nil, makes the main §6 campaign distributed: this
	// process coordinates, executors join over TCP (swifi -fabric-listen /
	// -fabric-join). Side campaigns (hwcompare, triggers) stay local — a
	// coordinator binds one listen socket per campaign, and their plans
	// differ from the one the executors rebuild.
	Fabric *campaign.FabricOptions
	// Telemetry, when non-nil, observes every campaign the engine runs:
	// counters and histograms on the unit hot path, structured trace events,
	// and the live progress surface (swifi -trace/-debug-addr/-progress).
	// Strictly passive — results are bit-identical with or without it.
	Telemetry *telemetry.Telemetry
	// StorageChaos, when non-nil, is the deterministic storage/IPC fault
	// injector built from the disk.*/pipe.* keys of swifi -chaos: checkpoint
	// poisoning, proc-pipe corruption, and (via the CLI's wrapped journal
	// handles) disk faults on the WAL. Results must stay bit-identical to a
	// clean run; see campaign.Config.StorageChaos.
	StorageChaos *chaos.Chaos

	mu       sync.Mutex
	campRes  *campaign.Result
	campErr  error
	campDone bool
}

// ctx returns the engine's context, defaulting to Background.
func (e *Engine) ctx() context.Context {
	if e.Ctx != nil {
		return e.Ctx
	}
	return context.Background()
}

// New returns an engine at the given scale (0 selects 0.1, i.e. a tenth of
// the paper's run counts).
func New(scale float64) *Engine {
	if scale <= 0 {
		scale = 0.1
	}
	return &Engine{Scale: scale, Seed: 2000, Mode: injector.ModeHardware}
}

// ExperimentIDs lists the identifiers Experiment accepts, in paper order.
func ExperimentIDs() []string {
	return []string{
		"table1", "table2", "table3", "table4",
		"fig2", "fig7", "fig8", "fig9", "fig10",
		"summary5", "fielddist", "metrics", "hwcompare", "triggers", "mutation",
	}
}

// Experiment regenerates one table or figure by its paper identifier and
// returns the rendered text report.
func (e *Engine) Experiment(id string) (string, error) {
	switch id {
	case "table1":
		rows, err := e.Table1Rows()
		if err != nil {
			return "", err
		}
		return stats.Table1(rows).Render(), nil
	case "table2":
		return stats.Table2().Render(), nil
	case "table3":
		return stats.Table3().Render(), nil
	case "table4":
		res, err := e.CampaignResult()
		if err != nil {
			return "", err
		}
		return stats.Table4(res).Render(), nil
	case "fig2":
		res, err := e.CampaignResult()
		if err != nil {
			return "", err
		}
		return stats.Figure2(res).Render(), nil
	case "fig7":
		res, err := e.CampaignResult()
		if err != nil {
			return "", err
		}
		return stats.Figure7(res).Render(), nil
	case "fig8":
		res, err := e.CampaignResult()
		if err != nil {
			return "", err
		}
		return stats.Figure8(res).Render(), nil
	case "fig9":
		res, err := e.CampaignResult()
		if err != nil {
			return "", err
		}
		return stats.Figure9(res).Render(), nil
	case "fig10":
		res, err := e.CampaignResult()
		if err != nil {
			return "", err
		}
		return stats.Figure10(res).Render(), nil
	case "summary5":
		sum, err := campaign.BuildSection5Summary()
		if err != nil {
			return "", err
		}
		return stats.Section5(sum).Render(), nil
	case "fielddist":
		return stats.FieldDistributionTable().Render(), nil
	case "metrics":
		return e.MetricsReport()
	case "hwcompare":
		return e.HardwareComparison()
	case "triggers":
		return e.TriggerStudy()
	case "mutation":
		return e.MutationStudy()
	}
	return "", fmt.Errorf("core: unknown experiment %q (known: %s)", id, strings.Join(ExperimentIDs(), ", "))
}

// intensiveBudget returns the Table 1 run budget for one program at the
// engine's scale. The paper ran more than 10,000 runs per program; rare
// faults keep a floor so they still show up at small scales.
func (e *Engine) intensiveBudget(name string) int {
	base := 10000
	n := int(float64(base) * e.Scale)
	if name == "JB.team6" && n < 4000 {
		return 4000 // the rarest fault (~0.05%) needs volume to be visible
	}
	if n < 200 {
		return 200
	}
	return n
}

// Table1Rows runs the intensive test of §5 on every faulty program.
func (e *Engine) Table1Rows() ([]stats.Table1Row, error) {
	var rows []stats.Table1Row
	for _, p := range programs.RealFaultPrograms() {
		budget := e.intensiveBudget(p.Name)
		cases, err := workload.Generate(p.Kind, budget, e.Seed+99)
		if err != nil {
			return nil, err
		}
		c, err := p.CompileFaulty()
		if err != nil {
			return nil, err
		}
		results, err := campaign.RunCleanBatchCtx(e.ctx(), c, cases, vm.DefaultMaxCycles, e.Workers)
		if err != nil {
			return nil, fmt.Errorf("core: %s: %w", p.Name, err)
		}
		wrong := 0
		for i := range results {
			if results[i].Mode != campaign.Correct {
				wrong++
			}
		}
		rows = append(rows, stats.Table1Row{Program: p.Name, Runs: len(cases), Wrong: wrong})
	}
	return rows, nil
}

// CampaignConfig returns the §6 campaign configuration at the engine's
// scale.
func (e *Engine) CampaignConfig() campaign.Config {
	cases := int(float64(campaign.PaperCasesPerFault) * e.Scale)
	if cases < 2 {
		cases = 2
	}
	return campaign.Config{
		CasesPerFault: cases,
		Seed:          e.Seed,
		Mode:          e.Mode,
		Workers:       e.Workers,
		NoFastForward: e.NoFastForward,
		Ctx:           e.Ctx,
		UnitTimeout:   e.UnitTimeout,
		Isolation:     e.Isolation,
		Proc:          e.Proc,
		Fabric:        e.Fabric,
		Telemetry:     e.Telemetry,
		StorageChaos:  e.StorageChaos,
	}
}

// CampaignResult runs (once, cached) the full §6 class campaign at the
// engine's scale. This is the one campaign the engine's Journal attaches
// to: every table and figure derived from it resumes from the same journal.
func (e *Engine) CampaignResult() (*campaign.Result, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if !e.campDone {
		cfg := e.CampaignConfig()
		cfg.Journal = e.Journal
		e.campRes, e.campErr = campaign.Run(cfg)
		e.campDone = true
	}
	return e.campRes, e.campErr
}

// CachedCampaignResult returns the §6 campaign result if CampaignResult has
// already run (and succeeded), without triggering a run. CLIs use it to
// build the end-of-run report and the resume summary from whatever campaign
// the requested experiments actually executed.
func (e *Engine) CachedCampaignResult() *campaign.Result {
	e.mu.Lock()
	defer e.mu.Unlock()
	if !e.campDone {
		return nil
	}
	return e.campRes
}

// ResilienceSummary renders the resilience events of the cached campaign —
// degraded fast-forwards, host-side retries, quarantined units — or ""
// when the campaign has not run or ran clean. Journal replays alone do not
// trigger it: a resumed run that re-executed nothing is healthy, and the
// replayed split is surfaced separately. Callers print it to stderr: it
// describes the host's health, not the paper's results.
func (e *Engine) ResilienceSummary() string {
	e.mu.Lock()
	defer e.mu.Unlock()
	if !e.campDone || e.campRes == nil {
		return ""
	}
	x := e.campRes.Exec
	if x.Degraded == 0 && x.Retried == 0 && x.HostFaults == 0 {
		return ""
	}
	return fmt.Sprintf("campaign resilience: %d degraded fast-forwards, %d retried units, %d host faults quarantined",
		x.Degraded, x.Retried, x.HostFaults)
}

// HardwareComparison runs a three-class campaign (assignment and checking
// software-fault emulations plus classic hardware bit-flips) on two
// programs and renders the failure-mode comparison the paper alludes to in
// §6.4.
func (e *Engine) HardwareComparison() (string, error) {
	cfg := e.CampaignConfig()
	cfg.Fabric = nil // side campaign: stays local (see Engine.Fabric)
	cfg.Programs = []string{"C.team2", "JB.team11"}
	cfg.Classes = []fault.Class{fault.ClassAssignment, fault.ClassChecking, fault.ClassHardware}
	res, err := campaign.Run(cfg)
	if err != nil {
		return "", err
	}
	return stats.ClassComparison(res).Render(), nil
}

// TriggerStudy runs the fault-trigger comparison the paper's conclusion
// asks for: the same fault set under different When policies.
func (e *Engine) TriggerStudy() (string, error) {
	cases := int(30 * e.Scale * 10)
	if cases < 5 {
		cases = 5
	}
	res, err := campaign.RunTriggerStudyWorkers("JB.team6", 4, cases, e.Seed, e.Workers)
	if err != nil {
		return "", err
	}
	return stats.TriggerStudy(res).Render(), nil
}

// MutationStudy compares source-level mutants against machine-level
// injections of the same error types (the abstraction-gap validation; see
// internal/mutation).
func (e *Engine) MutationStudy() (string, error) {
	cases := int(60 * e.Scale * 10)
	if cases < 4 {
		cases = 4
	}
	var rows []stats.StudyRow
	for _, name := range []string{"JB.team11", "JB.team6", "C.team2"} {
		p, ok := programs.ByName(name)
		if !ok {
			return "", fmt.Errorf("core: missing program %s", name)
		}
		res, err := mutation.Study(p, 5, cases, e.Seed, e.Workers)
		if err != nil {
			return "", err
		}
		rows = append(rows, stats.StudyRow{
			Program: res.Program, Locations: res.Locations, Pairs: res.Pairs,
			Runs: res.Runs, Equivalent: res.Equivalent,
		})
	}
	return stats.MutationStudy(rows).Render(), nil
}

// MetricsReport renders the §6.1 complexity metrics for the whole suite.
func (e *Engine) MetricsReport() (string, error) {
	t := &stats.Table{
		Title:   "Software complexity metrics (§6.1: guidance when field data is unavailable)",
		Headers: []string{"Program", "Function", "Stmts", "Cyclomatic", "Nesting", "Halstead V", "Score"},
	}
	for _, p := range programs.All() {
		c, err := p.Compile()
		if err != nil {
			return "", err
		}
		rep := metrics.Analyze(p.Name, c.AST)
		funcs := append([]metrics.FuncMetrics(nil), rep.Funcs...)
		sort.Slice(funcs, func(i, j int) bool { return funcs[i].Score() > funcs[j].Score() })
		for _, f := range funcs {
			t.Rows = append(t.Rows, []string{
				p.Name, f.Name,
				fmt.Sprintf("%d", f.Statements), fmt.Sprintf("%d", f.Cyclomatic),
				fmt.Sprintf("%d", f.MaxNesting),
				fmt.Sprintf("%.0f", f.HalsteadVolume()), fmt.Sprintf("%.1f", f.Score()),
			})
		}
	}
	return t.Render(), nil
}

// VerifyRealFault builds and verifies the emulation of one real fault,
// returning a rendered report. Strategy 2 (fetch-bus) is used; mode
// defaults to hardware triggers with automatic fallback to trap mode when
// the fault exceeds the breakpoint budget (the §5 category B path).
func (e *Engine) VerifyRealFault(name string, cases int) (string, error) {
	p, ok := programs.ByName(name)
	if !ok {
		return "", fmt.Errorf("core: unknown program %q", name)
	}
	em, err := campaign.BuildEmulation(p)
	if err != nil {
		return "", err
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s: ODC %s, verdict: %s\n", em.Program, em.ODCType, em.Verdict)
	fmt.Fprintf(&sb, "evidence: %s\n", em.Evidence)
	if em.Fault == nil {
		sb.WriteString("no machine-level emulation exists (paper category C)\n")
		return sb.String(), nil
	}
	ws, err := workload.Generate(p.Kind, cases, e.Seed+99)
	if err != nil {
		return "", err
	}
	mode := injector.ModeHardware
	if em.NeedsTraps {
		mode = injector.ModeTrap
		fmt.Fprintf(&sb, "fault needs %d triggers > %d breakpoint registers: falling back to trap insertion\n",
			em.Triggers, vm.NumIABR)
	}
	rep, err := campaign.VerifyEmulationWorkers(p, em, campaign.StrategyFetchEveryExec, mode, ws, e.Workers)
	if err != nil {
		return "", err
	}
	fmt.Fprintf(&sb, "equivalence: %d/%d runs identical to the real faulty program (fault visible in %d)\n",
		rep.Equivalent, rep.Cases, rep.FaultShown)
	return sb.String(), nil
}
