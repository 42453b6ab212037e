package campaign

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"sort"
	"time"

	"repro/internal/chaos"
	"repro/internal/fault"
	"repro/internal/golden"
	"repro/internal/injector"
	"repro/internal/journal"
	"repro/internal/locator"
	"repro/internal/metrics"
	"repro/internal/programs"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// This file implements the paper's second experiment (§6): emulation of
// whole classes of software faults. Fault locations are enumerated from the
// compiler's debug information, a random subset is chosen per program, each
// chosen location is expanded into every applicable Table 3 error type, and
// each resulting fault is injected once per input data set with the target
// rebooted in between.

// PaperChosenAssign reproduces the "Chosen locations" column of Table 4 for
// assignment faults.
var PaperChosenAssign = map[string]int{
	"C.team1": 8, "C.team2": 5, "C.team8": 8, "C.team9": 9,
	"C.team10": 9, "JB.team6": 5, "JB.team11": 5, "SOR": 12,
}

// PaperChosenCheck reproduces the "Chosen locations" column of Table 4 for
// checking faults.
var PaperChosenCheck = map[string]int{
	"C.team1": 8, "C.team2": 6, "C.team8": 9, "C.team9": 9,
	"C.team10": 8, "JB.team6": 5, "JB.team11": 5, "SOR": 12,
}

// PaperCasesPerFault is the paper's test-case size: each fault is injected
// once per input data set, 300 data sets per program kind.
const PaperCasesPerFault = 300

// Config parameterises a class campaign.
type Config struct {
	// Programs lists target program names; empty means the Table 4 set.
	Programs []string
	// Classes lists the fault classes to inject; empty means both.
	Classes []fault.Class
	// CasesPerFault scales the experiment; 0 means PaperCasesPerFault.
	CasesPerFault int
	// ChosenAssign/ChosenCheck give the number of locations per program;
	// missing entries fall back to the paper's Table 4 columns.
	ChosenAssign map[string]int
	ChosenCheck  map[string]int
	Seed         int64
	// Mode selects the trigger mechanism; 0 means hardware breakpoints
	// (every §6 fault is single-location, so the two IABRs suffice).
	Mode injector.Mode
	// MetricGuided selects fault locations weighted by the enclosing
	// function's complexity score instead of uniformly — the §6.1 policy
	// for when no field data exists.
	MetricGuided bool
	// Workers sets the executor fan-out: how many workers run injections
	// concurrently, each with its own pooled machines. 0 selects
	// runtime.GOMAXPROCS(0); 1 is the legacy serial path. All randomness
	// lives in planning, which is always serial, so the Result is
	// bit-identical across worker counts for the same Seed.
	Workers int
	// NoFastForward disables golden-run checkpointing: every injection
	// reboots and replays its full fault-free prefix, as the pre-checkpoint
	// executor did. The Result is identical either way (the fast path is an
	// execution shortcut, not a semantic change); the knob selects that
	// straight path as the reference (swifi -no-ffwd, equivalence tests).
	NoFastForward bool
	// Ctx, when non-nil, allows graceful interruption: once it is
	// cancelled no new injection starts, in-flight injections drain, and
	// Run returns an *InterruptedError carrying the partial Result.
	Ctx context.Context
	// Journal, when non-nil, makes the campaign crash-safe: Run binds the
	// journal to the plan's fingerprint after planning, replays units the
	// journal already holds instead of executing them, and appends every
	// completed unit as it finishes. A journal written by an interrupted or
	// killed run resumes under any worker count with a bit-identical Result.
	Journal *journal.Journal
	// UnitTimeout bounds each injection's host wall-clock time; a unit (and
	// its one retry) exceeding it is abandoned and quarantined as a
	// HostFault. 0 disables the watchdog — the default, since the target's
	// own cycle watchdog already classifies in-target hangs.
	UnitTimeout time.Duration
	// Isolation selects where units execute: IsolationInProc (the default)
	// on goroutines in this process, IsolationProc in supervised worker
	// subprocesses (see internal/worker). The Result is bit-identical in
	// both modes; proc trades IPC overhead for surviving hard host
	// failures — an OOM-kill or wedge costs one worker, not the campaign.
	Isolation Isolation
	// Proc tunes the worker pool under IsolationProc; nil picks defaults
	// (re-exec the current binary with -worker-mode, 500ms heartbeats, 10s
	// silence timeout, one redelivery before quarantine).
	Proc *ProcOptions
	// Fabric, when non-nil, makes this process the coordinator of a
	// distributed campaign: units are sharded over executor hosts that
	// join via JoinFabric instead of executing locally, with work stealing
	// and host-loss redelivery (see internal/fabric). The Result — and,
	// with a Journal, the journal bytes after canonicalization — is
	// bit-identical to a single-host run. Isolation is then a per-executor
	// choice (JoinOptions.Isolation), not the coordinator's.
	Fabric *FabricOptions
	// Telemetry, when non-nil, observes the campaign: unit counters and
	// latency histograms on its registry, lifecycle events on its tracer,
	// and a live progress line on its surface while units execute. Purely
	// passive — the Result is bit-identical with or without it.
	Telemetry *telemetry.Telemetry
	// StorageChaos, when non-nil, is the deterministic storage/IPC fault
	// injector (swifi -chaos with disk.* / pipe.* keys; see
	// StorageInjector): the journal is opened through its WrapFile hook by
	// the CLI (JournalWrap), golden checkpoints are poisoned through
	// PoisonCheckpoint, and proc-isolation pipes are mangled through
	// WrapPipes. Like the network plane, it is a harness-abuse knob: the
	// Result — and the canonicalized journal bytes — must stay
	// bit-identical to a clean run.
	StorageChaos *chaos.Chaos
}

func (c *Config) fill() {
	if len(c.Programs) == 0 {
		for _, p := range programs.Table4Programs() {
			c.Programs = append(c.Programs, p.Name)
		}
	}
	if len(c.Classes) == 0 {
		c.Classes = []fault.Class{fault.ClassAssignment, fault.ClassChecking}
	}
	if c.CasesPerFault == 0 {
		c.CasesPerFault = PaperCasesPerFault
	}
	if c.Mode == 0 {
		c.Mode = injector.ModeHardware
	}
	if c.Seed == 0 {
		c.Seed = 2000 // the year of the paper
	}
}

func (c *Config) chosen(class fault.Class, program string) int {
	var m, def map[string]int
	switch class {
	case fault.ClassAssignment, fault.ClassHardware:
		// Hardware-fault plans reuse the assignment location budgets.
		m, def = c.ChosenAssign, PaperChosenAssign
	default:
		m, def = c.ChosenCheck, PaperChosenCheck
	}
	if n, ok := m[program]; ok {
		return n
	}
	if n, ok := def[program]; ok {
		return n
	}
	return 5
}

// Entry aggregates the outcomes of every injection of one (program, class,
// error type) combination.
type Entry struct {
	Program string
	Class   fault.Class
	ErrType fault.ErrType
	Runs    int
	// Counts is indexed by FailureMode.
	Counts map[FailureMode]int
	// Activated counts runs in which the fault's corruption actually
	// applied at least once (the faulty code was executed).
	Activated int
}

// PlanInfo is one row of Table 4.
type PlanInfo struct {
	Program  string
	Class    fault.Class
	Possible int
	Chosen   int
	Faults   int // chosen locations × applicable error types
	Injected int // Faults × cases (the paper's "Injected faults" column)
}

// ExecStats counts the resilience events of a campaign's execution. All
// three are zero on a healthy run; they are diagnostics about the host, not
// measurements of the target, and none of them perturbs the failure-mode
// distributions (a degraded or retried unit still reports its true outcome,
// and HostFault units appear only in Entry.Counts[HostFault]).
type ExecStats struct {
	// Degraded counts units that fell back to straight execution because a
	// golden checkpoint failed its integrity check or could not be restored.
	Degraded int
	// Retried counts units whose first attempt panicked host-side and whose
	// retry on a fresh machine succeeded.
	Retried int
	// HostFaults counts quarantined units: two host panics, or a wall-clock
	// timeout.
	HostFaults int
	// Replayed counts units whose outcome was taken from the journal instead
	// of executed — non-zero exactly on resumed runs. Unlike the three
	// fields above it is provenance, not a resilience event: it says how the
	// outcomes were obtained this run, never changes them, and is not
	// persisted (a journal replayed twice reports it both times).
	Replayed int
}

// Result is the outcome of a class campaign.
type Result struct {
	Entries []Entry
	Plans   []PlanInfo
	Runs    int
	// Exec reports the resilience events of this execution. It is the one
	// Result field that may differ between a run and its resumed replay in
	// spirit — but not in value: the journal persists the degraded/retried
	// flags per unit, so a resume reconstructs the same totals.
	Exec ExecStats
	// Hosts is the per-executor fleet breakdown of a fabric campaign, in
	// join order; empty on single-host runs. Like Exec.Replayed it is
	// provenance — which hosts obtained the outcomes — never part of the
	// outcomes themselves, so the bit-identity contracts compare Entries
	// and Exec, not this.
	Hosts []telemetry.HostStats
}

// InterruptedError is returned by Run when its context is cancelled before
// every unit has executed. It carries the partial Result aggregated from the
// units that did finish (their journal records, if any, are already
// flushed), so callers can print partial tallies with a resume hint.
type InterruptedError struct {
	Done    int     // units executed (or replayed) before the interrupt
	Total   int     // units planned
	Partial *Result // aggregation of the Done units only
	Cause   error   // the context error (context.Canceled or DeadlineExceeded)
}

func (e *InterruptedError) Error() string {
	return fmt.Sprintf("campaign interrupted after %d/%d injections: %v", e.Done, e.Total, e.Cause)
}

func (e *InterruptedError) Unwrap() error { return e.Cause }

// planFingerprint hashes everything that determines a campaign plan's units
// and their outcomes: the seed and, per unit in planning order, the program,
// fault identity (ID, error type, trigger addresses, trigger policy), case
// index, watchdog budget, injector mode and entry slot. Deliberately
// excluded: Workers, NoFastForward, Ctx, UnitTimeout, Isolation, Proc,
// Fabric, Telemetry and StorageChaos — none of them changes any unit's outcome, so a journal written
// under one executor configuration resumes under any other (a proc campaign
// resumes in-process, a distributed campaign resumes single-host, a chaos
// run resumes clean, and vice versa).
func planFingerprint(cfg *Config, units []runUnit) uint64 {
	h := fnv.New64a()
	var b [8]byte
	w64 := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	ws := func(s string) {
		w64(uint64(len(s)))
		h.Write([]byte(s))
	}
	w64(uint64(cfg.Seed))
	w64(uint64(len(units)))
	for i := range units {
		u := &units[i]
		ws(u.program)
		ws(u.f.ID)
		ws(string(u.f.ErrType))
		for _, a := range u.f.TriggerAddrs() {
			w64(uint64(a))
		}
		if u.f.Trigger.Once {
			w64(1)
		} else {
			w64(0)
		}
		w64(uint64(u.f.Trigger.Skip))
		w64(uint64(u.caseIx))
		w64(u.budget)
		w64(uint64(u.mode))
		w64(uint64(u.entry))
	}
	return h.Sum64()
}

// plannedCampaign is the output of the serial planning phase: the Result
// shell with its Plans rows, the entry slots units aggregate into, the unit
// list in planning order, and the plan fingerprint over all of it. Planning
// is fully deterministic for a Config, which is what lets a worker
// subprocess rebuild the identical plan from the serialized Config alone.
type plannedCampaign struct {
	res       *Result
	entryList []*Entry
	units     []runUnit
	fp        uint64
}

// planCampaign runs the serial planning phase: location choice, fault
// expansion, input generation, watchdog calibration. It fills cfg's
// defaults in place.
func planCampaign(cfg *Config) (*plannedCampaign, error) {
	cfg.fill()
	res := &Result{}
	entryIdx := make(map[string]int)
	var entryList []*Entry
	var units []runUnit

	// All programs of the same kind run the same test case (§6.2). The
	// case sets come from the process-wide workload cache, so repeated
	// campaigns at the same scale and seed share inputs, goldens and (via
	// the calibration cache) watchdog budgets.
	for _, name := range cfg.Programs {
		p, ok := programs.ByName(name)
		if !ok {
			return nil, fmt.Errorf("campaign: unknown program %q", name)
		}
		c, err := p.Compile()
		if err != nil {
			return nil, err
		}
		cases, err := workload.Cached(p.Kind, cfg.CasesPerFault, cfg.Seed)
		if err != nil {
			return nil, err
		}
		budgets, err := CalibrateCyclesWorkers(c, cases, cfg.Workers)
		if err != nil {
			return nil, fmt.Errorf("campaign: calibrate %s: %w", name, err)
		}

		var rep *metrics.Report
		if cfg.MetricGuided {
			rep = metrics.Analyze(name, c.AST)
		}
		// Plan every class first: the golden watch set must cover the
		// trigger addresses of all of the program's faults, so that one
		// golden run per case serves every class.
		plans := make([]*locator.Plan, len(cfg.Classes))
		for i, class := range cfg.Classes {
			var plan *locator.Plan
			n := cfg.chosen(class, name)
			switch class {
			case fault.ClassAssignment:
				if cfg.MetricGuided {
					w := metrics.LocationWeights(rep, metrics.AssignFuncs(c))
					plan, err = locator.PlanAssignmentChosen(c, name, metrics.ChooseWeighted(w, n, cfg.Seed), cfg.Seed)
				} else {
					plan, err = locator.PlanAssignment(c, name, n, cfg.Seed)
				}
			case fault.ClassChecking:
				if cfg.MetricGuided {
					w := metrics.LocationWeights(rep, metrics.CheckFuncs(c))
					plan, err = locator.PlanCheckingChosen(c, name, metrics.ChooseWeighted(w, n, cfg.Seed), cfg.Seed)
				} else {
					plan, err = locator.PlanChecking(c, name, n, cfg.Seed)
				}
			case fault.ClassHardware:
				plan, err = locator.PlanHardware(c, name, n, cfg.Seed)
			default:
				err = fmt.Errorf("campaign: class %v has no §6 plan", class)
			}
			if err != nil {
				return nil, err
			}
			plans[i] = plan
		}

		var gold *goldenSource
		if !cfg.NoFastForward {
			faultSets := make([][]fault.Fault, len(plans))
			for i, plan := range plans {
				faultSets[i] = plan.Faults
			}
			gold = newGoldenSource(golden.Shared, faultSets...)
		}

		for pi, class := range cfg.Classes {
			plan := plans[pi]
			res.Plans = append(res.Plans, PlanInfo{
				Program: name, Class: class,
				Possible: plan.Possible, Chosen: len(plan.Chosen),
				Faults:   len(plan.Faults),
				Injected: len(plan.Faults) * len(cases),
			})
			for fi := range plan.Faults {
				f := &plan.Faults[fi]
				key := name + "|" + class.String() + "|" + string(f.ErrType)
				ei, ok := entryIdx[key]
				if !ok {
					ei = len(entryList)
					entryIdx[key] = ei
					entryList = append(entryList, &Entry{
						Program: name, Class: class, ErrType: f.ErrType,
						Counts: make(map[FailureMode]int),
					})
				}
				for ci := range cases {
					units = append(units, runUnit{
						program: name, c: c, f: f,
						cs: &cases[ci], caseIx: ci,
						budget: budgets[ci], mode: cfg.Mode,
						entry: ei, gold: gold,
					})
				}
			}
		}
	}

	return &plannedCampaign{
		res:       res,
		entryList: entryList,
		units:     units,
		fp:        planFingerprint(cfg, units),
	}, nil
}

// Run executes the campaign. It is deterministic for a given Config:
// planning (location choice, fault expansion, input generation) is serial
// and seeded, execution fans out over cfg.Workers — goroutines or worker
// subprocesses, per cfg.Isolation — with per-unit result slots merged in
// planning order, so any worker count in either isolation mode yields the
// same Result.
func Run(cfg Config) (*Result, error) {
	pc, err := planCampaign(&cfg)
	if err != nil {
		return nil, err
	}
	res, entryList, units := pc.res, pc.entryList, pc.units

	// Planning is complete: the plan fingerprint is now defined, so a
	// journal can be bound (fresh) or checked (resume) before any
	// execution happens.
	if cfg.Journal != nil {
		if err := cfg.Journal.Bind(pc.fp); err != nil {
			return nil, err
		}
	}

	// Observability: register the campaign instruments, point the journal
	// and the shared golden store at the same registry, and bracket the
	// execution phase with the live progress line. All of it degrades to
	// nil instruments (single pointer checks) when cfg.Telemetry is unset.
	met := newCampMetrics(cfg.Telemetry.Registry())
	tracer := cfg.Telemetry.Tracer()
	if met != nil {
		met.unitsTotal.Add(int64(len(units)))
	}
	if cfg.Journal != nil && met != nil {
		cfg.Journal.Metrics = newJournalMetrics(cfg.Telemetry.Registry())
	}
	if met != nil && !cfg.NoFastForward {
		golden.Shared.SetMetrics(newGoldenMetrics(cfg.Telemetry.Registry()))
	}
	// Storage chaos: arm (or, for a clean campaign, disarm — the store is
	// process-wide) the checkpoint poisoner. Poisoned checkpoints fail their
	// integrity check on restore and degrade to straight execution, so the
	// Result is unchanged; only Exec.Degraded and the chaos counters move.
	golden.Shared.SetPoison(poisonHook(cfg.StorageChaos))
	if tracer != nil {
		for i := range units {
			tracer.Emit(traceUnit(telemetry.KindPlanned, i, &units[i], 0))
		}
	}
	progress := cfg.Telemetry.ProgressSurface()
	if met != nil {
		progress.Start(met.snapshot)
		defer progress.Stop()
	}

	// Execution: the only parallel section. Outcomes land in per-unit
	// slots and are folded into the entries in planning order.
	eo := execOpts{
		ctx:         cfg.Ctx,
		workers:     cfg.Workers,
		journal:     cfg.Journal,
		unitTimeout: cfg.UnitTimeout,
		met:         met,
		tracer:      tracer,
	}
	var outcomes []unitOutcome
	switch {
	case cfg.Fabric != nil:
		outcomes, res.Hosts, err = executeUnitsFabric(&cfg, eo, units, pc.fp)
	case cfg.Isolation == IsolationProc:
		outcomes, err = executeUnitsProc(&cfg, eo, units, pc.fp)
	default:
		outcomes, err = executeUnitsOpts(eo, units)
	}
	if err != nil {
		if (errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)) && outcomes != nil {
			done := foldOutcomes(res, entryList, units, outcomes)
			return nil, &InterruptedError{Done: done, Total: len(units), Partial: res, Cause: err}
		}
		return nil, err
	}
	// A completed campaign's journal is canonicalized — rewritten in unit
	// order — whatever executor produced it, so the bytes on disk are a pure
	// function of the plan and its outcomes: independent of worker count,
	// isolation mode, fleet size, interleaving, and any chaos absorbed along
	// the way. On a journal degraded by storage faults this is also the
	// recovery attempt (every outcome is in memory; transient pressure that
	// lifted leaves a full journal after all).
	if cfg.Journal != nil {
		if cerr := cfg.Journal.Canonicalize(); cerr != nil {
			return nil, cerr
		}
	}
	foldOutcomes(res, entryList, units, outcomes)
	return res, nil
}

// poisonHook adapts a storage-chaos injector into the golden store's poison
// hook; nil (hook disarmed) unless checkpoint poisoning is configured.
func poisonHook(c *chaos.Chaos) func() bool {
	if cc := c.Config(); cc.DiskPoison <= 0 {
		return nil
	}
	return c.PoisonCheckpoint
}

// foldOutcomes aggregates per-unit outcome slots into the entries, in
// planning order, skipping the zero (not-executed) slots an interrupted run
// leaves behind. It finalises res.Entries and returns the number of slots
// folded.
func foldOutcomes(res *Result, entryList []*Entry, units []runUnit, outcomes []unitOutcome) int {
	done := 0
	for i := range units {
		o := outcomes[i]
		if o.mode == 0 {
			continue
		}
		done++
		e := entryList[units[i].entry]
		e.Runs++
		e.Counts[o.mode]++
		if o.activated {
			e.Activated++
		}
		res.Runs++
		if o.degraded {
			res.Exec.Degraded++
		}
		if o.retried {
			res.Exec.Retried++
		}
		if o.mode == HostFault {
			res.Exec.HostFaults++
		}
		if o.replayed {
			res.Exec.Replayed++
		}
	}
	for _, e := range entryList {
		if e.Runs > 0 || done == len(units) {
			res.Entries = append(res.Entries, *e)
		}
	}
	sort.Slice(res.Entries, func(i, j int) bool {
		a, b := res.Entries[i], res.Entries[j]
		if a.Program != b.Program {
			return a.Program < b.Program
		}
		if a.Class != b.Class {
			return a.Class < b.Class
		}
		return a.ErrType < b.ErrType
	})
	return done
}

// Dist is a failure-mode distribution.
type Dist struct {
	Runs      int
	Counts    map[FailureMode]int
	Activated int
}

// Pct returns the percentage of runs with the given mode.
func (d Dist) Pct(m FailureMode) float64 {
	if d.Runs == 0 {
		return 0
	}
	return 100 * float64(d.Counts[m]) / float64(d.Runs)
}

func (r *Result) accumulate(filter func(*Entry) (string, bool)) map[string]Dist {
	out := make(map[string]Dist)
	for i := range r.Entries {
		e := &r.Entries[i]
		key, ok := filter(e)
		if !ok {
			continue
		}
		d, exists := out[key]
		if !exists {
			d = Dist{Counts: make(map[FailureMode]int)}
		}
		d.Runs += e.Runs
		d.Activated += e.Activated
		for m, n := range e.Counts {
			d.Counts[m] += n
		}
		out[key] = d
	}
	return out
}

// ByProgram aggregates failure modes per program for one fault class
// (Figures 7 and 8).
func (r *Result) ByProgram(class fault.Class) map[string]Dist {
	return r.accumulate(func(e *Entry) (string, bool) {
		return e.Program, e.Class == class
	})
}

// ByErrType aggregates failure modes per error type for one fault class
// (Figures 9 and 10).
func (r *Result) ByErrType(class fault.Class) map[string]Dist {
	return r.accumulate(func(e *Entry) (string, bool) {
		return string(e.ErrType), e.Class == class
	})
}

// Total aggregates everything for one class.
func (r *Result) Total(class fault.Class) Dist {
	agg := r.accumulate(func(e *Entry) (string, bool) { return "all", e.Class == class })
	return agg["all"]
}
