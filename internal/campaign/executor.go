package campaign

import (
	"context"
	"errors"
	"fmt"
	"os"
	"runtime/debug"
	"sync"
	"time"

	"repro/internal/cc"
	"repro/internal/fault"
	"repro/internal/golden"
	"repro/internal/injector"
	"repro/internal/journal"
	"repro/internal/parallel"
	"repro/internal/programs"
	"repro/internal/telemetry"
	"repro/internal/vm"
	"repro/internal/worker"
	"repro/internal/workload"
)

// This file is the parallel campaign executor. Every injection of the
// paper's experiments is an independent run — a freshly rebooted machine, a
// deterministic input, one armed fault — so the execution of a campaign
// shards perfectly across workers. The design keeps all randomness in
// planning, which stays serial, and fans out only the runs: results are
// written into per-unit slots and aggregated in planning order, so a
// campaign's Result is bit-identical for any worker count.
//
// The per-worker machinePool supplies the other half of the speed-up:
// instead of allocating a fresh 1 MiB machine per injection (the literal
// reading of "the target system is rebooted between injections"), each
// worker keeps one loaded machine per compiled program and reboots it with
// vm.(*Machine).Reset, which restores the post-Load state without
// reallocating the memory or decode arrays.

// machinePool caches loaded machines per compiled program. Each executor
// worker owns exactly one pool, so pools need no locking. degraded counts
// checkpoint-integrity fallbacks taken on this pool (see noteDegraded).
type machinePool struct {
	machines map[*cc.Compiled]*vm.Machine
	degraded int
	// interpOnly is stamped onto every handed-out machine, forcing step
	// (vm.(*Machine).SetInterpOnly); only the engine A/B test sets it.
	interpOnly bool
	// met/w are the owning worker's metric bundle and shard index; both are
	// zero for pools outside an instrumented campaign (calibration, clean
	// batches, worker subprocesses), making every count below a no-op.
	met *campMetrics
	w   int
}

// ffwd counter helpers; nil-safe through campMetrics.
func (p *machinePool) countFfwdHit() {
	if p.met != nil {
		p.met.ffwdHits.AddShard(p.w, 1)
	}
}

func (p *machinePool) countFfwdMiss() {
	if p.met != nil {
		p.met.ffwdMisses.AddShard(p.w, 1)
	}
}

func (p *machinePool) countDormantSkip() {
	if p.met != nil {
		p.met.dormantSkips.AddShard(p.w, 1)
	}
}

// countLoopSkip records a run whose periodic hang tail was skipped and the
// cycles the skip saved; nil-safe like the ffwd helpers.
func (p *machinePool) countLoopSkip(cycles uint64) {
	if p.met != nil {
		p.met.loopSkips.AddShard(p.w, 1)
		p.met.cyclesSkipped.AddShard(p.w, cycles)
	}
}

// degradeLogOnce gates the one diagnostic line degraded-mode execution
// prints: the event is surfaced per-run in the result's ExecStats, so the
// log exists to timestamp the first occurrence, not to spam one line per
// affected unit.
var degradeLogOnce sync.Once

// noteDegraded records that a golden checkpoint could not be used — its
// integrity hash no longer matched, or the restore failed — and the unit
// fell back to straight (full replay) execution. The outcome of the unit is
// unaffected: the fast path is an execution shortcut, so skipping it
// changes timing only.
func (p *machinePool) noteDegraded(reason string) {
	p.degraded++
	degradeLogOnce.Do(func() {
		fmt.Fprintf(os.Stderr, "campaign: degraded mode: %s; falling back to straight execution (counted in the run summary, logged once)\n", reason)
	})
}

func newMachinePool() *machinePool {
	return &machinePool{machines: make(map[*cc.Compiled]*vm.Machine)}
}

// acquire returns a ready (rebooted) machine for the compiled program with
// the input and watchdog budget installed.
func (p *machinePool) acquire(c *cc.Compiled, in programs.Input, maxCycles uint64) (*vm.Machine, error) {
	m, ok := p.machines[c]
	if !ok {
		m = vm.New(vm.Config{})
		if err := m.Load(c.Prog.Image); err != nil {
			return nil, err
		}
		p.machines[c] = m
	} else if err := m.Reset(); err != nil {
		return nil, err
	}
	m.SetInterpOnly(p.interpOnly)
	m.SetMaxCycles(maxCycles)
	m.SetCycleQuota(hardQuota(maxCycles))
	m.SetInput(in.Ints)
	m.SetByteInput(in.Bytes)
	return m, nil
}

// restored hands out a pooled machine rewound to a golden-run checkpoint
// instead of rebooted: the fast-forward path of the checkpointed executor.
func (p *machinePool) restored(c *cc.Compiled, cp *golden.Checkpoint, maxCycles uint64) (*vm.Machine, error) {
	m, ok := p.machines[c]
	if !ok {
		m = vm.New(vm.Config{})
		if err := m.Load(c.Prog.Image); err != nil {
			return nil, err
		}
		p.machines[c] = m
	}
	if err := m.Restore(cp.Snap); err != nil {
		return nil, err
	}
	m.SetInterpOnly(p.interpOnly)
	m.SetMaxCycles(maxCycles)
	m.SetCycleQuota(hardQuota(maxCycles))
	return m, nil
}

// runClean executes one clean run on a pooled machine.
func (p *machinePool) runClean(c *cc.Compiled, cs *workload.Case, maxCycles uint64) (RunResult, error) {
	m, err := p.acquire(c, cs.Input, maxCycles)
	if err != nil {
		return RunResult{}, err
	}
	if _, err := m.Run(); err != nil {
		return RunResult{}, err
	}
	return classify(m, cs.Golden), nil
}

// runWithFault executes one injected run on a pooled machine: the straight
// path — reboot, arm, replay the whole run.
func (p *machinePool) runWithFault(c *cc.Compiled, cs *workload.Case, f *fault.Fault, mode injector.Mode, maxCycles uint64) (RunResult, error) {
	m, err := p.acquire(c, cs.Input, maxCycles)
	if err != nil {
		return RunResult{}, err
	}
	s, err := injector.Arm(m, mode, f)
	if err != nil {
		return RunResult{}, err
	}
	if _, err := m.Run(); err != nil {
		return RunResult{}, err
	}
	res := classify(m, cs.Golden)
	res.Activations = s.Activations()
	return res, nil
}

// runFastForward executes one injection over the golden record: dormant
// faults reuse the recorded outcome outright, activated faults restore the
// nearest checkpoint before the first trigger arrival and run only the
// suffix. The outcome is identical to runWithFault (see the soundness
// argument in package golden and TestFastForwardMatchesStraightRun); only
// RunResult.Activations degrades to an at-least-once indicator when the
// fault was armed leanly.
func (p *machinePool) runFastForward(u *runUnit) (RunResult, error) {
	if u.f.Trigger.Kind != fault.TriggerOnLocation {
		// At-start faults apply before the first instruction; there is no
		// fault-free prefix to skip.
		return p.runWithFault(u.c, u.cs, u.f, u.mode, u.budget)
	}
	rec, err := u.gold.store.Run(u.c, u.cs, u.budget, quantileMarks(u.budget), u.gold.ws)
	if err != nil {
		return RunResult{}, err
	}
	applying, safe := rec.RestorePoint(u.f.TriggerAddrs(), uint64(u.f.Trigger.Skip))
	if !applying {
		// Dormant: the corruption never applies, so the injected run is the
		// golden run. Arm on a rebooted machine anyway — arming has its own
		// observable failures (e.g. breakpoint exhaustion) that must stay
		// identical to the straight path — then skip the execution.
		m, err := p.acquire(u.c, u.cs.Input, u.budget)
		if err != nil {
			return RunResult{}, err
		}
		if _, err := injector.Arm(m, u.mode, u.f); err != nil {
			return RunResult{}, err
		}
		p.countDormantSkip()
		return resultFromRecord(rec, u.cs.Golden), nil
	}
	cp := rec.Nearest(safe)
	if cp == nil {
		p.countFfwdMiss()
		return p.runWithFault(u.c, u.cs, u.f, u.mode, u.budget)
	}
	// Degraded-mode checkpointing: a checkpoint whose integrity hash no
	// longer matches its snapshot, or whose restore errors, must not be
	// trusted — restoring it would replay the injection on corrupted state.
	// Both cases fall back to the straight path (reboot + full replay),
	// which produces the identical outcome at fast-forward's cost.
	if !cp.Verify() {
		p.noteDegraded(fmt.Sprintf("golden checkpoint for %s case %d failed its integrity check", u.program, u.caseIx))
		p.countFfwdMiss()
		return p.runWithFault(u.c, u.cs, u.f, u.mode, u.budget)
	}
	m, err := p.restored(u.c, cp, u.budget)
	if err != nil {
		p.noteDegraded(fmt.Sprintf("golden checkpoint restore for %s case %d failed: %v", u.program, u.caseIx, err))
		p.countFfwdMiss()
		return p.runWithFault(u.c, u.cs, u.f, u.mode, u.budget)
	}
	p.countFfwdHit()
	lean, err := injector.ArmLean(m, u.mode, u.f)
	if err != nil {
		return RunResult{}, err
	}
	var s *injector.Session
	if lean {
		// Lean hooks are pure functions of the PC, address and value, so
		// an exactly periodic hang tail can be skipped to the watchdog
		// (vm/loop.go). The straight path never arms it and stays the
		// reference.
		m.ArmLoopSkip()
	} else if s, err = injector.Arm(m, u.mode, u.f); err != nil {
		return RunResult{}, err
	}
	if _, err := m.Run(); err != nil {
		return RunResult{}, err
	}
	if n := m.SkippedCycles(); n > 0 {
		p.countLoopSkip(n)
	}
	res := classify(m, u.cs.Golden)
	if lean {
		// Planted corruptions are not intercepted, so there is no exact
		// count; the restore point guarantees at least one application.
		res.Activations = 1
	} else {
		res.Activations = s.Activations()
	}
	return res, nil
}

// goldenSource tells the executor how to fast-forward a unit: which store
// holds the golden records and the watch set they were (or will be)
// recorded under. Units with a nil source take the straight path.
type goldenSource struct {
	store *golden.Store
	ws    golden.WatchSet
}

// newGoldenSource builds the per-program source, recording in store, from
// every planned fault's trigger addresses. It returns nil — disabling
// fast-forward — when no fault is location-triggered.
func newGoldenSource(store *golden.Store, faults ...[]fault.Fault) *goldenSource {
	var addrs []uint32
	for _, fs := range faults {
		for fi := range fs {
			f := &fs[fi]
			if f.Trigger.Kind == fault.TriggerOnLocation {
				addrs = append(addrs, f.TriggerAddrs()...)
			}
		}
	}
	if len(addrs) == 0 {
		return nil
	}
	return &goldenSource{store: store, ws: golden.NewWatchSet(addrs)}
}

// runUnit is one injection of a planned campaign: the (program, fault,
// input) triple plus its calibrated watchdog budget and the index of the
// Entry it aggregates into. cs points into the canonical case slice — the
// golden store keys records by that pointer. A non-nil gold enables the
// checkpointed fast path.
type runUnit struct {
	program string
	c       *cc.Compiled
	f       *fault.Fault
	cs      *workload.Case
	caseIx  int
	budget  uint64
	mode    injector.Mode
	entry   int
	gold    *goldenSource
}

// unitOutcome is the per-run data an Entry aggregates, plus the resilience
// flags the run summary and the journal carry. The zero value (mode 0) is
// reserved for "not executed": an interrupted campaign leaves the slots of
// unreached units zero, and the partial aggregation skips them.
type unitOutcome struct {
	mode      FailureMode
	activated bool
	degraded  bool // a golden checkpoint failed integrity/restore; unit ran straight
	retried   bool // first attempt panicked host-side; retry on a fresh machine succeeded
	// replayed marks an outcome taken from the journal instead of executed
	// this run. It is execution provenance, not part of the unit's result, so
	// it is never journaled — a journal replayed twice still says "replayed"
	// each time about its own run.
	replayed bool
}

func (o unitOutcome) journal() journal.Outcome {
	return journal.Outcome{Mode: uint8(o.mode), Activated: o.activated, Degraded: o.degraded, Retried: o.retried}
}

func outcomeFromJournal(o journal.Outcome) unitOutcome {
	return unitOutcome{mode: FailureMode(o.Mode), activated: o.Activated, degraded: o.Degraded, retried: o.Retried}
}

// execOpts is the resilience configuration of one executor invocation. The
// zero value reproduces the legacy behaviour: background context, no
// journal, no wall-clock deadline.
type execOpts struct {
	ctx         context.Context
	workers     int
	journal     *journal.Journal // completed units are appended; journaled units replayed
	unitTimeout time.Duration    // host wall-clock deadline per unit attempt; 0 = off
	interpOnly  bool             // force step on pooled machines (engine A/B test only)
	// met/tracer instrument execution; both nil outside telemetry-carrying
	// campaigns (the zero value keeps the legacy behaviour and cost).
	met    *campMetrics
	tracer *telemetry.Tracer
}

// runFunc is one dispatch topology: it runs the given unit indices and hands
// each verdict to deliver as it arrives. Goroutines in this process
// (unitExecutor.runLocal), a supervised worker.Pool and a fabric.Coordinator
// all have this shape — the last two as their Run method.
type runFunc func(ctx context.Context, todo []int, deliver func(worker.Result) error) error

// executeUnitsOpts runs a campaign's units on goroutines in this process,
// each through the per-unit isolation of runIsolated: host panics are
// retried once on a fresh machine and then quarantined as HostFault
// verdicts instead of crashing the process.
func executeUnitsOpts(o execOpts, units []runUnit) ([]unitOutcome, error) {
	return dispatch(o, units, "", newUnitExecutor(o, units).runLocal)
}

// dispatch is the one skeleton behind every campaign, whatever executes its
// units — goroutines, worker subprocesses or a fleet of executor hosts:
//
//   - Units already on the journal are replayed from it, not executed —
//     the resume half of crash-safe campaigns.
//   - The rest go to run. Each verdict it delivers is written to its slot,
//     counted, traced and appended to the journal as it arrives, so a kill
//     at any point loses at most in-flight work. deliver is safe for
//     concurrent use.
//   - Cancelling ctx stops the hand-out and drains in-flight units (and
//     their journal appends); the partial outcome slots come back with the
//     context error — the graceful-shutdown half. On any other error the
//     outcomes are nil.
//
// quarantined is the log line's reason for a unit that run reports
// quarantined: one charged with the death of every executor it was
// delivered to. Unreached slots are left at mode 0.
func dispatch(o execOpts, units []runUnit, quarantined string, run runFunc) ([]unitOutcome, error) {
	ctx := o.ctx
	if ctx == nil {
		ctx = context.Background()
	}
	out := make([]unitOutcome, len(units))
	todo := make([]int, 0, len(units))
	for i := range units {
		if o.journal != nil {
			if jo, ok := o.journal.Done(i); ok {
				out[i] = outcomeFromJournal(jo)
				out[i].replayed = true
				o.met.noteReplayed(out[i])
				if o.tracer != nil {
					e := traceUnit(telemetry.KindReplayed, i, &units[i], 0)
					e.Mode = out[i].mode.String()
					o.tracer.Emit(e)
				}
				continue
			}
		}
		todo = append(todo, i)
	}
	if len(todo) == 0 {
		return out, nil
	}
	err := run(ctx, todo, func(r worker.Result) error {
		u := &units[r.Index]
		if r.Quarantined {
			quarantineLog(u, quarantined, nil)
		}
		out[r.Index] = outcomeFromJournal(r.Outcome)
		// The unit index picks the counter shard: concurrent deliveries
		// rarely share one.
		o.met.noteVerdict(r.Index, out[r.Index])
		if o.tracer != nil {
			v := traceUnit(telemetry.KindVerdict, r.Index, u, 0)
			v.Mode = out[r.Index].mode.String()
			o.tracer.Emit(v)
		}
		if o.journal != nil {
			if err := o.journal.Append(r.Index, r.Outcome); err != nil {
				return fmt.Errorf("campaign: %w", err)
			}
		}
		return nil
	})
	if err != nil {
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			return out, err
		}
		return nil, err
	}
	return out, nil
}

// unitExecutor runs units on goroutines in this process. Worker w touches
// only pools[w], so the struct needs no locking.
type unitExecutor struct {
	opts  execOpts
	units []runUnit
	pools []*machinePool
	// host marks a fabric executor host's executor. Its outcomes are not
	// the campaign's verdicts — the coordinator merges those and traces
	// them — so it traces only each unit's dispatched and executed events.
	// skip, consulted as each unit is about to start, drops units revoked
	// since the batch was cut.
	host bool
	skip func(int) bool
}

func newUnitExecutor(o execOpts, units []runUnit) *unitExecutor {
	return &unitExecutor{opts: o, units: units, pools: make([]*machinePool, parallel.DefaultWorkers(o.workers))}
}

func (e *unitExecutor) pool(w int) *machinePool {
	if e.pools[w] == nil {
		e.pools[w] = newMachinePool()
		e.pools[w].met, e.pools[w].w = e.opts.met, w
		e.pools[w].interpOnly = e.opts.interpOnly
	}
	return e.pools[w]
}

// discard drops worker w's machine pool. Called after a host panic or an
// abandoned (timed-out) attempt: the pooled machines may hold corrupted
// state — or still be owned by the abandoned goroutine — and must never be
// handed to another unit.
func (e *unitExecutor) discard(w int) { e.pools[w] = nil }

// runLocal is the in-process runFunc: todo fans out over the configured
// workers, each unit runs with isolation, and each outcome is observed and
// then delivered as it completes. The observability block is bracketed on
// the instruments being nil, so the uninstrumented path pays two checks
// and no time.Now.
func (e *unitExecutor) runLocal(ctx context.Context, todo []int, deliver func(worker.Result) error) error {
	met, tr := e.opts.met, e.opts.tracer
	return parallel.ForEachCtx(ctx, e.opts.workers, len(todo), func(w, k int) error {
		i := todo[k]
		if e.skip != nil && e.skip(i) {
			return nil
		}
		u := &e.units[i]
		var start time.Time
		if met != nil || tr != nil {
			start = time.Now()
			if tr != nil {
				tr.Emit(traceUnit(telemetry.KindDispatched, i, u, w))
			}
		}
		o, err := e.runIsolated(w, u)
		if err != nil {
			return fmt.Errorf("campaign: %s %s case %d: %w", u.program, u.f.ID, u.caseIx, err)
		}
		if !start.IsZero() {
			dur := time.Since(start)
			if met != nil {
				met.unitLatency.Observe(uint64(dur.Microseconds()))
			}
			emitOutcomeTrace(tr, i, u, w, o, dur, !e.host)
		}
		return deliver(worker.Result{Index: i, Outcome: o.journal()})
	})
}

// runIsolated is the per-unit isolation policy: a host-side panic in one
// injection is retried exactly once on a fresh machine (the worker's whole
// pool is discarded — a panicking decode may have corrupted any pooled
// machine), and a second panic — or a wall-clock timeout, or the hard cycle
// quota on either attempt — quarantines the unit as a HostFault verdict
// instead of killing the campaign. Ordinary unit errors (arm failures and
// the like) stay fatal, exactly as before.
func (e *unitExecutor) runIsolated(w int, u *runUnit) (unitOutcome, error) {
	var first *parallel.PanicError
	for attempt := 1; ; attempt++ {
		pool := e.pool(w)
		d0 := pool.degraded
		r, err, timedOut := e.attempt(pool, u, attempt)
		onRetry := ""
		if attempt > 1 {
			onRetry = " on retry"
		}
		var pe *parallel.PanicError
		errors.As(err, &pe)
		var reason string
		var stack []byte
		switch {
		case timedOut:
			reason = fmt.Sprintf("exceeded the %v unit deadline%s; abandoned", e.opts.unitTimeout, onRetry)
		case errors.Is(err, vm.ErrCycleQuota):
			// The hard instruction quota only fires when watchdog accounting
			// is itself broken; the unit's machine state cannot be trusted
			// and a retry would spin just as long. No retry.
			reason = fmt.Sprintf("hard cycle quota%s: %v", onRetry, err)
		case pe != nil && attempt == 1:
			// First attempt panicked host-side: retry once, on a brand-new
			// pool.
			first = pe
			e.discard(w)
			continue
		case pe != nil:
			reason, stack = fmt.Sprintf("host panic on fresh machine after panic %v: %v", first.Value, pe.Value), pe.Stack
		case err != nil:
			return unitOutcome{}, err
		default:
			return unitOutcome{mode: r.Mode, activated: r.Activations > 0, degraded: pool.degraded > d0, retried: attempt > 1}, nil
		}
		e.discard(w)
		quarantineLog(u, reason, stack)
		return unitOutcome{mode: HostFault}, nil
	}
}

// attempt executes one unit attempt, optionally bounded by the host
// wall-clock watchdog. With a deadline armed the attempt runs on its own
// goroutine; on expiry the goroutine is abandoned (it writes only into its
// own channel and the discarded pool, so nothing races) and the unit is
// reported timed out. Without a deadline the attempt runs inline — the
// deterministic default.
func (e *unitExecutor) attempt(pool *machinePool, u *runUnit, attempt int) (RunResult, error, bool) {
	if e.opts.unitTimeout <= 0 {
		r, err := runUnitGuarded(pool, u, attempt)
		return r, err, false
	}
	type res struct {
		r   RunResult
		err error
	}
	ch := make(chan res, 1)
	go func() {
		r, err := runUnitGuarded(pool, u, attempt)
		ch <- res{r, err}
	}()
	t := time.NewTimer(e.opts.unitTimeout)
	defer t.Stop()
	select {
	case v := <-ch:
		return v.r, v.err, false
	case <-t.C:
		return RunResult{}, nil, true
	}
}

// runUnitGuarded executes one unit attempt with panic isolation: a panic
// anywhere in the interpreter, injector or golden-store path comes back as
// a *parallel.PanicError instead of unwinding the worker.
func runUnitGuarded(pool *machinePool, u *runUnit, attempt int) (r RunResult, err error) {
	defer func() {
		if v := recover(); v != nil {
			err = &parallel.PanicError{Value: v, Stack: debug.Stack()}
		}
	}()
	if h := testUnitHook; h != nil {
		h(u, attempt)
	}
	if u.gold != nil {
		return pool.runFastForward(u)
	}
	return pool.runWithFault(u.c, u.cs, u.f, u.mode, u.budget)
}

// testUnitHook, when non-nil (tests only), runs before every unit attempt;
// it may panic or stall to exercise the isolation machinery.
var testUnitHook func(u *runUnit, attempt int)

// quarantineLog records a quarantined unit on stderr with its fault
// descriptor and, for panics, the captured stack. The per-mode tallies only
// say how many units were lost; this is where to look up which.
func quarantineLog(u *runUnit, reason string, stack []byte) {
	fmt.Fprintf(os.Stderr, "campaign: host fault quarantined: program %s fault %s case %d: %s\n",
		u.program, u.f.ID, u.caseIx, reason)
	if len(stack) > 0 {
		os.Stderr.Write(stack)
	}
}

// RunCleanBatch executes the program over every case with no fault armed,
// fanning the runs across workers with pooled machines. Results are in
// case order and identical for any worker count.
func RunCleanBatch(c *cc.Compiled, cases []workload.Case, maxCycles uint64, workers int) ([]RunResult, error) {
	return RunCleanBatchCtx(context.Background(), c, cases, maxCycles, workers)
}

// RunCleanBatchCtx is RunCleanBatch with cooperative cancellation: once ctx
// is done no new case starts, in-flight cases drain, and the ctx error is
// returned (results are dropped — clean batches are cheap to redo and have
// no journal).
func RunCleanBatchCtx(ctx context.Context, c *cc.Compiled, cases []workload.Case, maxCycles uint64, workers int) ([]RunResult, error) {
	return pooledMap(ctx, workers, len(cases), func(p *machinePool, i int) (RunResult, error) {
		return p.runClean(c, &cases[i], maxCycles)
	})
}

// pooledMap is the fan-out of the runs that are not campaign units — clean
// batches, calibration and the emulation studies: fn runs for every index
// in 0..n-1 over the configured workers, each worker with a machine pool of
// its own, and the results come back in index order.
func pooledMap[T any](ctx context.Context, workers, n int, fn func(p *machinePool, i int) (T, error)) ([]T, error) {
	pools := make([]*machinePool, parallel.DefaultWorkers(workers))
	return parallel.MapCtx(ctx, workers, n, func(w, i int) (T, error) {
		if pools[w] == nil {
			pools[w] = newMachinePool()
		}
		return fn(pools[w], i)
	})
}

// Watchdog budget formula (see CalibrateCyclesWorkers): budget = clean-run
// cycles times budgetFactor plus budgetSlack.
const (
	budgetFactor = 3
	budgetSlack  = 50_000
)

// hardQuota derives a unit's hard instruction quota from its watchdog
// budget. The quota sits strictly above the watchdog, so on a healthy host
// it never fires — a hang is always classified by the watchdog as the
// target's own failure mode first. It is the backstop for the pathological
// case where watchdog accounting itself is corrupted (a host bug, not a
// target fault): vm.Run then stops at the quota with vm.ErrCycleQuota and
// runIsolated quarantines the unit as a HostFault instead of spinning the
// worker forever.
const quotaFactor = 4

func hardQuota(maxCycles uint64) uint64 {
	if maxCycles == 0 {
		maxCycles = vm.DefaultMaxCycles // SetMaxCycles treats 0 the same way
	}
	return maxCycles*quotaFactor + budgetSlack
}

// quantileMarks derives the cycle counts the golden runner checkpoints at
// for triggers not tied to a location: the quartiles of the calibrated
// clean-run length, recovered by inverting the budget formula. Location
// faults never use these (the first-arrival checkpoint is always at least
// as good), but skip/random-trigger policies added later can.
func quantileMarks(budget uint64) []uint64 {
	if budget <= budgetSlack {
		return nil
	}
	clean := (budget - budgetSlack) / budgetFactor
	var marks []uint64
	for _, q := range [...]uint64{clean / 4, clean / 2, 3 * clean / 4} {
		if q > 0 && (len(marks) == 0 || q > marks[len(marks)-1]) {
			marks = append(marks, q)
		}
	}
	return marks
}

// calibKey identifies one calibration: budgets depend only on the compiled
// program and the exact case set. Case sets obtained through
// workload.Cached are canonical per (kind, n, seed), so repeated campaigns
// at the same scale and seed hit the cache.
type calibKey struct {
	c     *cc.Compiled
	first *workload.Case
	n     int
}

var calibCache sync.Map // calibKey -> []uint64

// CalibrateCyclesWorkers measures the clean-run cycle count of every case
// over workers (0 selects runtime.GOMAXPROCS(0), 1 the serial path) and
// returns per-case watchdog budgets: a multiple of the clean run plus
// slack. Faulty runs exceeding the budget are classified as hangs — the
// experiment manager's timeout of §6.2. The multiplier leaves room for
// mutations that legitimately lengthen execution (an off-by-one loop bound
// adds a single iteration) while keeping dead loops cheap to detect.
// Budgets are cached per (compiled program, case set), so repeated
// campaigns on the same workload do not recalibrate; the returned slice is
// shared and must be treated as read-only.
func CalibrateCyclesWorkers(c *cc.Compiled, cases []workload.Case, workers int) ([]uint64, error) {
	if len(cases) == 0 {
		return nil, nil
	}
	key := calibKey{c: c, first: &cases[0], n: len(cases)}
	if v, ok := calibCache.Load(key); ok {
		return v.([]uint64), nil
	}
	runs, err := RunCleanBatch(c, cases, vm.DefaultMaxCycles, workers)
	if err != nil {
		return nil, err
	}
	budgets := make([]uint64, len(runs))
	for i, res := range runs {
		if res.Mode != Correct {
			return nil, fmt.Errorf("campaign: clean run %d not correct (mode %v, state %v)", i, res.Mode, res.State)
		}
		budgets[i] = res.Cycles*budgetFactor + budgetSlack
	}
	calibCache.Store(key, budgets)
	return budgets, nil
}
