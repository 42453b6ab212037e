package campaign

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"time"

	"repro/internal/fault"
	"repro/internal/injector"
	"repro/internal/journal"
	"repro/internal/parallel"
	"repro/internal/telemetry"
	"repro/internal/worker"
)

// This file is the process-isolation half of the campaign executor: with
// Config.Isolation set to IsolationProc, units execute in supervised worker
// subprocesses (internal/worker) instead of goroutines. The campaign plan
// is never shipped over the wire — both sides rebuild it deterministically
// from the serialized Config and cross-check the plan fingerprint in the
// handshake — so the protocol carries only unit indices out and verdicts
// back, and the Result stays bit-identical to in-process execution for any
// worker count: the same units, in the same slots, folded in the same
// planning order.

// Isolation selects where campaign units execute.
type Isolation int

const (
	// IsolationInProc runs units on goroutines in this process (the
	// default; fastest, but a hard host failure in one unit can take the
	// whole campaign down with it).
	IsolationInProc Isolation = iota
	// IsolationProc runs units in supervised worker subprocesses: a host
	// crash, OOM-kill or wedge costs one worker and a redelivery of the
	// units it had in flight, never the campaign.
	IsolationProc
)

func (i Isolation) String() string {
	switch i {
	case IsolationInProc:
		return "inproc"
	case IsolationProc:
		return "proc"
	default:
		return fmt.Sprintf("isolation(%d)", int(i))
	}
}

// ProcOptions tunes the worker pool used under IsolationProc. The zero
// value (and a nil *ProcOptions) selects the worker package defaults plus
// self-re-exec spawning; tests override Spawn and the cadences.
type ProcOptions struct {
	// Spawn builds one (not yet started) worker subprocess. nil re-executes
	// the current binary with the single argument -worker-mode, which every
	// CLI wires to worker.Serve.
	Spawn func() *exec.Cmd

	HeartbeatInterval time.Duration
	HeartbeatTimeout  time.Duration
	MaxDeliveries     int
	MaxRestarts       int
	MemQuota          int64
	BackoffBase       time.Duration
	BackoffMax        time.Duration

	// WrapPipes, when non-nil, interposes on every worker subprocess's
	// stdin/stdout pair — the storage/IPC chaos plane's hook for corrupting,
	// truncating or severing supervisor pipes (see worker.Options.WrapPipes).
	// Production paths leave it nil.
	WrapPipes func(w io.WriteCloser, r io.Reader) (io.WriteCloser, io.Reader)
}

// SpecKindCampaign is the worker.Spec kind for class campaigns (§6).
const SpecKindCampaign = "campaign/v1"

// procSpec is the JSON worker spec payload: exactly the Config fields that
// determine the campaign plan (everything planFingerprint hashes is derived
// from these plus the compiled programs), with execution-only knobs reduced
// to the ones the worker itself enforces per unit.
type procSpec struct {
	Programs      []string       `json:"programs"`
	Classes       []int          `json:"classes"`
	CasesPerFault int            `json:"cases_per_fault"`
	ChosenAssign  map[string]int `json:"chosen_assign,omitempty"`
	ChosenCheck   map[string]int `json:"chosen_check,omitempty"`
	Seed          int64          `json:"seed"`
	Mode          int            `json:"mode"`
	MetricGuided  bool           `json:"metric_guided"`
	NoFastForward bool           `json:"no_fast_forward"`
	InterpOnly    bool           `json:"interp_only"`
	UnitTimeoutMS int64          `json:"unit_timeout_ms"`
}

// procSpecFromConfig serializes a filled Config into the wire spec.
func procSpecFromConfig(cfg *Config, fp uint64) (worker.Spec, error) {
	classes := make([]int, len(cfg.Classes))
	for i, c := range cfg.Classes {
		classes[i] = int(c)
	}
	payload, err := json.Marshal(procSpec{
		Programs:      cfg.Programs,
		Classes:       classes,
		CasesPerFault: cfg.CasesPerFault,
		ChosenAssign:  cfg.ChosenAssign,
		ChosenCheck:   cfg.ChosenCheck,
		Seed:          cfg.Seed,
		Mode:          int(cfg.Mode),
		MetricGuided:  cfg.MetricGuided,
		NoFastForward: cfg.NoFastForward,
		InterpOnly:    cfg.InterpOnly,
		UnitTimeoutMS: cfg.UnitTimeout.Milliseconds(),
	})
	if err != nil {
		return worker.Spec{}, err
	}
	return worker.Spec{Kind: SpecKindCampaign, Fingerprint: fp, Payload: payload}, nil
}

// configFromProcSpec is the worker-side inverse.
func configFromProcSpec(payload []byte) (Config, error) {
	var s procSpec
	if err := json.Unmarshal(payload, &s); err != nil {
		return Config{}, fmt.Errorf("campaign: bad worker spec: %w", err)
	}
	classes := make([]fault.Class, len(s.Classes))
	for i, c := range s.Classes {
		classes[i] = fault.Class(c)
	}
	return Config{
		Programs:      s.Programs,
		Classes:       classes,
		CasesPerFault: s.CasesPerFault,
		ChosenAssign:  s.ChosenAssign,
		ChosenCheck:   s.ChosenCheck,
		Seed:          s.Seed,
		Mode:          injector.Mode(s.Mode),
		MetricGuided:  s.MetricGuided,
		NoFastForward: s.NoFastForward,
		InterpOnly:    s.InterpOnly,
		UnitTimeout:   time.Duration(s.UnitTimeoutMS) * time.Millisecond,
	}, nil
}

// WorkerFactory is the worker.Factory for campaign specs: it re-plans the
// campaign from the spec payload, verifies the rebuilt plan's fingerprint
// against the supervisor's (a mismatch means differing builds or program
// tables — executing under a wrong unit numbering would corrupt the
// campaign silently), and serves units through the same per-unit isolation
// path (runIsolated) the in-process executor uses, so panic-retry, timeout
// and cycle-quota semantics are identical in both modes.
func WorkerFactory(spec worker.Spec) (worker.Runner, error) {
	if spec.Kind != SpecKindCampaign {
		return nil, fmt.Errorf("campaign: worker spec kind %q, this factory serves %q", spec.Kind, SpecKindCampaign)
	}
	cfg, err := configFromProcSpec(spec.Payload)
	if err != nil {
		return nil, err
	}
	pc, err := planCampaign(&cfg)
	if err != nil {
		return nil, fmt.Errorf("campaign: worker re-planning failed: %w", err)
	}
	if pc.fp != spec.Fingerprint {
		return nil, fmt.Errorf("campaign: rebuilt plan fingerprint %016x does not match the supervisor's %016x; differing builds or configuration", pc.fp, spec.Fingerprint)
	}
	return &campaignRunner{
		units: pc.units,
		ex: &unitExecutor{
			opts:  execOpts{unitTimeout: cfg.UnitTimeout, interpOnly: cfg.InterpOnly},
			units: pc.units,
			out:   make([]unitOutcome, len(pc.units)),
			pools: make([]*machinePool, 1),
		},
	}, nil
}

// campaignRunner executes units inside a worker process. It is a
// single-worker unitExecutor behind the worker.Runner interface: worker
// subprocesses are single-threaded unit servers that run their window of
// units one at a time, in order (parallelism lives in the pool, one
// process per slot), so slot 0 is the only pool.
type campaignRunner struct {
	units []runUnit
	ex    *unitExecutor
}

func (r *campaignRunner) Units() int { return len(r.units) }

// testProcUnitHook, when non-nil (worker processes in tests only), runs
// before each unit a campaignRunner serves; it may kill or stop the worker
// process to exercise the supervisor.
var testProcUnitHook func(unit int)

func (r *campaignRunner) Run(unit int) (journal.Outcome, []byte, error) {
	if h := testProcUnitHook; h != nil {
		h(unit)
	}
	o, err := r.ex.runIsolated(0, &r.units[unit])
	if err != nil {
		return journal.Outcome{}, nil, err
	}
	return o.journal(), nil, nil
}

// defaultSpawn re-executes the current binary in worker mode.
func defaultSpawn() *exec.Cmd {
	exe, err := os.Executable()
	if err != nil {
		exe = os.Args[0]
	}
	cmd := exec.Command(exe, "-worker-mode")
	cmd.Stderr = os.Stderr
	return cmd
}

// executeUnitsProc is the IsolationProc counterpart of executeUnitsOpts:
// journaled units are replayed exactly as in-process, the rest are driven
// through a supervised worker pool, and every verdict is journaled as it
// arrives. If the pool's circuit breaker trips — the host cannot keep
// worker subprocesses alive — the campaign degrades to in-process execution
// for the units still missing rather than failing, with the completed
// verdicts carried over via the prefill slots.
func executeUnitsProc(cfg *Config, o execOpts, units []runUnit, fp uint64) ([]unitOutcome, error) {
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

	spec, err := procSpecFromConfig(cfg, fp)
	if err != nil {
		return nil, err
	}
	po := cfg.Proc
	if po == nil {
		po = &ProcOptions{}
	}
	spawn := po.Spawn
	if spawn == nil {
		spawn = defaultSpawn
	}
	var wm *telemetry.WorkerMetrics
	if o.met != nil && cfg.Telemetry != nil {
		wm = newWorkerMetrics(cfg.Telemetry.Registry())
	}
	pool, err := worker.NewPool(worker.Options{
		Workers:           parallel.DefaultWorkers(o.workers),
		Command:           spawn,
		Spec:              spec,
		HeartbeatInterval: po.HeartbeatInterval,
		HeartbeatTimeout:  po.HeartbeatTimeout,
		UnitTimeout:       o.unitTimeout,
		MaxDeliveries:     po.MaxDeliveries,
		MaxRestarts:       po.MaxRestarts,
		BackoffBase:       po.BackoffBase,
		BackoffMax:        po.BackoffMax,
		MemQuota:          po.MemQuota,
		Quarantine:        journal.Outcome{Mode: uint8(HostFault)},
		WrapPipes:         po.WrapPipes,
		Metrics:           wm,
		Tracer:            o.tracer,
		Log: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "campaign: "+format+"\n", args...)
		},
	})
	if err != nil {
		return nil, err
	}

	// onResult is serialized by the pool, so the slot writes and journal
	// appends need no further locking.
	err = pool.Run(ctx, todo, func(r worker.Result) error {
		if r.Quarantined {
			u := &units[r.Index]
			quarantineLog(u, "crashed its worker subprocess on every delivery; quarantined by the supervisor", nil)
		}
		out[r.Index] = outcomeFromJournal(r.Outcome)
		o.met.noteVerdict(0, out[r.Index])
		if o.tracer != nil {
			u := &units[r.Index]
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
	switch {
	case err == nil:
		return out, nil
	case errors.Is(err, worker.ErrCircuitOpen):
		// Graceful degradation: process isolation is unavailable on this
		// host right now, but the campaign itself is fine. Finish the
		// missing units in-process; completed verdicts ride along as
		// prefilled slots (and are already journaled).
		fmt.Fprintf(os.Stderr, "campaign: process isolation degraded to in-process execution (%v)\n", err)
		o.prefill = out
		return executeUnitsOpts(o, units)
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		return out, err
	default:
		return nil, err
	}
}
