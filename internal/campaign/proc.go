package campaign

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"time"

	"repro/internal/chaos"
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
	BackoffBase       time.Duration
	BackoffMax        time.Duration
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
		UnitTimeout:   time.Duration(s.UnitTimeoutMS) * time.Millisecond,
	}, nil
}

// executorFromSpec is the receiving side of a campaign spec, shared by worker
// subprocesses and fabric executor hosts: it re-plans the campaign from the
// spec payload and verifies the rebuilt plan's fingerprint against the
// sender's (a mismatch means differing builds or program tables — executing
// under a wrong unit numbering would corrupt the campaign silently). The
// returned executor serves the plan's units on the given number of
// goroutines, with the spec's unit timeout.
func executorFromSpec(spec worker.Spec, sender string, workers int) (*unitExecutor, error) {
	if spec.Kind != SpecKindCampaign {
		return nil, fmt.Errorf("campaign: spec kind %q from the %s, this process serves %q", spec.Kind, sender, SpecKindCampaign)
	}
	cfg, err := configFromProcSpec(spec.Payload)
	if err != nil {
		return nil, err
	}
	pc, err := planCampaign(&cfg)
	if err != nil {
		return nil, fmt.Errorf("campaign: re-planning the %s's campaign failed: %w", sender, err)
	}
	if pc.fp != spec.Fingerprint {
		return nil, fmt.Errorf("campaign: rebuilt plan fingerprint %016x does not match the %s's %016x; differing builds or configuration", pc.fp, sender, spec.Fingerprint)
	}
	return newUnitExecutor(execOpts{workers: workers, unitTimeout: cfg.UnitTimeout}, pc.units), nil
}

// WorkerFactory is the worker.Factory for campaign specs: it re-plans the
// campaign (executorFromSpec) and serves units through the same per-unit
// isolation path (runIsolated) the in-process executor uses, so
// panic-retry, timeout and cycle-quota semantics are identical in both
// modes.
func WorkerFactory(spec worker.Spec) (worker.Runner, error) {
	ex, err := executorFromSpec(spec, "supervisor", 1)
	if err != nil {
		return nil, err
	}
	return campaignRunner{ex}, nil
}

// campaignRunner executes units inside a worker process. It is a
// single-worker unitExecutor behind the worker.Runner interface: worker
// subprocesses are single-threaded unit servers that run their window of
// units one at a time, in order (parallelism lives in the pool, one
// process per slot), so slot 0 is the only pool.
type campaignRunner struct{ ex *unitExecutor }

func (r campaignRunner) Units() int { return len(r.ex.units) }

// testProcUnitHook, when non-nil (worker processes in tests only), runs
// before each unit a campaignRunner serves; it may kill or stop the worker
// process to exercise the supervisor.
var testProcUnitHook func(unit int)

func (r campaignRunner) Run(unit int) (journal.Outcome, []byte, error) {
	if h := testProcUnitHook; h != nil {
		h(unit)
	}
	o, err := r.ex.runIsolated(0, &r.ex.units[unit])
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

// newProcPool builds the supervised worker pool behind IsolationProc, for a
// campaign (executeUnitsProc) and a fabric executor host's batches alike:
// o.workers slots serving spec, with o's unit timeout and tracer. po's zero
// fields pick the worker package defaults, and a nil Spawn re-executes this
// binary in worker mode. The worker pipes carry storage's pipe faults, if
// any (Config.StorageChaos; JoinOptions.Chaos on an executor host).
func newProcPool(spec worker.Spec, o execOpts, po *ProcOptions, storage *chaos.Chaos, met *telemetry.WorkerMetrics) (*worker.Pool, error) {
	if po == nil {
		po = &ProcOptions{}
	}
	spawn := po.Spawn
	if spawn == nil {
		spawn = defaultSpawn
	}
	return worker.NewPool(worker.Options{
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
		Quarantine:        journal.Outcome{Mode: uint8(HostFault)},
		WrapPipes:         pipeWrap(storage),
		Metrics:           met,
		Tracer:            o.tracer,
		Log: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "campaign: "+format+"\n", args...)
		},
	})
}

// executeUnitsProc is the IsolationProc runFunc under dispatch: the units
// are driven through a supervised worker pool. If the pool's circuit
// breaker trips — the host cannot keep worker subprocesses alive — the
// units still missing run in-process instead of failing the campaign.
func executeUnitsProc(cfg *Config, o execOpts, units []runUnit, fp uint64) ([]unitOutcome, error) {
	return dispatch(o, units, "crashed its worker subprocess on every delivery; quarantined by the supervisor",
		func(ctx context.Context, todo []int, deliver func(worker.Result) error) error {
			spec, err := procSpecFromConfig(cfg, fp)
			if err != nil {
				return err
			}
			pool, err := newProcPool(spec, o, cfg.Proc, cfg.StorageChaos, telemetry.NewWorkerMetrics(cfg.Telemetry.Registry()))
			if err != nil {
				return err
			}
			// The pool serializes its callbacks, so done needs no lock.
			done := make([]bool, len(units))
			err = pool.Run(ctx, todo, func(r worker.Result) error {
				done[r.Index] = true
				return deliver(r)
			})
			if !errors.Is(err, worker.ErrCircuitOpen) {
				return err
			}
			// Graceful degradation: process isolation is unavailable on this
			// host right now, but the campaign itself is fine.
			fmt.Fprintf(os.Stderr, "campaign: process isolation degraded to in-process execution (%v)\n", err)
			rest := todo[:0:0]
			for _, i := range todo {
				if !done[i] {
					rest = append(rest, i)
				}
			}
			return newUnitExecutor(o, units).runLocal(ctx, rest, deliver)
		})
}
