package campaign

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"time"

	"repro/internal/chaos"
	"repro/internal/fabric"
	"repro/internal/golden"
	"repro/internal/journal"
	"repro/internal/parallel"
	"repro/internal/telemetry"
	"repro/internal/worker"
)

// This file is the distributed half of the campaign executor: with
// Config.Fabric set, the coordinator side of internal/fabric replaces the
// local dispatch loop, and JoinFabric turns any other process — usually on
// another host — into an executor running the identical local stack. As
// with process isolation, the plan never crosses the wire: both sides
// rebuild it from the serialized Config and cross-check the plan
// fingerprint, so the protocol carries only unit indices out and verdicts
// back, and the Result stays bit-identical to a single-host run for any
// fleet size or host-loss history.

// FabricOptions configures the coordinator side of a distributed campaign
// (Config.Fabric).
type FabricOptions struct {
	// Listen is the TCP address the coordinator binds (e.g. ":9370").
	Listen string
	// MinHosts is how many executors must join before the campaign shards;
	// 0 means 1.
	MinHosts int
	// HeartbeatInterval/HeartbeatTimeout tune fabric liveness; zero keeps
	// the worker-supervisor defaults (500ms / 10s), which suit LAN and
	// loopback. WAN links want looser deadlines.
	HeartbeatInterval time.Duration
	HeartbeatTimeout  time.Duration
	// MaxDeliveries is how many executor hosts a unit may go down with
	// before it is quarantined as a HostFault; 0 means 3.
	MaxDeliveries int
	// SessionTimeout is how long an executor session survives a lost
	// connection before its units are redelivered; zero derives 2× the
	// heartbeat timeout.
	SessionTimeout time.Duration
	// Chaos, when non-nil and enabled, wraps every accepted executor
	// connection with deterministic network-fault injection — the campaign
	// fabric's own resilience test harness. Results must stay bit-identical
	// to a clean run; the chaos_* counters report the absorbed abuse.
	Chaos *chaos.Config
}

// JoinOptions configures one executor host (JoinFabric).
type JoinOptions struct {
	// Name identifies this host in coordinator logs and per-host metrics;
	// empty picks the hostname.
	Name string
	// Workers is the local parallelism; 0 picks GOMAXPROCS.
	Workers int
	// Isolation selects how this host runs its units: in-process
	// goroutines (default) or supervised worker subprocesses.
	Isolation Isolation
	// Proc tunes the local worker pool under IsolationProc.
	Proc *ProcOptions
	// UnitPace, when positive, floors each unit's wall time on this host —
	// a fixed per-host service rate. Production paths leave it zero (run
	// flat out); the loopback scaling benchmark sets it so N executors
	// sharing one machine's CPU still model N independent hosts.
	UnitPace time.Duration
	// DialTimeout caps the initial connection establishment, retries
	// included; ReconnectWindow caps re-establishment after a lost
	// connection. Zero keeps the fabric defaults (10s / 60s).
	DialTimeout     time.Duration
	ReconnectWindow time.Duration
	// Chaos, when non-nil and enabled, wraps the dialed coordinator
	// connection with deterministic network-fault injection.
	Chaos *chaos.Config
	// Registry, when non-nil, receives the executor-side fabric and chaos
	// instruments.
	Registry *telemetry.Registry
	// Tracer, when non-nil, records this executor's unit lifecycle events
	// (dispatched/executed); with federation on they are also pushed to the
	// coordinator's merged trace. Nil with federation on creates a private
	// tracer so the merged trace still has a source.
	Tracer *telemetry.Tracer
	// NoFederation disables the telemetry federation plane: no snapshot or
	// trace frames are pushed to the coordinator. Federation is passive and
	// best-effort, so this switches observability only — it is the
	// benchmark's A/B control, not a production knob.
	NoFederation bool
	// FederationInterval floors the time between periodic federation pushes
	// (zero keeps the fabric default of 1s). Tests and benchmarks lower it
	// to exercise the push path at heartbeat speed.
	FederationInterval time.Duration
	// Log receives per-session fabric events; nil silences them.
	Log func(format string, args ...any)
}

// JoinFabric connects to a campaign coordinator and serves assigned unit
// ranges until the campaign completes (nil), the context is cancelled, or
// the session fails. The campaign spec — and with it every planning input —
// comes from the coordinator, so the joining process needs no campaign
// flags of its own.
func JoinFabric(ctx context.Context, addr string, opts JoinOptions) error {
	workers := parallel.DefaultWorkers(opts.Workers)
	// Telemetry federation: unless disabled, every executor-side instrument
	// registers on the federation's registry and every unit lifecycle event
	// lands in its trace buffer, both pushed to the coordinator on the
	// heartbeat cadence. The push is best-effort by construction, so the
	// wiring here changes what the coordinator can observe, never what it
	// merges.
	reg := opts.Registry
	tr := opts.Tracer
	var fed *fabric.Federation
	if !opts.NoFederation {
		if tr == nil {
			tr = telemetry.NewTracer(telemetry.DefaultTraceCap)
		}
		fed = fabric.NewFederation(reg, tr)
		reg = fed.Registry
	}
	// Executor-side storage/IPC chaos: the coordinator's disk is not the
	// only one that can fail. Checkpoint poisoning hits this host's golden
	// store; pipe faults hit its proc-isolation workers. (This host has no
	// journal — the verdicts live on the coordinator — so no disk wrap.)
	inj := storageInjector(opts.Chaos, reg)
	golden.Shared.SetPoison(poisonHook(inj))
	proc := opts.Proc
	if w := pipeWrap(inj); w != nil {
		p := ProcOptions{}
		if proc != nil {
			p = *proc
		}
		p.WrapPipes = w
		proc = &p
	}
	return fabric.Join(ctx, addr, fabric.ExecutorOptions{
		Name:               opts.Name,
		Workers:            workers,
		DialTimeout:        opts.DialTimeout,
		ReconnectWindow:    opts.ReconnectWindow,
		WrapConn:           chaosWrap(opts.Chaos, reg),
		Metrics:            fabric.NewExecutorMetrics(reg),
		Federation:         fed,
		FederationInterval: opts.FederationInterval,
		Log:                opts.Log,
		Batch: func(spec worker.Spec) (fabric.BatchRunner, error) {
			b, err := newFabricBatchRunner(spec, workers, opts.Isolation, proc)
			if err != nil {
				return nil, err
			}
			b.pace = opts.UnitPace
			b.met = newWorkerMetrics(reg)
			b.tracer = tr
			return b, nil
		},
	})
}

// fabricBatchRunner executes assigned batches on the local PR 1–6 stack. It
// re-plans once per session (not per batch) and keeps one unitExecutor with
// per-worker machine pools across batches, so goldens, calibration and
// pooled machines amortise over everything this host is ever assigned.
type fabricBatchRunner struct {
	cfg       Config
	units     []runUnit
	spec      worker.Spec
	workers   int
	isolation Isolation
	proc      *ProcOptions
	pace      time.Duration
	met       *telemetry.WorkerMetrics
	tracer    *telemetry.Tracer
	ex        *unitExecutor
}

func newFabricBatchRunner(spec worker.Spec, workers int, iso Isolation, proc *ProcOptions) (*fabricBatchRunner, error) {
	if spec.Kind != SpecKindCampaign {
		return nil, fmt.Errorf("campaign: fabric spec kind %q, this executor serves %q", spec.Kind, SpecKindCampaign)
	}
	cfg, err := configFromProcSpec(spec.Payload)
	if err != nil {
		return nil, err
	}
	pc, err := planCampaign(&cfg)
	if err != nil {
		return nil, fmt.Errorf("campaign: executor re-planning failed: %w", err)
	}
	if pc.fp != spec.Fingerprint {
		return nil, fmt.Errorf("campaign: rebuilt plan fingerprint %016x does not match the coordinator's %016x; differing builds or configuration", pc.fp, spec.Fingerprint)
	}
	return &fabricBatchRunner{
		cfg:       cfg,
		units:     pc.units,
		spec:      spec,
		workers:   workers,
		isolation: iso,
		proc:      proc,
		ex: &unitExecutor{
			opts:  execOpts{unitTimeout: cfg.UnitTimeout},
			units: pc.units,
			out:   make([]unitOutcome, len(pc.units)),
			pools: make([]*machinePool, workers),
		},
	}, nil
}

func (b *fabricBatchRunner) Units() int { return len(b.units) }

func (b *fabricBatchRunner) RunBatch(ctx context.Context, batch []int, skip func(int) bool, emit func(int, journal.Outcome, []byte) error) error {
	if b.isolation == IsolationProc {
		return b.runBatchProc(ctx, batch, skip, emit)
	}
	return parallel.ForEachCtx(ctx, b.workers, len(batch), func(w, k int) error {
		u := batch[k]
		if skip(u) {
			return nil
		}
		if b.tracer != nil {
			b.tracer.Emit(traceUnit(telemetry.KindDispatched, u, &b.units[u], w))
		}
		start := time.Now()
		o, err := b.ex.runIsolated(w, &b.units[u])
		if err != nil {
			return fmt.Errorf("%s %s case %d: %w", b.units[u].program, b.units[u].f.ID, b.units[u].caseIx, err)
		}
		if b.tracer != nil {
			e := traceUnit(telemetry.KindExecuted, u, &b.units[u], w)
			e.DurUS = time.Since(start).Microseconds()
			b.tracer.Emit(e)
		}
		if b.pace > 0 {
			if d := b.pace - time.Since(start); d > 0 {
				select {
				case <-ctx.Done():
					return ctx.Err()
				case <-time.After(d):
				}
			}
		}
		return emit(u, o.journal(), nil)
	})
}

// runBatchProc serves a batch through a supervised local worker pool: the
// full sandbox semantics of IsolationProc, one subprocess fleet per batch.
// Units stolen after the batch was cut are filtered only at the start —
// the pool owns in-flight dispatch — so a mid-batch steal can execute
// twice; the coordinator's merge drops the duplicate.
func (b *fabricBatchRunner) runBatchProc(ctx context.Context, batch []int, skip func(int) bool, emit func(int, journal.Outcome, []byte) error) error {
	todo := batch[:0:0]
	for _, u := range batch {
		if !skip(u) {
			todo = append(todo, u)
		}
	}
	if len(todo) == 0 {
		return nil
	}
	po := b.proc
	if po == nil {
		po = &ProcOptions{}
	}
	spawn := po.Spawn
	if spawn == nil {
		spawn = defaultSpawn
	}
	pool, err := worker.NewPool(worker.Options{
		Workers:           b.workers,
		Command:           spawn,
		Spec:              b.spec,
		HeartbeatInterval: po.HeartbeatInterval,
		HeartbeatTimeout:  po.HeartbeatTimeout,
		UnitTimeout:       b.cfg.UnitTimeout,
		MaxDeliveries:     po.MaxDeliveries,
		MaxRestarts:       po.MaxRestarts,
		BackoffBase:       po.BackoffBase,
		BackoffMax:        po.BackoffMax,
		MemQuota:          po.MemQuota,
		Quarantine:        journal.Outcome{Mode: uint8(HostFault)},
		WrapPipes:         po.WrapPipes,
		Metrics:           b.met,
		Tracer:            b.tracer,
		Log: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "campaign: "+format+"\n", args...)
		},
	})
	if err != nil {
		return err
	}
	return pool.Run(ctx, todo, func(r worker.Result) error {
		return emit(r.Index, r.Outcome, r.Payload)
	})
}

// executeUnitsFabric is the coordinator-side counterpart of
// executeUnitsProc: journaled units are replayed exactly as everywhere
// else, the rest are sharded over the executor fleet, and every verdict is
// journaled as it arrives. On completion the journal is canonicalized —
// rewritten in unit order — so its bytes are independent of which host
// finished which unit when.
func executeUnitsFabric(cfg *Config, o execOpts, units []runUnit, fp uint64) ([]unitOutcome, []telemetry.HostStats, error) {
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
		return out, nil, nil
	}

	spec, err := procSpecFromConfig(cfg, fp)
	if err != nil {
		return nil, nil, err
	}
	fo := cfg.Fabric
	// The sidecar WAL journals the coordinator's scheduling state next to
	// the verdict journal. A crashed coordinator restarted with -resume
	// finds it and rebuilds the session table and outstanding ranges; a
	// completed campaign removes it — only the canonical journal outlives
	// the run.
	side, err := openFabricSide(o.journal, fp, storageWrap(cfg.StorageChaos))
	if err != nil {
		return nil, nil, err
	}
	// The fleet tracker mirrors the coordinator's session table for the
	// /fleet endpoint, the TTY note and the report's hosts section. Its
	// total is the distributed portion only (replayed units never cross the
	// wire). SetFleetSource late-binds it to a -debug-addr server that
	// started before planning.
	reg := cfg.Telemetry.Registry()
	fleet := fabric.NewFleetTracker(len(todo), reg)
	telemetry.SetFleetSource(fleet.Source())
	defer telemetry.SetFleetSource(nil)
	coord, err := fabric.NewCoordinator(fabric.CoordinatorOptions{
		Addr:              fo.Listen,
		MinHosts:          fo.MinHosts,
		Spec:              spec,
		Units:             len(units),
		HeartbeatInterval: fo.HeartbeatInterval,
		HeartbeatTimeout:  fo.HeartbeatTimeout,
		SessionTimeout:    fo.SessionTimeout,
		MaxDeliveries:     fo.MaxDeliveries,
		Quarantine:        journal.Outcome{Mode: uint8(HostFault)},
		Side:              side,
		WrapConn:          chaosWrap(fo.Chaos, reg),
		Metrics:           newFabricMetrics(reg),
		Tracer:            o.tracer,
		Registry:          reg,
		Fleet:             fleet,
		Log: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "campaign: "+format+"\n", args...)
		},
	})
	if err != nil {
		if side != nil {
			side.Close()
		}
		return nil, nil, err
	}

	// onResult runs on the coordinator's event-loop goroutine, so the slot
	// writes and journal appends are serialized, exactly as in the proc
	// path.
	err = coord.Run(ctx, todo, func(r worker.Result) error {
		if r.Quarantined {
			u := &units[r.Index]
			quarantineLog(u, "went down with its executor host on every delivery; quarantined by the coordinator", nil)
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
		// The journal is canonicalized by Run, as on every executor path.
		// Completed campaign: the scheduling state is spent; drop the
		// sidecar so a later -resume replays only the verdict journal.
		if side != nil {
			if rerr := side.Remove(); rerr != nil {
				fmt.Fprintf(os.Stderr, "campaign: removing fabric sidecar: %v\n", rerr)
			}
		}
		return out, fleet.HostStats(), nil
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		// Interrupted: keep the sidecar on disk — it is exactly what a
		// restarted coordinator needs to recover its sessions.
		if side != nil {
			side.Close()
		}
		return out, fleet.HostStats(), err
	default:
		if side != nil {
			side.Close()
		}
		return nil, nil, err
	}
}

// openFabricSide opens (resume) or creates the coordinator's sidecar WAL
// next to the verdict journal, bound to the plan fingerprint. Without a
// journal there is nothing to recover into, so no sidecar is kept. A
// storage-chaos wrap applies to the sidecar exactly as the CLI applies it
// to the journal: both files live on the same (possibly failing) disk.
func openFabricSide(j *journal.Journal, fp uint64, wrap journal.Wrap) (*journal.SideLog, error) {
	if j == nil {
		return nil, nil
	}
	path := j.Path() + ".fabric"
	var side *journal.SideLog
	var err error
	if j.Resumed() {
		if _, serr := os.Stat(path); serr == nil {
			side, err = journal.OpenSideWrapped(path, wrap)
		} else {
			// The previous run completed its fabric bookkeeping (or ran
			// pre-sidecar); start scheduling state fresh.
			side, err = journal.CreateSideWrapped(path, wrap)
		}
	} else {
		side, err = journal.CreateSideWrapped(path, wrap)
	}
	if err != nil {
		return nil, fmt.Errorf("campaign: fabric sidecar: %w", err)
	}
	if err := side.Bind(fp); err != nil {
		side.Close()
		return nil, fmt.Errorf("campaign: fabric sidecar: %w", err)
	}
	return side, nil
}

// chaosWrap builds the fabric connection wrapper for a chaos config; nil or
// disabled configs yield nil (no wrapping).
func chaosWrap(cfg *chaos.Config, reg *telemetry.Registry) func(net.Conn) net.Conn {
	if !cfg.Enabled() {
		return nil
	}
	return chaos.New(*cfg, chaos.NewMetrics(reg)).Wrap
}

// storageInjector builds the storage/IPC-plane injector for a chaos config;
// nil when the config carries no disk, pipe or poison faults. It is a
// separate instance from the connection wrapper's, which is harmless: each
// plane's handle ordinals are counted independently, so the schedules are
// identical either way.
func storageInjector(cfg *chaos.Config, reg *telemetry.Registry) *chaos.Chaos {
	if !cfg.DiskEnabled() && !cfg.PipeEnabled() && (cfg == nil || cfg.DiskPoison <= 0) {
		return nil
	}
	return chaos.New(*cfg, chaos.NewMetrics(reg))
}

// storageWrap adapts a storage-chaos injector into the journal package's
// File substitution hook; nil (no wrapping) unless disk faults are
// configured.
func storageWrap(c *chaos.Chaos) journal.Wrap {
	if cc := c.Config(); !cc.DiskEnabled() {
		return nil
	}
	return func(f *os.File) journal.File { return c.WrapFile(f) }
}

// pipeWrap adapts a storage-chaos injector into the worker supervisor's
// pipe interposition hook; nil (no wrapping) unless pipe faults are
// configured.
func pipeWrap(c *chaos.Chaos) func(io.WriteCloser, io.Reader) (io.WriteCloser, io.Reader) {
	if cc := c.Config(); !cc.PipeEnabled() {
		return nil
	}
	return c.WrapPipes
}

// newFabricMetrics registers the coordinator's instruments on reg; nil
// registry, nil bundle (metrics off).
func newFabricMetrics(reg *telemetry.Registry) *fabric.Metrics {
	return fabric.NewMetrics(reg)
}
