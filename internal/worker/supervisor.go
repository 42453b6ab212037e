package worker

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os/exec"
	"sync"
	"time"

	"repro/internal/journal"
	"repro/internal/telemetry"
)

// ErrCircuitOpen is returned by Pool.Run when worker churn exceeded
// Options.MaxRestarts: the host evidently cannot sustain process isolation
// (fork bombs into OOM, a broken binary, a hostile ulimit), so the caller
// should degrade to in-process execution rather than burn restarts forever.
var ErrCircuitOpen = errors.New("worker: circuit breaker open: too many worker restarts")

// Result is one unit's verdict as delivered to the Pool.Run callback.
// Quarantined is set when the unit crashed MaxDeliveries workers and was
// assigned Options.Quarantine instead of a real verdict.
type Result struct {
	Index       int
	Outcome     journal.Outcome
	Payload     []byte
	Quarantined bool
}

// Options configures a supervising Pool. Zero values pick the documented
// defaults; Command and Spec are mandatory.
type Options struct {
	// Workers is the number of worker processes (default 1).
	Workers int

	// Command builds the (not yet started) worker subprocess. Stdin/Stdout
	// are taken over by the pool; Stderr is left as the caller set it.
	Command func() *exec.Cmd

	// Spec is sent to every worker in the hello frame.
	Spec Spec

	// HeartbeatInterval is the cadence workers are told to beat at
	// (default 500ms). HeartbeatTimeout is how long the supervisor tolerates
	// total silence — no heartbeat, no verdict — before declaring the worker
	// wedged and killing it (default 10s).
	HeartbeatInterval time.Duration
	HeartbeatTimeout  time.Duration

	// UnitTimeout, when positive, bounds one unit's wall clock. The
	// supervisor's hard deadline per unit is 2*UnitTimeout +
	// HeartbeatTimeout, counted from when the unit becomes the oldest
	// unanswered one of its worker: the worker enforces the same timeout
	// internally and reports a host fault, so the supervisor's deadline
	// only fires when the worker is too wedged to do even that.
	UnitTimeout time.Duration

	// MaxDeliveries is how many workers a unit may take down before it is
	// quarantined with the Quarantine outcome (default 2: one retry). Only
	// a death the unit is known to have caused counts (see orphan).
	MaxDeliveries int

	// MaxRestarts is the pool-wide churn budget: abnormal worker deaths
	// beyond it trip the circuit breaker (default max(8, 2*Workers)).
	// Clean self-recycles (verdict with last set) are free.
	MaxRestarts int

	// BackoffBase/BackoffMax shape the exponential restart backoff
	// (defaults 100ms and 5s).
	BackoffBase time.Duration
	BackoffMax  time.Duration

	// Quarantine is the outcome recorded for a unit that exhausted
	// MaxDeliveries.
	Quarantine journal.Outcome

	// Log, when non-nil, receives one line per supervision event (worker
	// death, redelivery, quarantine, breaker trip).
	Log func(format string, args ...any)

	// WrapPipes, when non-nil, intercepts the supervisor's side of each
	// spawned worker's pipes (the stdin writer and the stdout reader)
	// before any frame crosses them. It exists for the chaos layer: the
	// wrapper corrupts, truncates or severs the byte streams, and the CRC
	// framing plus the restart/redelivery machinery must absorb it. The
	// wrapped writer's Close must close the underlying pipe.
	WrapPipes func(w io.WriteCloser, r io.Reader) (io.WriteCloser, io.Reader)

	// Metrics, when non-nil, counts supervision events (restarts,
	// redeliveries, quarantines, breaker state) and observes the heartbeat
	// gap and delivery latency. Tracer, when non-nil, receives the matching
	// structured events. Both are passive: verdicts and requeue decisions
	// are identical with them on or off.
	Metrics *telemetry.WorkerMetrics
	Tracer  *telemetry.Tracer

	// memQuota is the worker RSS self-recycle threshold in bytes (default
	// 2GiB; tests lower it). Workers check it on each heartbeat tick.
	memQuota uint64
}

func (o *Options) fill() {
	if o.Workers < 1 {
		o.Workers = 1
	}
	if o.HeartbeatInterval <= 0 {
		o.HeartbeatInterval = DefaultHeartbeatInterval
	}
	if o.HeartbeatTimeout <= 0 {
		o.HeartbeatTimeout = DefaultHeartbeatTimeout
	}
	if o.MaxDeliveries < 1 {
		o.MaxDeliveries = 2
	}
	if o.MaxRestarts == 0 {
		o.MaxRestarts = 2 * o.Workers
		if o.MaxRestarts < 8 {
			o.MaxRestarts = 8
		}
	}
	if o.BackoffBase <= 0 {
		o.BackoffBase = 100 * time.Millisecond
	}
	if o.BackoffMax <= 0 {
		o.BackoffMax = 5 * time.Second
	}
	if o.memQuota == 0 {
		o.memQuota = 2 << 30
	}
}

func (o *Options) logf(format string, args ...any) {
	if o.Log != nil {
		o.Log(format, args...)
	}
}

// Pool supervises a fleet of worker subprocesses and drives a set of unit
// indices through them.
type Pool struct {
	opts Options
}

// NewPool validates and captures the options.
func NewPool(opts Options) (*Pool, error) {
	if opts.Command == nil {
		return nil, errors.New("worker: Options.Command is required")
	}
	opts.fill()
	return &Pool{opts: opts}, nil
}

// window is how many units a worker slot keeps in flight. The supervisor
// tops a window up, in one write, once half of it has been answered, and
// the worker runs it in order and coalesces its verdicts, so a unit costs
// a fraction of a pipe round trip instead of two context switches. It is
// a constant, not a tunable: a deeper window saves little more and widens
// the set of units a worker death leaves unattributed. A run too small to
// give every slot a few full windows uses a shallower one (see Run), so
// its units still spread over all the workers.
const window = 32

// job is one unit delivery attempt.
type job struct {
	index      int
	deliveries int       // worker deaths this unit has been charged with
	sent       time.Time // when its exec frame was written (metrics only)
}

// poolRun is the shared state of one Pool.Run call.
type poolRun struct {
	opts *Options
	// jobs holds units that join a window; solo holds units delivered
	// alone — suspects of a death nobody could be charged with, and units
	// charged with one — so that a death on them is attributed exactly.
	// Each unit sits in at most one place, so both are sized to the run
	// and sends never block.
	jobs  chan job
	solo  chan job
	depth int           // units a slot keeps in flight, at most window
	done  chan struct{} // closed when every unit has a final answer

	mu        sync.Mutex
	remaining int
	restarts  int
	tripped   bool
	onResult  func(Result) error
	cbErr     error // first error from onResult; aborts the run
}

// Run executes the given unit indices across the pool and calls onResult
// exactly once per index (serialised; never concurrently). It returns nil
// when every index has a verdict or a quarantine, ErrCircuitOpen when the
// breaker tripped (some indices then have no result — the caller falls back
// in-process), ctx.Err() on cancellation, or the first error returned by
// onResult.
func (p *Pool) Run(ctx context.Context, indices []int, onResult func(Result) error) error {
	if len(indices) == 0 {
		return nil
	}
	r := &poolRun{
		opts:      &p.opts,
		jobs:      make(chan job, len(indices)),
		solo:      make(chan job, len(indices)),
		done:      make(chan struct{}),
		remaining: len(indices),
		onResult:  onResult,
	}
	for _, ix := range indices {
		r.jobs <- job{index: ix}
	}

	workers := p.opts.Workers
	if workers > len(indices) {
		workers = len(indices) // never spawn a process with nothing to do
	}
	// Every slot should cycle through its window a few times: a small run
	// of heavy units must not queue behind the first worker to start while
	// the others idle.
	r.depth = min(window, max(1, len(indices)/(4*workers)))
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(slot int) {
			defer wg.Done()
			r.manage(ctx, slot)
		}(i)
	}
	wg.Wait()

	r.mu.Lock()
	defer r.mu.Unlock()
	if r.cbErr != nil {
		return r.cbErr
	}
	if err := ctx.Err(); err != nil && r.remaining > 0 {
		return err
	}
	if r.tripped {
		return ErrCircuitOpen
	}
	return nil
}

// finish delivers a final answer for a unit and closes the run when it was
// the last one.
func (r *poolRun) finish(res Result) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.cbErr == nil && r.onResult != nil {
		if err := r.onResult(res); err != nil {
			r.cbErr = err
			r.closeDone()
			return
		}
	}
	r.remaining--
	if r.remaining == 0 {
		r.closeDone()
	}
}

// abort stops the run without finishing the remaining units.
func (r *poolRun) abort(err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.cbErr == nil {
		r.cbErr = err
	}
	r.closeDone()
}

func (r *poolRun) closeDone() {
	select {
	case <-r.done:
	default:
		close(r.done)
	}
}

// churn counts one abnormal worker death and reports whether the breaker is
// now open.
func (r *poolRun) churn() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.restarts++
	if m := r.opts.Metrics; m != nil {
		m.Restarts.Inc()
	}
	r.opts.Tracer.Emit(telemetry.Event{Kind: telemetry.KindRestart, Detail: fmt.Sprintf("restart %d/%d", r.restarts, r.opts.MaxRestarts)})
	if r.restarts > r.opts.MaxRestarts && !r.tripped {
		r.tripped = true
		if m := r.opts.Metrics; m != nil {
			m.BreakerOpen.Set(1)
		}
		r.opts.Tracer.Emit(telemetry.Event{Kind: telemetry.KindBreaker, Detail: fmt.Sprintf("after %d restarts", r.restarts)})
		r.opts.logf("worker: circuit breaker open after %d restarts; degrading to in-process execution", r.restarts)
		r.closeDone()
	}
	return r.tripped
}

func (r *poolRun) isTripped() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.tripped
}

// orphan settles the units a worker left unanswered when it died
// abnormally. The worker runs its window in order but buffers verdicts, so
// with more than one unit outstanding nobody can tell which one it died
// on: they all go back uncharged, as suspects delivered alone. A unit
// outstanding alone is the one the worker died on and is charged with the
// death. An innocent unit is thus never charged, and a unit that kills
// every worker is still quarantined, one respawn later than it would be
// without the window.
func (r *poolRun) orphan(slot int, lost []job) {
	switch len(lost) {
	case 0:
	case 1:
		r.charge(lost[0])
	default:
		units := make([]int, len(lost))
		for i, j := range lost {
			units[i] = j.index
			if m := r.opts.Metrics; m != nil {
				m.Redeliveries.Inc()
			}
			r.opts.Tracer.Emit(telemetry.Event{Kind: telemetry.KindRedeliver, Unit: j.index, Detail: "suspect"})
			r.solo <- j
		}
		r.opts.logf("worker[%d]: units %v unanswered at death; redelivered alone as suspects, uncharged", slot, units)
	}
}

// charge counts a worker death against the unit it died on and delivers
// it again alone, or quarantines it when deliveries are exhausted.
func (r *poolRun) charge(j job) {
	j.deliveries++
	if j.deliveries >= r.opts.MaxDeliveries {
		if m := r.opts.Metrics; m != nil {
			m.Quarantines.Inc()
		}
		r.opts.Tracer.Emit(telemetry.Event{Kind: telemetry.KindQuarantine, Unit: j.index, Detail: "exhausted worker deliveries"})
		r.opts.logf("worker: unit %d crashed %d workers; quarantined as host fault", j.index, j.deliveries)
		r.finish(Result{Index: j.index, Outcome: r.opts.Quarantine, Quarantined: true})
		return
	}
	if m := r.opts.Metrics; m != nil {
		m.Redeliveries.Inc()
	}
	r.opts.Tracer.Emit(telemetry.Event{Kind: telemetry.KindRedeliver, Unit: j.index})
	r.opts.logf("worker: unit %d redelivered (attempt %d/%d)", j.index, j.deliveries+1, r.opts.MaxDeliveries)
	r.solo <- j
}

// putBack returns a unit taken for a worker that turned out to be dead
// before the unit was sent, to the queue it came from, uncharged.
func (r *poolRun) putBack(j job, solo bool) {
	if solo {
		r.solo <- j
	} else {
		r.jobs <- j
	}
}

// manage is one worker slot's lifecycle loop: spawn (with backoff), drain
// jobs through the live worker, account its death, repeat — until the run
// completes, the context is cancelled, or the breaker opens.
func (r *poolRun) manage(ctx context.Context, slot int) {
	backoff := r.opts.BackoffBase
	for {
		select {
		case <-r.done:
			return
		case <-ctx.Done():
			return
		default:
		}
		if r.isTripped() {
			return
		}

		w, err := spawn(r.opts)
		if err != nil {
			r.opts.logf("worker[%d]: spawn failed: %v", slot, err)
			if r.churn() {
				return
			}
			if !sleepCtx(ctx, r.done, backoff) {
				return
			}
			backoff = nextBackoff(backoff, r.opts.BackoffMax)
			continue
		}

		clean := r.serve(ctx, slot, w)
		w.kill()
		if clean {
			backoff = r.opts.BackoffBase // a self-recycle is not churn
			continue
		}
		if r.churn() {
			return
		}
		if !sleepCtx(ctx, r.done, backoff) {
			return
		}
		backoff = nextBackoff(backoff, r.opts.BackoffMax)
	}
}

// serve runs one worker from handshake to death. It returns true when the
// worker ended cleanly (self-recycle or run completion) and false on any
// abnormal death, which the caller counts as churn.
func (r *poolRun) serve(ctx context.Context, slot int, w *liveWorker) bool {
	// beat observes the gap between consecutive heartbeats from this worker;
	// a no-op without metrics.
	var lastBeat time.Time
	beat := func() {
		if m := r.opts.Metrics; m != nil && m.HeartbeatGap != nil {
			now := time.Now()
			if !lastBeat.IsZero() {
				m.HeartbeatGap.Observe(uint64(now.Sub(lastBeat).Microseconds()))
			}
			lastBeat = now
		}
	}

	// Handshake: wait for ready, tolerating heartbeats (planning inside the
	// worker can be slow, and heartbeats start before it).
	deadline := time.NewTimer(r.opts.HeartbeatTimeout)
	defer deadline.Stop()
	for {
		select {
		case <-ctx.Done():
			return true // not the worker's fault
		case <-r.done:
			return true
		case <-deadline.C:
			r.opts.logf("worker[%d]: no ready frame within %v", slot, r.opts.HeartbeatTimeout)
			return false
		case fr, ok := <-w.frames:
			if !ok {
				r.opts.logf("worker[%d]: died during handshake: %v", slot, w.readErr())
				return false
			}
			switch fr.typ {
			case MsgHeartbeat:
				beat()
				resetTimer(deadline, r.opts.HeartbeatTimeout)
				continue
			case MsgError:
				r.abort(fmt.Errorf("worker[%d]: %s", slot, fr.payload))
				return true
			case MsgReady:
				rd, err := DecodeReady(fr.payload)
				if err != nil {
					r.opts.logf("worker[%d]: %v", slot, err)
					return false
				}
				if err := CheckPeer(rd.Version, rd.Fingerprint, r.opts.Spec.Fingerprint); err != nil {
					r.abort(fmt.Errorf("worker[%d] %w", slot, err))
					return true
				}
				w.units = int(rd.Units)
			default:
				r.opts.logf("worker[%d]: frame type %d during handshake", slot, fr.typ)
				return false
			}
		}
		break
	}

	// Serve loop. inflight holds the units sent to this worker and not yet
	// answered, in the order the worker runs them. A unit from r.solo is
	// sent only into an empty window, and nothing joins it until it is
	// answered; r.solo goes first whenever the window is empty.
	var (
		inflight    []job
		solo        bool
		batch       []job
		lastVerdict time.Time
		hard        <-chan time.Time
	)
	hardTimer := time.NewTimer(time.Hour)
	hardTimer.Stop()
	defer hardTimer.Stop()
	// headChanged re-arms the hard deadline for the unit at the head of the
	// window: the worker starts it once everything before it has finished.
	// Heartbeats do not re-arm it.
	headChanged := func() {
		if r.opts.UnitTimeout <= 0 {
			return
		}
		if len(inflight) == 0 {
			hardTimer.Stop()
			hard = nil
			return
		}
		resetTimer(hardTimer, 2*r.opts.UnitTimeout+r.opts.HeartbeatTimeout)
		hard = hardTimer.C
	}
	// died logs an abnormal death and settles the units it left unanswered.
	died := func(format string, args ...any) bool {
		r.opts.logf("worker[%d]: "+format, append([]any{slot}, args...)...)
		r.orphan(slot, inflight)
		return false
	}
	for {
		batch = batch[:0]
		if len(inflight) == 0 {
			solo = false
			select {
			case j := <-r.solo:
				batch, solo = append(batch, j), true
			default:
				select {
				case <-ctx.Done():
					return true
				case <-r.done:
					return true
				case j := <-r.solo:
					batch, solo = append(batch, j), true
				case j := <-r.jobs:
					batch = append(batch, j)
				}
			}
			// Read what the worker sent while it idled: a death in there is
			// not the fault of the unit about to be sent. An idle worker is
			// not watched otherwise, so one that dies waiting for work is
			// not respawned before there is work for it.
		drain:
			for {
				select {
				case fr, ok := <-w.frames:
					if !ok {
						r.putBack(batch[0], solo)
						return died("died while idle: %v", w.readErr())
					}
					switch fr.typ {
					case MsgHeartbeat:
						beat()
					case MsgError:
						r.abort(fmt.Errorf("worker[%d]: %s", slot, fr.payload))
						return true
					default:
						r.putBack(batch[0], solo)
						return died("unexpected frame type %d while idle", fr.typ)
					}
				default:
					break drain
				}
			}
		}
		// While units wait to be delivered alone, a window is left to
		// drain instead of topped up, so they reach warm workers too,
		// not only freshly respawned ones that must rebuild their golden
		// runs first.
		if !solo && len(inflight) <= r.depth/2 && len(r.solo) == 0 {
		fill:
			for len(inflight)+len(batch) < r.depth {
				select {
				case j := <-r.jobs:
					batch = append(batch, j)
				default:
					break fill
				}
			}
		}
		if len(batch) > 0 {
			for _, j := range batch {
				if j.index >= w.units {
					// The worker planned fewer units than the supervisor;
					// its fingerprint matched so this is unreachable in
					// practice, but an out-of-range exec would kill the
					// worker and burn a delivery.
					r.abort(fmt.Errorf("worker[%d]: plan has %d units, supervisor wants unit %d", slot, w.units, j.index))
					return true
				}
			}
			if m := r.opts.Metrics; m != nil && m.DeliveryLatency != nil {
				now := time.Now()
				for i := range batch {
					batch[i].sent = now
				}
			}
			idle := len(inflight) == 0
			inflight = append(inflight, batch...)
			if err := w.sendExecs(batch); err != nil {
				return died("delivering %d units: %v", len(batch), err)
			}
			if idle {
				headChanged()
				resetTimer(deadline, r.opts.HeartbeatTimeout)
			}
		}

		select {
		case <-ctx.Done():
			return true
		case <-r.done:
			return true
		case <-deadline.C:
			return died("silent for %v with %d units in flight; killing", r.opts.HeartbeatTimeout, len(inflight))
		case <-hard:
			return died("unit %d exceeded the hard deadline; killing", inflight[0].index)
		case fr, ok := <-w.frames:
			if !ok {
				return died("died with %d units in flight: %v", len(inflight), w.readErr())
			}
			resetTimer(deadline, r.opts.HeartbeatTimeout)
			switch fr.typ {
			case MsgHeartbeat:
				beat()
			case MsgError:
				r.abort(fmt.Errorf("worker[%d]: %s", slot, fr.payload))
				return true
			case MsgVerdict:
				v, err := DecodeVerdict(fr.payload)
				if err != nil {
					return died("%v", err)
				}
				j := inflight[0]
				if int(v.Unit) != j.index {
					return died("verdict for unit %d, expected %d", v.Unit, j.index)
				}
				if m := r.opts.Metrics; m != nil && m.DeliveryLatency != nil {
					// Verdicts of a window arrive back to back, so each is
					// timed from the later of its own send and the previous
					// verdict: the time the worker could have spent on it.
					now := time.Now()
					start := j.sent
					if lastVerdict.After(start) {
						start = lastVerdict
					}
					m.DeliveryLatency.Observe(uint64(now.Sub(start).Microseconds()))
					lastVerdict = now
				}
				inflight = inflight[1:]
				r.finish(Result{Index: j.index, Outcome: v.Outcome, Payload: v.Payload})
				if v.Last {
					// A self-recycle is not a death: the rest of the window
					// goes back uncharged, to whichever worker is free.
					r.opts.logf("worker[%d]: self-recycled after unit %d (memory quota)", slot, j.index)
					for _, j := range inflight {
						r.jobs <- j
					}
					return true
				}
				headChanged()
			default:
				return died("unexpected frame type %d", fr.typ)
			}
		}
	}
}

// frame is one received frame.
type frame struct {
	typ     uint8
	payload []byte
}

// liveWorker is one running subprocess with its reader pump.
type liveWorker struct {
	cmd    *exec.Cmd
	stdin  io.WriteCloser
	frames chan frame
	units  int // unit count from the worker's ready frame
	met    *telemetry.WorkerMetrics
	wbuf   []byte // exec batch being written

	mu   sync.Mutex
	rerr error

	killOnce sync.Once
}

// spawn starts a worker and completes the supervisor half of the handshake
// opening (hello is sent; ready is awaited by the caller).
func spawn(opts *Options) (*liveWorker, error) {
	cmd := opts.Command()
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		stdin.Close()
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		stdin.Close()
		return nil, err
	}
	var in io.WriteCloser = stdin
	var out io.Reader = stdout
	if opts.WrapPipes != nil {
		in, out = opts.WrapPipes(stdin, stdout)
	}
	// frames has room for a whole window of verdicts, so the reader never
	// waits on the supervisor in the middle of a coalesced batch.
	w := &liveWorker{cmd: cmd, stdin: in, frames: make(chan frame, window), met: opts.Metrics}
	go w.pump(out)

	if err := WriteFrameCRC(in, MsgHello, EncodeHello(Hello{
		Version:           ProtocolVersion,
		HeartbeatInterval: opts.HeartbeatInterval,
		HeartbeatTimeout:  opts.HeartbeatTimeout,
		MemQuota:          opts.memQuota,
		Spec:              opts.Spec,
	})); err != nil {
		w.kill()
		return nil, err
	}
	return w, nil
}

// pump reads frames off the worker's stdout into the channel. Heartbeats
// are dropped when the channel is full (they carry no data; losing one must
// not wedge the reader behind a slow supervisor).
func (w *liveWorker) pump(r io.Reader) {
	br := bufio.NewReader(r)
	for {
		typ, payload, err := ReadFrameCRC(br)
		if err != nil {
			if w.met != nil && errors.Is(err, ErrFrameCRC) {
				w.met.FramesRejected.Inc()
			}
			w.mu.Lock()
			w.rerr = err
			w.mu.Unlock()
			close(w.frames)
			return
		}
		if typ == MsgHeartbeat {
			select {
			case w.frames <- frame{typ: typ}:
			default:
			}
			continue
		}
		w.frames <- frame{typ: typ, payload: payload}
	}
}

func (w *liveWorker) readErr() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.rerr == nil || w.rerr == io.EOF {
		return errors.New("worker process exited")
	}
	return w.rerr
}

// sendExecs writes the exec frames for a batch of units in one write.
func (w *liveWorker) sendExecs(batch []job) error {
	w.wbuf = w.wbuf[:0]
	var ix [4]byte
	for _, j := range batch {
		binary.LittleEndian.PutUint32(ix[:], uint32(j.index))
		w.wbuf, _ = appendFrameCRC(w.wbuf, MsgExec, ix[:]) // a 4-byte payload always fits
	}
	_, err := w.stdin.Write(w.wbuf)
	return err
}

// kill tears the worker down unconditionally and reaps it. Safe to call
// multiple times and after a clean exit.
func (w *liveWorker) kill() {
	w.killOnce.Do(func() {
		w.stdin.Close()
		if w.cmd.Process != nil {
			_ = w.cmd.Process.Kill()
		}
		_ = w.cmd.Wait()
		// Drain so the pump goroutine can exit even if it was blocked
		// sending a non-heartbeat frame.
		for range w.frames {
		}
	})
}

func nextBackoff(d, max time.Duration) time.Duration {
	d *= 2
	if d > max {
		return max
	}
	return d
}

// sleepCtx sleeps for d unless the context or the run finishes first; it
// reports whether the caller should keep going.
func sleepCtx(ctx context.Context, done <-chan struct{}, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-done:
		return false
	case <-t.C:
		return true
	}
}

// resetTimer safely re-arms a timer that may have fired or be pending.
func resetTimer(t *time.Timer, d time.Duration) {
	if !t.Stop() {
		select {
		case <-t.C:
		default:
		}
	}
	t.Reset(d)
}
