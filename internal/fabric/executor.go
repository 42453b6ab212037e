package fabric

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"os"
	"sort"
	"sync"
	"time"

	"repro/internal/journal"
	"repro/internal/telemetry"
	"repro/internal/worker"
)

// BatchRunner executes assigned units on the local stack. One BatchRunner
// serves the whole executor session; RunBatch is called once per drained
// queue, never concurrently with itself.
type BatchRunner interface {
	// Units returns the total unit count of the rebuilt plan, echoed to
	// the coordinator in the ready frame.
	Units() int
	// RunBatch executes the given sorted units. skip is consulted as each
	// unit is about to start: it reports units revoked (stolen) since the
	// batch was cut, which the runner should not spend time on — skipping
	// is an optimisation, not a correctness requirement, because duplicate
	// verdicts are dropped at the merge. emit ships one verdict; it is
	// safe to call from concurrent workers and never fails on a connection
	// loss (the verdict is buffered and retransmitted after reconnecting).
	// A returned error is fatal to the executor session.
	RunBatch(ctx context.Context, units []int, skip func(int) bool, emit func(unit int, o journal.Outcome, payload []byte) error) error
}

// BatchFactory builds the session's BatchRunner from the spec in the
// coordinator's hello frame — the executor-side analogue of worker.Factory.
// It runs before the ready frame, so it is where the executor re-plans and
// where a fingerprint mismatch should surface as an error.
type BatchFactory func(spec worker.Spec) (BatchRunner, error)

// ExecutorMetrics observes the executor's resilience path. All fields are
// optional.
type ExecutorMetrics struct {
	// Reconnects counts successful redials after a lost connection.
	Reconnects *telemetry.Counter
	// Resumes counts welcomes that re-attached to a surviving session.
	Resumes *telemetry.Counter
}

// ExecutorOptions configures one Join session.
type ExecutorOptions struct {
	// Name identifies this host in coordinator logs, traces and per-host
	// metrics (default: os.Hostname, falling back to the local address).
	Name string
	// Workers is the parallelism advertised to the coordinator; the
	// initial shard is weighted by it (default 1).
	Workers int
	// Batch builds the local execution stack from the campaign spec.
	Batch BatchFactory
	// DialTimeout caps the total time Join spends establishing the first
	// connection, retries included (default 10s). The coordinator binds
	// its port only after planning the campaign, so refused connections
	// are retried — with backoff, honoring context cancellation — until
	// the window closes.
	DialTimeout time.Duration
	// ReconnectWindow caps the total time a lost connection may spend
	// re-establishing before the session is abandoned (default 60s).
	// Execution continues through the outage; only the wire goes quiet.
	ReconnectWindow time.Duration
	// WrapConn, when non-nil, wraps every dialed connection — the hook
	// the chaos proxy plugs into.
	WrapConn func(net.Conn) net.Conn
	// Metrics observes reconnects and session resumes; passive.
	Metrics *ExecutorMetrics
	// Federation, when non-nil, enables the telemetry federation plane:
	// registry snapshots and drained trace events are pushed to the
	// coordinator on the heartbeat tick, strictly best-effort (dropped
	// under backpressure, never blocking the verdict path, never
	// retransmitted). Results are bit-identical with or without it.
	Federation *Federation
	// FederationInterval floors the time between periodic federation
	// pushes (default 1s). Pushes piggyback on heartbeat ticks but must
	// not amplify the wire's write rate: under chaos every write is a
	// sever lottery, and a per-tick push at an aggressive heartbeat can
	// turn a survivable link into a reconnect storm. Counters are
	// cumulative, so a slower cadence costs staleness only; the final
	// flush on shutdown ignores the floor.
	FederationInterval time.Duration
	// Log, when non-nil, receives one line per session event.
	Log func(format string, args ...any)
}

func (o *ExecutorOptions) logf(format string, args ...any) {
	if o.Log != nil {
		o.Log(format, args...)
	}
}

// fatalError marks errors that must not trigger a reconnect: the
// coordinator rejected or aborted this executor, or the local batch stack
// failed. Redialing could only repeat the failure.
type fatalError struct{ error }

func (e fatalError) Unwrap() error { return e.error }

// Join connects to a coordinator, rebuilds the plan from the hello spec,
// and executes assigned unit ranges until the coordinator sends shutdown
// (clean end: returns nil), the context is cancelled, or the session fails
// fatally. A lost connection is not fatal: execution continues, verdicts
// are buffered, and the executor redials with backoff — re-attaching to its
// session, retransmitting unacknowledged verdicts — for up to
// ReconnectWindow before giving up.
func Join(ctx context.Context, addr string, opts ExecutorOptions) error {
	if opts.Batch == nil {
		return errors.New("fabric: ExecutorOptions.Batch is required")
	}
	if opts.Workers < 1 {
		opts.Workers = 1
	}
	if opts.Name == "" {
		if hn, err := os.Hostname(); err == nil {
			opts.Name = hn
		}
	}
	if opts.DialTimeout <= 0 {
		opts.DialTimeout = 10 * time.Second
	}
	if opts.ReconnectWindow <= 0 {
		opts.ReconnectWindow = 60 * time.Second
	}
	x := &executor{
		addr:    addr,
		opts:    &opts,
		revoked: make(map[int]bool),
		wake:    make(chan struct{}, 1),
		runErr:  make(chan error, 1),
	}
	opts.logf("fabric: joining coordinator at %s", addr)
	conn, err := x.dialRetry(ctx, opts.DialTimeout)
	if err != nil {
		return err
	}
	if opts.Name == "" {
		opts.Name = conn.LocalAddr().String()
	}

	// Cancellation severs the current connection, which unblocks every
	// read and write immediately; the dial loops check ctx themselves.
	stop := context.AfterFunc(ctx, x.sever)
	defer stop()

	runCtx, runCancel := context.WithCancel(ctx)
	defer runCancel()

	finish := func(sessErr error) error {
		runCancel()
		if x.batchStarted {
			if err := <-x.runErr; err != nil && !errors.Is(err, context.Canceled) {
				return err
			}
		}
		return sessErr
	}

	for {
		err := x.session(runCtx, conn)
		if ctx.Err() != nil {
			return finish(ctx.Err())
		}
		x.qmu.Lock()
		released := x.shutdown
		x.qmu.Unlock()
		if released {
			// Clean shutdown: the coordinator has every verdict it needs;
			// buffered retransmits are moot. A real batch error still
			// surfaces (the shutdown may be the coordinator reacting to
			// this executor's own error frame).
			if err := finish(nil); err != nil {
				return err
			}
			x.opts.logf("fabric: campaign complete; coordinator released this executor")
			return nil
		}
		if berr := x.batchError(); berr != nil {
			return finish(berr)
		}
		var fe fatalError
		if errors.As(err, &fe) {
			return finish(err)
		}
		// Connection lost. Execution keeps running; redial and re-attach.
		x.opts.logf("fabric: connection lost (%v); redialing for up to %v", err, x.opts.ReconnectWindow)
		conn2, rerr := x.dialRetry(ctx, x.opts.ReconnectWindow)
		if rerr != nil {
			if ctx.Err() != nil {
				return finish(ctx.Err())
			}
			// The coordinator stayed unreachable for the whole window. If
			// this executor holds no work — empty queue, no batch running —
			// the likeliest story is a campaign that ended while the wire
			// was too mangled to deliver the shutdown frame. Exit cleanly:
			// there is nothing left this host could contribute, and any
			// verdicts still unacked are surplus a restarted coordinator
			// re-derives by redelivery (duplicates are merged away).
			x.qmu.Lock()
			idle := len(x.queue) == 0 && x.running == nil
			x.qmu.Unlock()
			if idle {
				x.smu.Lock()
				surplus := len(x.unacked)
				x.smu.Unlock()
				if surplus > 0 {
					x.opts.logf("fabric: abandoning %d unacknowledged verdict(s); a resumed campaign re-runs those units", surplus)
				}
				x.opts.logf("fabric: coordinator gone and no work left (%v); treating the campaign as ended", rerr)
				if err := finish(nil); err != nil {
					return err
				}
				return nil
			}
			return finish(fmt.Errorf("fabric: connection lost (%v); %w", err, rerr))
		}
		if m := x.opts.Metrics; m != nil && m.Reconnects != nil {
			m.Reconnects.Inc()
		}
		conn = conn2
	}
}

// executor is one Join call's state, spanning every reconnected session.
type executor struct {
	addr string
	opts *ExecutorOptions

	wmu sync.Mutex // serialises frame writes (verdicts vs heartbeats)

	smu       sync.Mutex       // session identity and the retransmit buffer
	conn      net.Conn         // current connection; nil during an outage
	token     uint64           // session token from the last welcome (0 = none yet)
	name      string           // the coordinator's name for the session, from the last welcome
	seq       uint32           // last verdict sequence stamped
	unacked   []worker.Verdict // sent or pending verdicts not yet acknowledged
	ackedSeq  uint32           // coordinator's cumulative ack watermark
	lastAckAt time.Time        // last watermark advance (stall detection)

	qmu      sync.Mutex   // taken after smu when both are held
	queue    []int        // assigned, not yet handed to RunBatch; sorted
	running  map[int]bool // the batch inside RunBatch, less units answered or skipped; nil between batches
	revoked  map[int]bool // stolen; skip if not yet started
	wake     chan struct{}
	shutdown bool

	bmu      sync.Mutex
	batchErr error

	runner       BatchRunner
	units        int
	fp           uint64 // the first hello's plan fingerprint
	batchStarted bool
	runErr       chan error

	hb worker.Hello // negotiated timings

	lastFedPush time.Time // heartbeat-goroutine only; floors the push cadence
}

// sever closes the current connection (context cancellation path).
func (x *executor) sever() {
	x.smu.Lock()
	defer x.smu.Unlock()
	if x.conn != nil {
		x.conn.Close()
	}
}

// dialRetry establishes one TCP connection within the given window,
// retrying with jittered exponential backoff. Context cancellation aborts
// both the in-flight dial and the backoff sleeps; the window caps the total
// wait, not each attempt.
func (x *executor) dialRetry(ctx context.Context, window time.Duration) (net.Conn, error) {
	deadline := time.Now().Add(window)
	backoff := 100 * time.Millisecond
	var lastErr error
	for attempt := 0; ; attempt++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		remaining := time.Until(deadline)
		if remaining <= 0 {
			return nil, fmt.Errorf("fabric: no connection to %s within %v: %w", x.addr, window, lastErr)
		}
		attemptTimeout := remaining
		if attemptTimeout > 5*time.Second {
			attemptTimeout = 5 * time.Second
		}
		d := net.Dialer{Timeout: attemptTimeout}
		conn, err := d.DialContext(ctx, "tcp", x.addr)
		if err == nil {
			if x.opts.WrapConn != nil {
				conn = x.opts.WrapConn(conn)
			}
			return conn, nil
		}
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		lastErr = err
		if attempt == 0 {
			x.opts.logf("fabric: coordinator unreachable (%v); retrying for up to %v", err, window)
		}
		sleep := backoff + time.Duration(rand.Int63n(int64(backoff)))
		if sleep > remaining {
			sleep = remaining
		}
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-time.After(sleep):
		}
		if backoff < 2*time.Second {
			backoff *= 2
		}
	}
}

// write sends one CRC frame under a write deadline.
func (x *executor) write(conn net.Conn, typ uint8, payload []byte) error {
	x.wmu.Lock()
	defer x.wmu.Unlock()
	_ = conn.SetWriteDeadline(time.Now().Add(x.hb.HeartbeatTimeout))
	return worker.WriteFrameCRC(conn, typ, payload)
}

func (x *executor) setBatchError(err error) {
	x.bmu.Lock()
	x.batchErr = err
	x.bmu.Unlock()
}

func (x *executor) batchError() error {
	x.bmu.Lock()
	defer x.bmu.Unlock()
	return x.batchErr
}

// session drives one connection from handshake to loss or shutdown.
func (x *executor) session(ctx context.Context, conn net.Conn) error {
	defer func() {
		x.smu.Lock()
		if x.conn == conn {
			x.conn = nil
		}
		x.smu.Unlock()
		conn.Close()
	}()

	// Handshake: hello in, re-plan (first session only), ready out. The
	// hello read gets a generous fixed deadline because the negotiated
	// timeout is inside it.
	_ = conn.SetReadDeadline(time.Now().Add(30 * time.Second))
	typ, payload, err := worker.ReadFrameCRC(conn)
	if err != nil {
		return fmt.Errorf("fabric: reading hello: %w", err)
	}
	if typ == worker.MsgError {
		return fatalError{fmt.Errorf("fabric: coordinator: %s", payload)}
	}
	if typ != worker.MsgHello {
		return fmt.Errorf("fabric: expected hello, got frame type %d", typ)
	}
	h, err := worker.DecodeHello(payload)
	if err != nil {
		return err
	}
	// x.fp is zero until the first hello: a session built for one plan
	// refuses a coordinator that now plans another.
	if err := worker.CheckPeer(h.Version, h.Spec.Fingerprint, x.fp); err != nil {
		return fatalError{fmt.Errorf("fabric: coordinator %w", err)}
	}
	if h.HeartbeatInterval <= 0 {
		h.HeartbeatInterval = worker.DefaultHeartbeatInterval
	}
	if h.HeartbeatTimeout <= 0 {
		h.HeartbeatTimeout = worker.DefaultHeartbeatTimeout
	}
	// The negotiated timings are stored once: after the first session the
	// batch loop's emit path reads x.hb concurrently, and a coordinator
	// restart does not renegotiate.
	if x.runner == nil {
		x.hb = h
	}

	// Heartbeats start before the (possibly slow) re-plan so the
	// coordinator's handshake deadline does not fire while we build.
	hbCtx, hbCancel := context.WithCancel(ctx)
	defer hbCancel()
	go func() {
		t := time.NewTicker(h.HeartbeatInterval)
		defer t.Stop()
		for {
			select {
			case <-hbCtx.Done():
				return
			case <-t.C:
				if x.write(conn, worker.MsgHeartbeat, nil) != nil {
					return // reader sees the dead conn too
				}
				x.maybeRetransmit(conn)
				x.pushTelemetry(conn, false)
			}
		}
	}()

	if x.runner == nil {
		runner, err := x.opts.Batch(h.Spec)
		if err != nil {
			_ = x.write(conn, worker.MsgError, []byte(err.Error()))
			return fatalError{fmt.Errorf("fabric: building batch runner: %w", err)}
		}
		x.runner = runner
		x.units = runner.Units()
		x.fp = h.Spec.Fingerprint
	}

	// The claim lets a coordinator that no longer knows this session (it
	// restarted, or expired the session) adopt it with the units held here.
	x.smu.Lock()
	x.qmu.Lock()
	token := x.token
	claimed := sortedUnits(x.heldLocked())
	x.qmu.Unlock()
	x.smu.Unlock()
	if err := x.write(conn, worker.MsgReady, worker.EncodeReady(worker.Ready{
		Version:     worker.ProtocolVersion,
		Fingerprint: x.fp,
		Units:       uint32(x.units),
		Workers:     uint32(x.opts.Workers),
		Token:       token,
		Name:        x.opts.Name,
		Claimed:     encodeRuns(claimed),
	})); err != nil {
		return fmt.Errorf("fabric: sending ready: %w", err)
	}

	if err := x.awaitWelcome(conn); err != nil {
		return err
	}

	// The batch loop runs concurrently with the read loop — and across
	// reconnects: assigns and revokes keep landing while a batch executes,
	// and a batch keeps executing while the wire is down.
	if !x.batchStarted {
		x.batchStarted = true
		x.opts.logf("fabric: ready as %q: %d-unit plan, %d workers", x.name, x.units, x.opts.Workers)
		go func() { x.runErr <- x.batchLoop(ctx, x.runner) }()
	}

	return x.readLoop(conn)
}

// awaitWelcome reads the coordinator's welcome and installs the session:
// the retransmit buffer is pruned to the coordinator's ack watermark and
// the remainder is flushed, and the queue stays — a coordinator that knows
// this session kept its assignments, one that did not adopted the claim.
// (A fresh session is a first join, with nothing buffered or queued.) The
// session lock is held across the flush so a concurrent emit cannot
// interleave a new verdict ahead of a retransmit (sequence numbers must
// reach the coordinator in order).
func (x *executor) awaitWelcome(conn net.Conn) error {
	for {
		_ = conn.SetReadDeadline(time.Now().Add(x.hb.HeartbeatTimeout))
		typ, payload, err := worker.ReadFrameCRC(conn)
		if err != nil {
			return fmt.Errorf("fabric: reading welcome: %w", err)
		}
		switch typ {
		case worker.MsgHeartbeat:
			continue
		case worker.MsgError:
			return fatalError{fmt.Errorf("fabric: coordinator: %s", payload)}
		case worker.MsgShutdown:
			// Reconnected into the campaign's goodbye phase: the work is
			// done. Answer with the receipt the coordinator waits for.
			x.qmu.Lock()
			x.shutdown = true
			x.qmu.Unlock()
			_ = x.write(conn, worker.MsgShutdown, nil)
			return errors.New("fabric: released during handshake")
		case msgWelcome:
			w, err := decodeWelcome(payload)
			if err != nil {
				return err
			}
			x.smu.Lock()
			defer x.smu.Unlock()
			kept := x.unacked[:0]
			for _, v := range x.unacked {
				if v.Seq > w.Acked {
					kept = append(kept, v)
				}
			}
			// Re-stamp the survivors consecutively above the
			// coordinator's watermark. Against a coordinator that acked
			// this session before, this is the identity (cumulative acks
			// leave the buffer contiguous at acked+1..seq) — but a
			// coordinator that adopted the session starts it at watermark
			// 0 while this buffer's prefix was acked by its predecessor,
			// and without renumbering the gap below the buffer's first seq
			// would pin the new watermark at 0 forever: nothing prunes,
			// every stall re-sends everything.
			for i := range kept {
				kept[i].Seq = w.Acked + uint32(i+1)
			}
			x.unacked = kept
			x.seq = w.Acked + uint32(len(kept))
			if w.Resumed {
				if m := x.opts.Metrics; m != nil && m.Resumes != nil {
					m.Resumes.Inc()
				}
				x.opts.logf("fabric: session %d resumed as %q; retransmitting %d unacknowledged verdict(s)", w.Token, w.Name, len(x.unacked))
			}
			x.token, x.name = w.Token, w.Name
			x.ackedSeq = w.Acked
			x.lastAckAt = time.Now()
			for _, v := range x.unacked {
				if err := x.write(conn, worker.MsgVerdict, worker.EncodeVerdict(v)); err != nil {
					return fmt.Errorf("fabric: retransmitting verdicts: %w", err)
				}
			}
			x.conn = conn
			return nil
		default:
			return fmt.Errorf("fabric: expected welcome, got frame type %d", typ)
		}
	}
}

// readLoop drains coordinator frames until shutdown or a dead connection.
func (x *executor) readLoop(conn net.Conn) error {
	for {
		_ = conn.SetReadDeadline(time.Now().Add(x.hb.HeartbeatTimeout))
		typ, payload, err := worker.ReadFrameCRC(conn)
		if err != nil {
			if err == io.EOF {
				return fmt.Errorf("fabric: coordinator closed the connection")
			}
			return fmt.Errorf("fabric: reading from coordinator: %w", err)
		}
		switch typ {
		case worker.MsgHeartbeat:
		case msgAck:
			seq, err := decodeAck(payload)
			if err != nil {
				return err
			}
			x.smu.Lock()
			if seq > x.ackedSeq {
				x.ackedSeq = seq
				x.lastAckAt = time.Now()
			}
			kept := x.unacked[:0]
			for _, v := range x.unacked {
				if v.Seq > seq {
					kept = append(kept, v)
				}
			}
			x.unacked = kept
			x.smu.Unlock()
		case msgAssign:
			units, err := decodeRuns(payload, x.units)
			if err != nil {
				return err
			}
			// An assign never re-queues a unit this host already holds: a
			// re-attach and a stall nudge re-send whole outstanding ranges,
			// and a unit already queued, in the running batch, or answered
			// with its verdict awaiting an ack must not run again — the
			// retransmit path delivers a buffered verdict. A re-assignment
			// supersedes an old steal, so a revoked unit the running batch
			// has not reached yet runs after all.
			x.smu.Lock()
			x.qmu.Lock()
			for _, u := range units {
				delete(x.revoked, u)
			}
			held := x.heldLocked()
			added := 0
			for _, u := range units {
				if !held[u] {
					x.queue = append(x.queue, u)
					added++
				}
			}
			sort.Ints(x.queue)
			x.qmu.Unlock()
			x.smu.Unlock()
			select {
			case x.wake <- struct{}{}:
			default:
			}
			x.opts.logf("fabric: assigned %d units (%d already held)", added, len(units)-added)
		case msgRevoke:
			units, err := decodeRuns(payload, x.units)
			if err != nil {
				return err
			}
			x.qmu.Lock()
			gone := make(map[int]bool, len(units))
			for _, u := range units {
				gone[u] = true
				x.revoked[u] = true
			}
			kept := x.queue[:0]
			for _, u := range x.queue {
				if !gone[u] {
					kept = append(kept, u)
				}
			}
			x.queue = kept
			x.qmu.Unlock()
			x.opts.logf("fabric: %d units revoked (stolen by another host)", len(units))
		case worker.MsgShutdown:
			x.qmu.Lock()
			x.shutdown = true
			x.qmu.Unlock()
			// Final federation flush: the coordinator lingers after the
			// goodbye precisely so these late frames are ingested, and a
			// campaign shorter than one heartbeat interval still reports.
			// The receipt that releases the session follows them.
			x.pushTelemetry(conn, true)
			_ = x.write(conn, worker.MsgShutdown, nil)
			return nil
		case worker.MsgError:
			return fatalError{fmt.Errorf("fabric: coordinator aborted: %s", payload)}
		default:
			return fmt.Errorf("fabric: unexpected frame type %d from coordinator", typ)
		}
	}
}

// heldLocked returns the units this executor holds and the coordinator has
// not acknowledged: the queue, the running batch less revoked units, and the
// units whose verdicts await an ack. Callers hold smu and qmu.
func (x *executor) heldLocked() map[int]bool {
	held := make(map[int]bool, len(x.queue)+len(x.running)+len(x.unacked))
	for _, u := range x.queue {
		held[u] = true
	}
	for u := range x.running {
		if !x.revoked[u] {
			held[u] = true
		}
	}
	for _, v := range x.unacked {
		held[int(v.Unit)] = true
	}
	return held
}

// sortedUnits lists a unit set in ascending order.
func sortedUnits(set map[int]bool) []int {
	units := make([]int, 0, len(set))
	for u := range set {
		units = append(units, u)
	}
	sort.Ints(units)
	return units
}

// emit stamps one verdict with the next sequence number, buffers it for
// retransmission, and sends it if the wire is up. A connection failure is
// not an error: the verdict stays buffered, the dead connection is severed
// so the read loop notices, and the reconnect path retransmits.
func (x *executor) emit(unit int, o journal.Outcome, payload []byte) error {
	if fed := x.opts.Federation; fed != nil {
		fed.Executed.Inc()
	}
	x.smu.Lock()
	defer x.smu.Unlock()
	x.qmu.Lock()
	delete(x.running, unit)
	x.qmu.Unlock()
	x.seq++
	v := worker.Verdict{Seq: x.seq, Unit: uint32(unit), Outcome: o, Payload: payload}
	x.unacked = append(x.unacked, v)
	if x.conn != nil {
		if err := x.write(x.conn, worker.MsgVerdict, worker.EncodeVerdict(v)); err != nil {
			x.opts.logf("fabric: verdict for unit %d buffered (%v); will retransmit after reconnecting", unit, err)
			x.conn.Close()
			x.conn = nil
		}
	}
	return nil
}

// maybeRetransmit re-sends the whole unacked buffer when the coordinator's
// cumulative ack watermark has not advanced for half a heartbeat timeout
// while verdicts are outstanding. On a clean link acks advance with every
// verdict and this never fires; a chaos-dropped verdict write (the stream
// stays healthy, the frame simply never existed) leaves a gap at the
// watermark that only a retransmit can fill. Re-sent verdicts the
// coordinator did process are re-acked and pruned.
func (x *executor) maybeRetransmit(conn net.Conn) {
	x.smu.Lock()
	defer x.smu.Unlock()
	if x.conn != conn || len(x.unacked) == 0 {
		return
	}
	stall := x.hb.HeartbeatTimeout / 2
	if time.Since(x.lastAckAt) < stall {
		return
	}
	x.lastAckAt = time.Now()
	x.opts.logf("fabric: no ack progress for %v; retransmitting %d verdict(s)", stall, len(x.unacked))
	for _, v := range x.unacked {
		if err := x.write(conn, worker.MsgVerdict, worker.EncodeVerdict(v)); err != nil {
			x.conn.Close()
			x.conn = nil
			return
		}
	}
}

// pushTelemetry ships one federation push — a registry snapshot frame plus
// whatever the trace buffer holds — strictly best-effort. Periodic pushes
// (final=false) only try-lock the write mutex: if the verdict path holds the
// wire the push is dropped and counted, never queued, so federation can't
// add latency to a verdict — and they are floored to FederationInterval so
// an aggressive heartbeat never multiplies the wire's write rate (under
// chaos, every extra write is another chance to sever the link). The final
// push (on shutdown receipt) takes the lock for real and skips the floor so
// short campaigns that finish before the first tick still report. Pushes
// before the welcome completes are skipped — the coordinator's handshake
// would reject the frames.
func (x *executor) pushTelemetry(conn net.Conn, final bool) {
	fed := x.opts.Federation
	if fed == nil {
		return
	}
	if !final {
		interval := x.opts.FederationInterval
		if interval <= 0 {
			interval = time.Second
		}
		if time.Since(x.lastFedPush) < interval {
			return
		}
		x.lastFedPush = time.Now()
	}
	x.smu.Lock()
	live := x.conn == conn
	x.smu.Unlock()
	if !live {
		return
	}
	if final {
		x.wmu.Lock()
	} else if !x.wmu.TryLock() {
		fed.Dropped.Inc()
		return
	}
	defer x.wmu.Unlock()
	_ = conn.SetWriteDeadline(time.Now().Add(x.hb.HeartbeatTimeout))
	if entries := fed.snapshot(); len(entries) > 0 {
		if worker.WriteFrameCRC(conn, msgTelemetry, encodeSnapshot(time.Now().UnixMicro(), entries)) != nil {
			return // dead wire; counters are cumulative, the next push heals
		}
	}
	for {
		evs := fed.Trace.Drain(maxTraceEvents)
		if len(evs) == 0 {
			return
		}
		if worker.WriteFrameCRC(conn, msgTrace, encodeTraceEvents(time.Now().UnixMicro(), evs)) != nil {
			return // drained events are lost — the documented drop contract
		}
	}
}

// batchLoop hands the queue to the BatchRunner whenever it is non-empty.
// The whole queue is cut as one batch; units assigned mid-batch wait for
// the next cut, and units stolen mid-batch are dropped by the skip check.
func (x *executor) batchLoop(ctx context.Context, runner BatchRunner) error {
	skip := func(u int) bool {
		x.qmu.Lock()
		defer x.qmu.Unlock()
		if x.revoked[u] {
			delete(x.running, u) // passed over: a re-assign queues it anew
			return true
		}
		return false
	}
	for {
		x.qmu.Lock()
		batch := x.queue
		x.queue = nil
		if len(batch) > 0 {
			x.running = make(map[int]bool, len(batch))
			for _, u := range batch {
				x.running[u] = true
			}
		}
		x.qmu.Unlock()
		if len(batch) == 0 {
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-x.wake:
			}
			continue
		}
		err := runner.RunBatch(ctx, batch, skip, x.emit)
		x.qmu.Lock()
		x.running = nil
		x.qmu.Unlock()
		if err != nil {
			if ctx.Err() == nil {
				x.setBatchError(err)
				x.smu.Lock()
				conn := x.conn
				x.smu.Unlock()
				if conn != nil {
					_ = x.write(conn, worker.MsgError, []byte(err.Error()))
				}
			}
			return err
		}
	}
}
