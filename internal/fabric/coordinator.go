package fabric

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sort"
	"time"

	"repro/internal/journal"
	"repro/internal/telemetry"
	"repro/internal/worker"
)

// Metrics is the coordinator's instrument bundle. All fields are optional;
// a nil *Metrics (or nil fields) disables observation without changing any
// scheduling decision.
type Metrics struct {
	// Hosts is the number of currently attached executor sessions.
	Hosts *telemetry.Gauge
	// Assigned counts unit assignments, including redeliveries and steals
	// (one unit assigned twice counts twice).
	Assigned *telemetry.Counter
	// Steals counts half-range steal operations (not units).
	Steals *telemetry.Counter
	// Redelivered counts units returned to the pending set by a session
	// expiry.
	Redelivered *telemetry.Counter
	// HostDeaths counts executor sessions that expired — detached past the
	// grace window — before the campaign finished. A connection loss alone
	// is not a death; the executor gets SessionTimeout to re-attach.
	HostDeaths *telemetry.Counter
	// Quarantines counts units that exhausted maxHostDeaths host deaths.
	Quarantines *telemetry.Counter
	// Resumed counts sessions that re-attached after a connection loss
	// (coordinator restarts included).
	Resumed *telemetry.Counter
	// BadFrames counts connections severed by a frame checksum mismatch —
	// the poisoned-frame rejection path.
	BadFrames *telemetry.Counter
	// HostUnits, when non-nil, returns the per-host completed-unit counter
	// for an executor name (the per-host gauge plane of the live progress
	// story).
	HostUnits func(host string) *telemetry.Counter
}

// CoordinatorOptions configures one campaign's coordinator.
type CoordinatorOptions struct {
	// Addr is the TCP listen address (e.g. ":9370", "127.0.0.1:0").
	Addr string

	// MinHosts is how many executors must be connected and ready before
	// the initial shard is cut (default 1). Executors joining later are
	// fed by redelivery and stealing.
	MinHosts int

	// Spec is sent to every executor in the hello frame; executors rebuild
	// the plan from it and must reproduce Spec.Fingerprint.
	Spec worker.Spec

	// Units is the total unit count of the plan. An executor whose rebuilt
	// plan disagrees is rejected at the handshake.
	Units int

	// HeartbeatInterval is the cadence both sides beat at
	// (worker.DefaultHeartbeatInterval). HeartbeatTimeout is how long
	// either side tolerates total silence before declaring its peer's
	// connection dead (worker.DefaultHeartbeatTimeout). WAN links want
	// looser values than the defaults, which are the pipe-local worker
	// supervisor's.
	HeartbeatInterval time.Duration
	HeartbeatTimeout  time.Duration

	// SessionTimeout is how long a session may stay detached — connection
	// lost, executor not yet re-attached — before it is declared dead and
	// its units are redelivered (default 2× HeartbeatTimeout). This is the
	// grace window that turns a partition or a coordinator-side connection
	// reset into a reconnect instead of a host death.
	SessionTimeout time.Duration

	// Quarantine is the outcome recorded for a unit that went down with
	// maxHostDeaths executor hosts.
	Quarantine journal.Outcome

	// Side, when non-nil, is the sidecar WAL the coordinator journals its
	// scheduling state through: session registrations, assignments, steals
	// and expiries. A Side opened over an earlier coordinator's file
	// (Side.Resumed) is replayed at the start of Run to rebuild the session
	// table and outstanding ranges — the coordinator crash-recovery path.
	Side *journal.SideLog

	// WrapConn, when non-nil, wraps every accepted connection — the hook
	// the chaos proxy plugs into.
	WrapConn func(net.Conn) net.Conn

	// Metrics/Tracer observe scheduling; both are passive. Trace events
	// ingested from executors' trace frames are re-emitted on Tracer with
	// the session's host name and the clock-offset-corrected timestamp —
	// the merged fleet trace.
	Metrics *Metrics
	Tracer  *telemetry.Tracer

	// Registry, when non-nil, receives the federated executor metrics:
	// every series in an ingested telemetry frame is republished here as a
	// gauge under a host label (the /metrics `host` plane). Nil drops the
	// metric half of federation; frames are still consumed.
	Registry *telemetry.Registry

	// Fleet, when non-nil, is kept current with per-host scheduling and
	// federation state — the live view behind /fleet and the report's
	// hosts section.
	Fleet *FleetTracker

	// Log, when non-nil, receives one line per fabric event (join, loss,
	// steal, quarantine).
	Log func(format string, args ...any)
}

func (o *CoordinatorOptions) fill() {
	if o.MinHosts < 1 {
		o.MinHosts = 1
	}
	if o.HeartbeatInterval <= 0 {
		o.HeartbeatInterval = worker.DefaultHeartbeatInterval
	}
	if o.HeartbeatTimeout <= 0 {
		o.HeartbeatTimeout = worker.DefaultHeartbeatTimeout
	}
	if o.SessionTimeout <= 0 {
		o.SessionTimeout = 2 * o.HeartbeatTimeout
	}
}

// maxHostDeaths is how many executor hosts a unit may go down with before
// it is quarantined with the Quarantine outcome.
const maxHostDeaths = 3

func (o *CoordinatorOptions) logf(format string, args ...any) {
	if o.Log != nil {
		o.Log(format, args...)
	}
}

// Coordinator owns the listening socket and the scheduling policy of one
// campaign. Create with NewCoordinator, drive with Run.
type Coordinator struct {
	opts CoordinatorOptions
	ln   net.Listener
}

// NewCoordinator validates the options and binds the listen socket, so the
// address (and any bind error) surfaces before planning-time work is spent.
func NewCoordinator(opts CoordinatorOptions) (*Coordinator, error) {
	if opts.Units <= 0 {
		return nil, errors.New("fabric: CoordinatorOptions.Units must be positive")
	}
	opts.fill()
	ln, err := net.Listen("tcp", opts.Addr)
	if err != nil {
		return nil, fmt.Errorf("fabric: %w", err)
	}
	return &Coordinator{opts: opts, ln: ln}, nil
}

// Addr returns the bound listen address (useful with ":0").
func (c *Coordinator) Addr() net.Addr { return c.ln.Addr() }

// Close releases the listen socket. Run closes it itself on return; Close
// exists for callers that never get to Run.
func (c *Coordinator) Close() error { return c.ln.Close() }

// event is one message into the coordinator's single-threaded loop.
type event struct {
	x       *executorConn
	typ     uint8        // frame type for frame events
	payload []byte       // frame payload
	err     error        // non-nil: the connection died
	join    bool         // handshake completed; register x
	rd      worker.Ready // the ready frame, for join events
}

// executorConn is one TCP connection. Scheduling state lives on the session
// it is attached to; the conn is just the transport and may be replaced by
// a reconnect.
type executorConn struct {
	conn     net.Conn
	wtimeout time.Duration
	sess     *session // owned by the event loop; nil until registered
}

// send writes one CRC frame under a write deadline. Only the event loop
// and the pre-registration handshake write to a conn, never both at once.
func (x *executorConn) send(typ uint8, payload []byte) error {
	_ = x.conn.SetWriteDeadline(time.Now().Add(x.wtimeout))
	return worker.WriteFrameCRC(x.conn, typ, payload)
}

// session is one executor's scheduling identity, stable across reconnects.
// All fields are owned by the event loop.
type session struct {
	token      uint64
	id         int // registration order; ties deterministic iteration
	name       string
	workers    int
	conn       *executorConn   // nil while detached
	seq        uint32          // cumulative ack watermark: every seq <= this was processed
	seen       map[uint32]bool // processed seqs above the watermark (gaps from dropped writes)
	assigned   int             // units currently owned (assigned, no verdict yet)
	detachedAt time.Time       // when the connection was lost; zero if attached
	progressAt time.Time       // last verdict processed (stall detection)
	nudgedAt   time.Time       // last stall re-assign, so nudges don't repeat every beat
	done       *telemetry.Counter
}

// coordRun is the state of one Run call, touched only by the loop
// goroutine.
type coordRun struct {
	opts      *CoordinatorOptions
	events    chan event
	stop      chan struct{} // closed on loop exit; unblocks reader sends
	sessions  map[uint64]*session
	nextID    int
	nextToken uint64
	started   bool
	pending   []int // sorted unit indices awaiting an owner
	owner     map[int]*session
	done      map[int]bool
	deaths    map[int]int
	doneN     int
	total     int
	onRes     func(worker.Result) error
	fatal     error // first onResult error; ends the run
}

// Run shards the given unit indices over the connected executors and calls
// onResult exactly once per index (always from this goroutine; never
// concurrently). It returns nil when every index has a verdict or a
// quarantine, ctx.Err() on cancellation (some indices then have no result),
// the first error returned by onResult, or a fatal executor error. The
// listener is closed on return.
//
// Units of the plan outside indices are treated as already journaled: a
// late duplicate verdict for one (an executor retransmitting across a
// coordinator restart) is dropped instead of being delivered twice.
func (c *Coordinator) Run(ctx context.Context, indices []int, onResult func(worker.Result) error) error {
	defer c.ln.Close()
	if len(indices) == 0 {
		return nil
	}
	pending := append([]int(nil), indices...)
	sort.Ints(pending)
	r := &coordRun{
		opts:      &c.opts,
		events:    make(chan event, 64),
		stop:      make(chan struct{}),
		sessions:  make(map[uint64]*session),
		nextToken: 1,
		pending:   pending,
		owner:     make(map[int]*session),
		done:      make(map[int]bool),
		deaths:    make(map[int]int),
		total:     len(indices),
		onRes:     onResult,
	}
	defer close(r.stop)

	// Units already journaled are "done" from the first instant, so a
	// duplicate verdict retransmitted across a coordinator restart is
	// dropped exactly like a steal-race duplicate.
	inPlan := make(map[int]bool, len(indices))
	for _, u := range indices {
		inPlan[u] = true
	}
	for u := 0; u < c.opts.Units; u++ {
		if !inPlan[u] {
			r.done[u] = true
		}
	}

	if err := r.recover(); err != nil {
		return err
	}

	// Accept loop: handshakes happen off the event loop (planning inside
	// the executor can take seconds), completed executors are handed in.
	go func() {
		for {
			conn, err := c.ln.Accept()
			if err != nil {
				return // listener closed: Run is exiting
			}
			if c.opts.WrapConn != nil {
				conn = c.opts.WrapConn(conn)
			}
			go c.handshake(conn, r)
		}
	}()

	c.opts.logf("fabric: listening on %s for %d executor(s), %d units to run",
		c.ln.Addr(), c.opts.MinHosts, len(indices))

	beat := time.NewTicker(c.opts.HeartbeatInterval)
	defer beat.Stop()
	for {
		select {
		case <-ctx.Done():
			r.shutdownAll()
			return ctx.Err()
		case <-beat.C:
			for _, s := range r.attached() {
				if err := s.conn.send(worker.MsgHeartbeat, nil); err != nil {
					r.detach(s.conn, fmt.Errorf("heartbeat write: %w", err))
					continue
				}
				r.nudge(s)
			}
			r.expireDetached()
		case ev := <-r.events:
			var err error
			switch {
			case ev.join:
				r.register(ev.x, ev.rd)
			case ev.err != nil:
				r.detach(ev.x, ev.err)
			default:
				err = r.frame(ev.x, ev.typ, ev.payload)
			}
			if err != nil {
				r.shutdownAll()
				return err
			}
		}
		if r.doneN == r.total {
			r.linger()
			return nil
		}
	}
}

// linger is the campaign's goodbye phase: the listener and event loop stay
// alive for up to HeartbeatTimeout after the last verdict so that every
// executor actually receives the shutdown frame. On a clean network one
// round suffices; under chaos the frame may be dropped (re-sent every
// beat), corrupted (the executor severs and redials — the handshake is
// answered with shutdown instead of welcome), or the executor may be
// mid-reconnect when the campaign ends. A session is released — removed
// from the table — when its executor closes the connection, which it only
// does once the shutdown was received; the loop exits when every session is
// released or the window closes.
func (r *coordRun) linger() {
	goodbye := func() {
		for _, s := range r.attached() {
			_ = s.conn.send(worker.MsgShutdown, nil)
		}
	}
	goodbye()
	deadline := time.NewTimer(r.opts.HeartbeatTimeout)
	defer deadline.Stop()
	beat := time.NewTicker(r.opts.HeartbeatInterval)
	defer beat.Stop()
	for len(r.sessions) > 0 {
		select {
		case <-deadline.C:
			r.shutdownAll()
			return
		case <-beat.C:
			goodbye()
		case ev := <-r.events:
			switch {
			case ev.join:
				// A reconnecting (or stray) executor only needs the goodbye.
				// Its session, if any, is released when it closes the conn.
				if s, ok := r.sessions[ev.rd.Token]; ok {
					if s.conn != nil {
						s.conn.sess = nil
						s.conn.conn.Close()
					}
					s.conn = ev.x
					ev.x.sess = s
				}
				_ = ev.x.send(worker.MsgShutdown, nil)
			case ev.err != nil:
				s := ev.x.sess
				ev.x.conn.Close()
				if s != nil && s.conn == ev.x {
					if errors.Is(ev.err, io.EOF) {
						// A clean close between frames: the executor got the
						// shutdown and hung up. Receipt confirmed.
						delete(r.sessions, s.token)
					} else {
						// Severed mid-frame (chaos corruption, reset): the
						// executor may not have seen the goodbye. Hold the
						// session; its redial gets shutdown at the handshake.
						s.conn = nil
					}
				}
			default:
				// Late frames: verdicts are spent duplicates; processing
				// them re-acks so the executor's buffer drains.
				_ = r.frame(ev.x, ev.typ, ev.payload)
			}
		}
	}
	r.shutdownAll() // nothing left attached; clears the hosts gauge
}

// recover replays the sidecar WAL of a crashed coordinator: surviving
// sessions come back detached (their executors redial and re-attach within
// the grace window), their outstanding ranges stay owned, per-unit death
// counts carry over, and units exceeding MaxDeliveries are quarantined
// immediately. With no sidecar (or a fresh one) this is a no-op.
func (r *coordRun) recover() error {
	side := r.opts.Side
	if side == nil || !side.Resumed() {
		return nil
	}
	st, err := replaySide(side, r.opts.Units)
	if err != nil {
		return err
	}
	r.nextToken = st.maxToken + 1
	for u, n := range st.deaths {
		r.deaths[u] = n
	}
	tokens := make([]uint64, 0, len(st.sessions))
	for token := range st.sessions {
		tokens = append(tokens, token)
	}
	sort.Slice(tokens, func(i, j int) bool { return tokens[i] < tokens[j] })
	stillPending := make(map[int]bool, len(r.pending))
	for _, u := range r.pending {
		stillPending[u] = true
	}
	for _, token := range tokens {
		ss := st.sessions[token]
		s := &session{
			token:      token,
			id:         r.nextID,
			name:       ss.name,
			workers:    ss.workers,
			seen:       make(map[uint32]bool),
			detachedAt: time.Now(),
		}
		r.nextID++
		for _, u := range ss.ownedSorted() {
			if r.done[u] {
				continue // journaled before the crash
			}
			r.owner[u] = s
			s.assigned++
			delete(stillPending, u)
		}
		r.sessions[token] = s
		r.opts.Fleet.Joined(token, s.name, s.workers)
		r.opts.Fleet.Detached(token)
		r.fleetAssigned(s)
	}
	pending := r.pending[:0]
	for _, u := range r.pending {
		if stillPending[u] {
			pending = append(pending, u)
		}
	}
	r.pending = pending
	for _, u := range append([]int(nil), r.pending...) {
		if r.deaths[u] >= maxHostDeaths {
			r.dropPending(u)
			r.quarantine(u)
		}
	}
	r.started = len(r.sessions) > 0
	r.opts.Tracer.Emit(telemetry.Event{Kind: telemetry.KindCoordRecovered,
		Detail: fmt.Sprintf("%d session(s), %d units outstanding, %d pending", len(r.sessions), len(r.owner), len(r.pending))})
	r.opts.logf("fabric: recovered coordinator state: %d session(s) awaiting re-attach, %d units outstanding, %d pending",
		len(r.sessions), len(r.owner), len(r.pending))
	if err := r.fatalErr(); err != nil {
		return err // a quarantine delivery failed
	}
	return nil
}

// nudge re-sends a session's outstanding ranges when it has owned units but
// made no verdict progress for a full HeartbeatTimeout. On a clean link this
// never fires; under chaos it repairs silently dropped assign frames (the
// executor never saw the range) and keeps the campaign converging. A
// re-delivered range is idempotent: the executor deduplicates its queue, and
// any re-executed unit yields a duplicate verdict the done-set drops.
func (r *coordRun) nudge(s *session) {
	if s.assigned == 0 || s.conn == nil {
		return
	}
	last := s.progressAt
	if s.nudgedAt.After(last) {
		last = s.nudgedAt
	}
	if time.Since(last) < r.opts.HeartbeatTimeout {
		return
	}
	s.nudgedAt = time.Now()
	var outstanding []int
	for u, o := range r.owner {
		if o == s && !r.done[u] {
			outstanding = append(outstanding, u)
		}
	}
	if len(outstanding) == 0 {
		return
	}
	sort.Ints(outstanding)
	r.opts.logf("fabric: %s made no progress for %v; re-sending %d outstanding unit(s)",
		s.name, r.opts.HeartbeatTimeout, len(outstanding))
	if err := s.conn.send(msgAssign, encodeRuns(outstanding)); err != nil {
		r.detach(s.conn, fmt.Errorf("assign write: %w", err))
	}
}

// dropPending removes one unit from the pending slice.
func (r *coordRun) dropPending(unit int) {
	for i, u := range r.pending {
		if u == unit {
			r.pending = append(r.pending[:i], r.pending[i+1:]...)
			return
		}
	}
}

// side appends one record to the sidecar WAL. Append failures degrade
// recovery (a restarted coordinator redelivers more than it had to) but
// never the running campaign, so they are logged, not fatal.
func (r *coordRun) side(kind uint8, payload []byte) {
	if r.opts.Side == nil {
		return
	}
	if err := r.opts.Side.Append(kind, payload); err != nil {
		r.opts.logf("fabric: sidecar append failed (recovery state degraded): %v", err)
	}
}

// handshake runs the coordinator side of one executor's handshake: hello
// out, ready in (tolerating heartbeats), validation. A mismatched executor
// is rejected — error frame, close — without disturbing the campaign: at
// fleet scale a stray join must not kill a half-finished run.
func (c *Coordinator) handshake(conn net.Conn, r *coordRun) {
	x := &executorConn{conn: conn, wtimeout: c.opts.HeartbeatTimeout}
	reject := func(err error) {
		c.opts.logf("fabric: rejecting %s: %v", conn.RemoteAddr(), err)
		_ = x.send(worker.MsgError, []byte(err.Error()))
		conn.Close()
	}
	if err := x.send(worker.MsgHello, worker.EncodeHello(worker.Hello{
		Version:           worker.ProtocolVersion,
		HeartbeatInterval: c.opts.HeartbeatInterval,
		HeartbeatTimeout:  c.opts.HeartbeatTimeout,
		Spec:              c.opts.Spec,
	})); err != nil {
		conn.Close()
		return
	}
	for {
		_ = conn.SetReadDeadline(time.Now().Add(c.opts.HeartbeatTimeout))
		typ, payload, err := worker.ReadFrameCRC(conn)
		if err != nil {
			// A torn or corrupt stream is a transport failure, not a
			// rejection: close silently so the executor redials, rather
			// than sending an error frame it would treat as fatal.
			c.noteBadFrame(err)
			c.opts.logf("fabric: dropping %s during handshake: %v", conn.RemoteAddr(), err)
			conn.Close()
			return
		}
		switch typ {
		case worker.MsgHeartbeat:
			continue // re-planning inside the executor; keep waiting
		case worker.MsgError:
			reject(fmt.Errorf("executor error during handshake: %s", payload))
			return
		case worker.MsgReady:
			rd, err := worker.DecodeReady(payload)
			if err != nil {
				reject(err)
				return
			}
			if err := worker.CheckPeer(rd.Version, rd.Fingerprint, c.opts.Spec.Fingerprint); err != nil {
				reject(fmt.Errorf("executor %w", err))
				return
			}
			if int(rd.Units) != c.opts.Units {
				reject(fmt.Errorf("executor plan has %d units, coordinator planned %d", rd.Units, c.opts.Units))
				return
			}
			if rd.Name == "" {
				rd.Name = conn.RemoteAddr().String()
			}
			if rd.Workers < 1 {
				rd.Workers = 1
			}
			select {
			case r.events <- event{x: x, join: true, rd: rd}:
			case <-r.stop:
				conn.Close()
				return
			}
			c.readLoop(x, r)
			return
		default:
			reject(fmt.Errorf("frame type %d during handshake", typ))
			return
		}
	}
}

// readLoop pumps one registered executor's frames into the event loop,
// enforcing the silence deadline on every read.
func (c *Coordinator) readLoop(x *executorConn, r *coordRun) {
	for {
		_ = x.conn.SetReadDeadline(time.Now().Add(c.opts.HeartbeatTimeout))
		typ, payload, err := worker.ReadFrameCRC(x.conn)
		ev := event{x: x, typ: typ, payload: payload}
		if err != nil {
			c.noteBadFrame(err)
			ev = event{x: x, err: err}
		}
		select {
		case r.events <- ev:
		case <-r.stop:
			x.conn.Close()
			return
		}
		if err != nil {
			return
		}
	}
}

// noteBadFrame counts checksum-rejected frames — the poisoned-frame path,
// where the connection is severed for re-establishment rather than parsed
// past the corruption.
func (c *Coordinator) noteBadFrame(err error) {
	if errors.Is(err, worker.ErrFrameCRC) {
		if m := c.opts.Metrics; m != nil && m.BadFrames != nil {
			m.BadFrames.Inc()
		}
	}
}

// attached snapshots the attached sessions in id order, so scheduling
// decisions are deterministic for a given event sequence.
func (r *coordRun) attached() []*session {
	ss := make([]*session, 0, len(r.sessions))
	for _, s := range r.sessions {
		if s.conn != nil {
			ss = append(ss, s)
		}
	}
	sort.Slice(ss, func(i, j int) bool { return ss[i].id < ss[j].id })
	return ss
}

func (r *coordRun) hostsGauge() {
	if m := r.opts.Metrics; m != nil && m.Hosts != nil {
		m.Hosts.Set(int64(len(r.attached())))
	}
}

// register handles a completed handshake: either re-attaching an executor
// to its surviving session (the ready frame presented a known token) or
// opening a fresh session. The welcome frame always precedes any assign on
// the new connection.
func (r *coordRun) register(x *executorConn, rd worker.Ready) {
	if rd.Token != 0 {
		if s, ok := r.sessions[rd.Token]; ok {
			r.reattach(x, s)
			return
		}
		// Unknown or expired token: the session's units were redelivered;
		// fall through to a fresh session. Verdicts the executor still
		// retransmits are deduplicated by the done-set.
		r.opts.logf("fabric: executor %s presented expired session %d; opening a fresh session", rd.Name, rd.Token)
	}
	s := &session{
		token:      r.nextToken,
		id:         r.nextID,
		name:       rd.Name,
		workers:    int(rd.Workers),
		conn:       x,
		seen:       make(map[uint32]bool),
		progressAt: time.Now(),
	}
	r.nextToken++
	r.nextID++
	x.sess = s
	r.sessions[s.token] = s
	r.side(sideSession, encodeSideSession(s.token, s.workers, s.name))
	if m := r.opts.Metrics; m != nil && m.HostUnits != nil {
		s.done = m.HostUnits(s.name)
	}
	r.opts.Fleet.Joined(s.token, s.name, s.workers)
	r.hostsGauge()
	if err := x.send(msgWelcome, encodeWelcome(welcome{Token: s.token})); err != nil {
		r.detach(x, fmt.Errorf("welcome write: %w", err))
		return
	}
	r.opts.Tracer.Emit(telemetry.Event{Kind: telemetry.KindHostJoined, Detail: fmt.Sprintf("%s (%d workers)", s.name, s.workers)})
	r.opts.logf("fabric: executor %s joined (%d workers; %d/%d hosts)", s.name, s.workers, len(r.attached()), r.opts.MinHosts)
	r.schedule()
}

// reattach binds a new connection to a surviving session: welcome carries
// the ack watermark so the executor prunes its retransmit buffer, and the
// session's outstanding units are re-sent (idempotently — the executor
// deduplicates its queue) in case the original assign died in a partition.
func (r *coordRun) reattach(x *executorConn, s *session) {
	if s.conn != nil {
		// The old connection is half-open (the executor gave up on it
		// first). Drop it; its reader will surface a stale error we ignore.
		s.conn.sess = nil
		s.conn.conn.Close()
	}
	s.conn = x
	s.detachedAt = time.Time{}
	s.progressAt = time.Now()
	x.sess = s
	if m := r.opts.Metrics; m != nil && m.Resumed != nil {
		m.Resumed.Inc()
	}
	r.opts.Fleet.Joined(s.token, s.name, s.workers)
	r.fleetAssigned(s)
	r.hostsGauge()
	if err := x.send(msgWelcome, encodeWelcome(welcome{Token: s.token, Resumed: true, Acked: s.seq})); err != nil {
		r.detach(x, fmt.Errorf("welcome write: %w", err))
		return
	}
	var outstanding []int
	for u, o := range r.owner {
		if o == s && !r.done[u] {
			outstanding = append(outstanding, u)
		}
	}
	sort.Ints(outstanding)
	r.opts.Tracer.Emit(telemetry.Event{Kind: telemetry.KindHostResumed,
		Detail: fmt.Sprintf("%s (session %d, %d units outstanding)", s.name, s.token, len(outstanding))})
	r.opts.logf("fabric: executor %s re-attached to session %d (%d units outstanding, acked seq %d)",
		s.name, s.token, len(outstanding), s.seq)
	if len(outstanding) > 0 {
		// Not recorded in the sidecar: ownership is unchanged.
		if err := x.send(msgAssign, encodeRuns(outstanding)); err != nil {
			r.detach(x, fmt.Errorf("assign write: %w", err))
			return
		}
	}
	r.schedule()
}

// detach handles a lost connection: the session survives, detached, for
// SessionTimeout — the grace window in which its executor may redial and
// re-attach with every assignment intact. Only expiry redelivers.
func (r *coordRun) detach(x *executorConn, err error) {
	s := x.sess
	x.conn.Close()
	if s == nil || s.conn != x {
		return // pre-registration conn, or already replaced by a reconnect
	}
	s.conn = nil
	s.detachedAt = time.Now()
	r.opts.Fleet.Detached(s.token)
	r.hostsGauge()
	r.opts.Tracer.Emit(telemetry.Event{Kind: telemetry.KindHostDetached,
		Detail: fmt.Sprintf("%s: %v (session %d; %v grace)", s.name, err, s.token, r.opts.SessionTimeout)})
	r.opts.logf("fabric: lost connection to %s (%v); session %d has %v to re-attach",
		s.name, err, s.token, r.opts.SessionTimeout)
}

// expireDetached declares sessions dead once their grace window closes:
// unfinished units go back to pending (counting one delivery each;
// exhausted units are quarantined) and the fleet is rescheduled.
func (r *coordRun) expireDetached() {
	var expired []*session
	for _, s := range r.sessions {
		if s.conn == nil && time.Since(s.detachedAt) > r.opts.SessionTimeout {
			expired = append(expired, s)
		}
	}
	sort.Slice(expired, func(i, j int) bool { return expired[i].id < expired[j].id })
	for _, s := range expired {
		r.expire(s)
	}
}

func (r *coordRun) expire(s *session) {
	delete(r.sessions, s.token)
	r.side(sideExpire, encodeSideExpire(s.token))
	r.opts.Fleet.Expired(s.token)
	var lost []int
	for u, o := range r.owner {
		if o == s {
			lost = append(lost, u)
		}
	}
	sort.Ints(lost)
	m := r.opts.Metrics
	if m != nil && m.HostDeaths != nil {
		m.HostDeaths.Inc()
	}
	r.opts.Tracer.Emit(telemetry.Event{Kind: telemetry.KindHostLost,
		Detail: fmt.Sprintf("%s: grace expired (%d units redelivered)", s.name, len(lost))})
	r.opts.logf("fabric: executor %s never re-attached; session %d expired, redelivering %d units", s.name, s.token, len(lost))
	for _, u := range lost {
		delete(r.owner, u)
		r.deaths[u]++
		if r.deaths[u] >= maxHostDeaths {
			r.quarantine(u)
			continue
		}
		if m != nil && m.Redelivered != nil {
			m.Redelivered.Inc()
		}
		r.pending = append(r.pending, u)
	}
	sort.Ints(r.pending)
	r.schedule()
}

// quarantine records the Quarantine outcome for a unit that went down with
// MaxDeliveries executor hosts.
func (r *coordRun) quarantine(u int) {
	if r.done[u] {
		return
	}
	r.done[u] = true
	r.doneN++
	if m := r.opts.Metrics; m != nil && m.Quarantines != nil {
		m.Quarantines.Inc()
	}
	r.opts.Tracer.Emit(telemetry.Event{Kind: telemetry.KindQuarantine, Unit: u, Detail: "exhausted executor-host deliveries"})
	r.opts.logf("fabric: unit %d went down with %d executor hosts; quarantined as host fault", u, r.deaths[u])
	r.deliver(worker.Result{Index: u, Outcome: r.opts.Quarantine, Quarantined: true})
}

// deliver invokes onResult; an error is remembered as fatal by frame().
func (r *coordRun) deliver(res worker.Result) {
	if r.onRes == nil {
		return
	}
	if err := r.onRes(res); err != nil {
		// Surface through the loop: stash as a synthetic fatal event.
		r.fatal = err
	}
}

// frame handles one frame from a registered executor. A returned error is
// fatal to the whole run (onResult failure or an executor-reported fatal
// unit error — the same unit would fail on any host).
func (r *coordRun) frame(x *executorConn, typ uint8, payload []byte) error {
	s := x.sess
	if s == nil || s.conn != x {
		x.conn.Close() // stale conn replaced by a reconnect; drop its frames
		return r.fatalErr()
	}
	r.opts.Fleet.Seen(s.token)
	switch typ {
	case worker.MsgHeartbeat:
		return r.fatalErr()
	case msgTelemetry:
		sentUS, entries, err := decodeSnapshot(payload, maxSnapEntries)
		if err != nil {
			r.detach(x, err)
			return r.fatalErr()
		}
		r.ingestSnapshot(s, sentUS, entries)
		return r.fatalErr()
	case msgTrace:
		sentUS, evs, err := decodeTraceEvents(payload, maxTraceEvents)
		if err != nil {
			r.detach(x, err)
			return r.fatalErr()
		}
		r.ingestTrace(s, sentUS, evs)
		return r.fatalErr()
	case worker.MsgError:
		return fmt.Errorf("fabric: executor %s: %s", s.name, payload)
	case worker.MsgVerdict:
		v, err := worker.DecodeVerdict(payload)
		if err != nil {
			r.detach(x, err)
			return r.fatalErr()
		}
		u := int(v.Unit)
		if u < 0 || u >= r.opts.Units {
			r.detach(x, fmt.Errorf("verdict for unit %d outside the %d-unit plan", u, r.opts.Units))
			return r.fatalErr()
		}
		if v.Seq <= s.seq || s.seen[v.Seq] {
			// A retransmit of a verdict this session already processed;
			// re-ack the watermark so the executor prunes its buffer.
			_ = x.send(msgAck, encodeAck(s.seq))
			return r.fatalErr()
		}
		// The ack is cumulative (TCP-style): s.seq is the highest seq below
		// which everything was processed. A chaos-dropped write leaves a gap
		// — later verdicts still arrive on the healthy connection — so gaps
		// are tracked in s.seen and the watermark only advances when the
		// executor's stall retransmit fills them.
		s.seen[v.Seq] = true
		for s.seen[s.seq+1] {
			delete(s.seen, s.seq+1)
			s.seq++
		}
		s.progressAt = time.Now()
		if r.done[u] {
			// Duplicate from a steal race, a redelivery, or a pre-restart
			// journal append; the verdict is spent.
			_ = x.send(msgAck, encodeAck(s.seq))
			return r.fatalErr()
		}
		r.done[u] = true
		r.doneN++
		if o := r.owner[u]; o != nil {
			o.assigned--
			delete(r.owner, u)
		}
		if s.done != nil {
			s.done.Inc()
		}
		r.opts.Fleet.Merged(s.token, r.doneN)
		r.deliver(worker.Result{Index: u, Outcome: v.Outcome, Payload: v.Payload})
		if err := r.fatalErr(); err != nil {
			return err
		}
		// Ack only after deliver: every seq at or below the watermark has
		// been journaled, so an executor that prunes on this ack can never
		// strand an unjournaled verdict.
		if err := x.send(msgAck, encodeAck(s.seq)); err != nil {
			r.detach(x, fmt.Errorf("ack write: %w", err))
			return r.fatalErr()
		}
		r.schedule()
		return nil
	default:
		r.detach(x, fmt.Errorf("unexpected frame type %d", typ))
		return r.fatalErr()
	}
}

// fatal holds the first onResult error; fatalErr drains it.
func (r *coordRun) fatalErr() error { return r.fatal }

// schedule is the whole balancing policy, run after every join, verdict
// and expiry:
//
//  1. Nothing happens until MinHosts executors are ready; then the pending
//     set (the full todo on a fresh start) is cut into contiguous ranges
//     weighted by each host's worker count — the initial shard.
//  2. Units returned by a session expiry are redistributed the same way.
//  3. With nothing pending, an idle executor steals the top half (by plan
//     index) of the most-loaded *attached* executor's unfinished units: the
//     victim is revoked the range, the thief is assigned it. Detached
//     sessions are never stolen from — their executors are presumed to be
//     reconnecting, still executing; expiry, not theft, reclaims their
//     units. Executors run their ranges in ascending order, so the stolen
//     tail is the least likely to be in flight; a unit that was anyway
//     produces a duplicate verdict, which the merge drops.
func (r *coordRun) schedule() {
	xs := r.attached()
	if !r.started {
		if len(xs) < r.opts.MinHosts {
			return
		}
		r.started = true
		r.opts.logf("fabric: %d executor(s) ready; sharding %d units", len(xs), len(r.pending))
	}
	if len(xs) == 0 {
		return
	}
	if len(r.pending) > 0 {
		r.distribute(xs, r.pending)
		r.pending = nil
		return
	}
	for _, thief := range xs {
		if thief.assigned > 0 {
			continue
		}
		var victim *session
		for _, s := range xs {
			if s == thief {
				continue
			}
			if victim == nil || s.assigned > victim.assigned {
				victim = s
			}
		}
		if victim == nil || victim.assigned < 2 {
			continue
		}
		var units []int
		for u, o := range r.owner {
			if o == victim {
				units = append(units, u)
			}
		}
		sort.Ints(units)
		stolen := units[len(units)-len(units)/2:]
		for _, u := range stolen {
			r.owner[u] = thief
		}
		victim.assigned -= len(stolen)
		thief.assigned += len(stolen)
		r.side(sideRevoke, encodeSideUnits(victim.token, stolen))
		r.side(sideAssign, encodeSideUnits(thief.token, stolen))
		r.fleetAssigned(victim)
		r.fleetAssigned(thief)
		if m := r.opts.Metrics; m != nil && m.Steals != nil {
			m.Steals.Inc()
		}
		r.opts.Tracer.Emit(telemetry.Event{Kind: telemetry.KindSteal, Detail: fmt.Sprintf("%d units %s -> %s", len(stolen), victim.name, thief.name)})
		r.opts.logf("fabric: %s stole %d units from %s", thief.name, len(stolen), victim.name)
		if err := victim.conn.send(msgRevoke, encodeRuns(stolen)); err != nil {
			r.detach(victim.conn, fmt.Errorf("revoke write: %w", err))
			// The stolen units stay with the thief either way.
		}
		r.assign(thief, stolen)
	}
}

// distribute cuts a sorted unit set into contiguous slices weighted by each
// executor's worker count and assigns them in id order.
func (r *coordRun) distribute(xs []*session, units []int) {
	totalW := 0
	for _, s := range xs {
		totalW += s.workers
	}
	start, given := 0, 0
	for i, s := range xs {
		var n int
		if i == len(xs)-1 {
			n = len(units) - start
		} else {
			given += s.workers
			n = len(units)*given/totalW - start
		}
		if n <= 0 {
			continue
		}
		slice := units[start : start+n]
		start += n
		for _, u := range slice {
			r.owner[u] = s
		}
		s.assigned += len(slice)
		r.side(sideAssign, encodeSideUnits(s.token, slice))
		r.fleetAssigned(s)
		r.assign(s, slice)
	}
}

// assign ships one sorted unit set to an attached session. The owner and
// sidecar bookkeeping are the caller's; assign only encodes, counts and
// writes.
func (r *coordRun) assign(s *session, units []int) {
	if len(units) == 0 || s.conn == nil {
		return
	}
	if m := r.opts.Metrics; m != nil && m.Assigned != nil {
		m.Assigned.Add(uint64(len(units)))
	}
	r.opts.Tracer.Emit(telemetry.Event{Kind: telemetry.KindRangeAssigned, Detail: fmt.Sprintf("%d units -> %s", len(units), s.name)})
	if err := s.conn.send(msgAssign, encodeRuns(units)); err != nil {
		r.detach(s.conn, fmt.Errorf("assign write: %w", err))
	}
}

// shutdownAll releases every attached executor (best effort) and closes the
// fleet. Detached sessions have no connection to release; their executors'
// reconnect windows expire against a closed port.
func (r *coordRun) shutdownAll() {
	for _, s := range r.attached() {
		_ = s.conn.send(worker.MsgShutdown, nil)
		s.conn.conn.Close()
		s.conn = nil
	}
	if m := r.opts.Metrics; m != nil && m.Hosts != nil {
		m.Hosts.Set(0)
	}
}
