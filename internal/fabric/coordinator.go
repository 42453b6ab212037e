package fabric

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"slices"
	"sort"
	"sync"
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
	// Resumed counts sessions that re-attached after a connection loss,
	// including sessions adopted after a coordinator restart or an expiry.
	Resumed *telemetry.Counter
	// BadFrames counts connections severed by a frame checksum mismatch —
	// the poisoned-frame rejection path.
	BadFrames *telemetry.Counter
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
	// metric half of federation; frames are still consumed. With Metrics
	// set, each session's fabric_host_units_total{host=…} counter of merged
	// verdicts registers here too.
	Registry *telemetry.Registry

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
// campaign. Create with NewCoordinator, drive with Run; Fleet and Hosts read
// its session roster from any goroutine.
type Coordinator struct {
	opts CoordinatorOptions
	ln   net.Listener
	run  *coordRun
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
	c := &Coordinator{opts: opts, ln: ln}
	c.run = &coordRun{
		opts:     &c.opts,
		events:   make(chan event, 64),
		stop:     make(chan struct{}),
		sessions: make(map[uint64]*session),
		owner:    make(map[int]*session),
		done:     make(map[int]bool),
		deaths:   make(map[int]int),
	}
	return c, nil
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
	claimed []int        // the ready frame's claimed units, decoded
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

// session is one executor's scheduling identity, stable across reconnects,
// and its row in the fleet view. All fields are owned by the event loop.
type session struct {
	// HostStats is the row the report and /fleet render: the session's
	// unique name, worker count, merged verdicts, the federated executed
	// counter and clock offset, reconnects, and whether it expired.
	telemetry.HostStats
	token      uint64
	id         int             // registration order; ties deterministic iteration
	conn       *executorConn   // nil while detached
	seq        uint32          // cumulative ack watermark: every seq <= this was processed
	seen       map[uint32]bool // processed seqs above the watermark (gaps from dropped writes)
	assigned   int             // units currently owned (assigned, no verdict yet)
	detachedAt time.Time       // when the connection was lost; zero if attached
	progressAt time.Time       // last verdict processed (stall detection)
	nudgedAt   time.Time       // last stall re-assign, so nudges don't repeat every beat
	joined     time.Time       // session creation, the fleet view's throughput baseline
	lastSeen   time.Time       // last frame received (the fleet view's heartbeat lag)
	done       *telemetry.Counter
}

// coordRun is the state of a coordinator's Run call. The loop goroutine
// owns it and holds mu while it handles one event or one beat, so Fleet and
// Hosts read a consistent roster from other goroutines.
type coordRun struct {
	mu       sync.Mutex
	opts     *CoordinatorOptions
	events   chan event
	stop     chan struct{}       // closed on loop exit; unblocks reader sends
	sessions map[uint64]*session // live sessions by token
	roster   []*session          // every session ever registered, in id order; expired ones stay
	started  bool
	pending  []int // sorted unit indices awaiting an owner
	owner    map[int]*session
	done     map[int]bool
	deaths   map[int]int
	doneN    int
	total    int
	onRes    func(worker.Result) error
	fatal    error // first onResult or executor error; ends the run
}

// Run shards the given unit indices over the connected executors and calls
// onResult exactly once per index (always from this goroutine; never
// concurrently). It returns nil when every index has a verdict or a
// quarantine, ctx.Err() on cancellation (some indices then have no result),
// the first error returned by onResult, or a fatal executor error. The
// listener is closed on return. onResult runs while the loop holds the
// roster mutex, so it must not call Fleet or Hosts.
//
// Units of the plan outside indices are treated as already journaled: a
// late duplicate verdict for one (an executor retransmitting across a
// coordinator restart) is dropped instead of being delivered twice, and an
// executor's claim on one is ignored.
func (c *Coordinator) Run(ctx context.Context, indices []int, onResult func(worker.Result) error) error {
	defer c.ln.Close()
	if len(indices) == 0 {
		return nil
	}
	r := c.run
	r.mu.Lock()
	r.pending = append([]int(nil), indices...)
	sort.Ints(r.pending)
	r.total, r.onRes = len(indices), onResult
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
	r.mu.Unlock()
	defer close(r.stop)

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
	for r.doneN < r.total {
		select {
		case <-ctx.Done():
			r.locked(r.shutdownAll)
			return ctx.Err()
		case <-beat.C:
			r.locked(r.beat)
		case ev := <-r.events:
			r.locked(func() { r.handle(ev) })
		}
		// Whichever path raised it — a verdict, or a quarantine when a
		// session expires on the beat — a fatal error ends the run.
		if r.fatal != nil {
			r.locked(r.shutdownAll)
			return r.fatal
		}
	}
	r.linger()
	return nil
}

// locked runs fn under the run's mutex: one event or one beat at a time.
func (r *coordRun) locked(fn func()) {
	r.mu.Lock()
	defer r.mu.Unlock()
	fn()
}

// beat heartbeats every attached executor, nudges stalled sessions and
// expires the ones whose grace window closed.
func (r *coordRun) beat() {
	for _, s := range r.attached() {
		if err := s.conn.send(worker.MsgHeartbeat, nil); err != nil {
			r.detach(s.conn, fmt.Errorf("heartbeat write: %w", err))
			continue
		}
		r.nudge(s)
	}
	r.expireDetached()
}

// handle dispatches one event from the accept and read goroutines.
func (r *coordRun) handle(ev event) {
	switch {
	case ev.join:
		r.register(ev.x, ev.rd, ev.claimed)
	case ev.err != nil:
		r.detach(ev.x, ev.err)
	default:
		r.frame(ev.x, ev.typ, ev.payload)
	}
}

// linger is the campaign's goodbye phase: the listener and event loop stay
// alive for up to HeartbeatTimeout after the last verdict so that every
// executor actually receives the shutdown frame. On a clean network one
// round suffices; under chaos the frame may be dropped (re-sent every
// beat), corrupted (the executor severs and redials — the handshake is
// answered with shutdown instead of welcome), or the executor may be
// mid-reconnect when the campaign ends. A session is released — removed
// from the token index, detached in the roster — when its executor closes
// the connection, which it only does once the shutdown was received; the
// loop exits when every session is released or the window closes.
func (r *coordRun) linger() {
	goodbye := func() {
		for _, s := range r.attached() {
			_ = s.conn.send(worker.MsgShutdown, nil)
		}
	}
	r.locked(goodbye)
	deadline := time.NewTimer(r.opts.HeartbeatTimeout)
	defer deadline.Stop()
	beat := time.NewTicker(r.opts.HeartbeatInterval)
	defer beat.Stop()
	for len(r.sessions) > 0 {
		select {
		case <-deadline.C:
			r.locked(r.shutdownAll)
			return
		case <-beat.C:
			r.locked(goodbye)
		case ev := <-r.events:
			r.locked(func() { r.farewell(ev) })
		}
	}
	r.locked(r.shutdownAll) // nothing left attached; clears the hosts gauge
}

// farewell handles one event of the linger phase.
func (r *coordRun) farewell(ev event) {
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
			s.conn = nil
			// A clean close between frames: the executor got the shutdown
			// and hung up. Receipt confirmed. Severed mid-frame (chaos
			// corruption, reset), the executor may not have seen the
			// goodbye: hold the session; its redial gets shutdown at the
			// handshake.
			if errors.Is(ev.err, io.EOF) {
				delete(r.sessions, s.token)
			}
		}
	default:
		// Late frames: verdicts are spent duplicates; processing them
		// re-acks so the executor's buffer drains.
		r.frame(ev.x, ev.typ, ev.payload)
	}
}

// nudge re-sends a session's outstanding ranges when it has owned units but
// made no verdict progress for a full HeartbeatTimeout. On a clean link this
// never fires; under chaos it repairs silently dropped assign frames (the
// executor never saw the range) and keeps the campaign converging. A
// re-delivered range is idempotent: an assign never re-queues a unit the
// executor already holds.
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
	outstanding := r.outstanding(s)
	if len(outstanding) == 0 {
		return
	}
	r.opts.logf("fabric: %s made no progress for %v; re-sending %d outstanding unit(s)",
		s.Name, r.opts.HeartbeatTimeout, len(outstanding))
	if err := s.conn.send(msgAssign, encodeRuns(outstanding)); err != nil {
		r.detach(s.conn, fmt.Errorf("assign write: %w", err))
	}
}

// outstanding returns a session's owned, unfinished units in ascending
// order.
func (r *coordRun) outstanding(s *session) []int {
	var units []int
	for u, o := range r.owner {
		if o == s && !r.done[u] {
			units = append(units, u)
		}
	}
	sort.Ints(units)
	return units
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
			claimed, err := decodeRuns(rd.Claimed, c.opts.Units)
			if err != nil {
				reject(fmt.Errorf("executor claim: %w", err))
				return
			}
			select {
			case r.events <- event{x: x, join: true, rd: rd, claimed: claimed}:
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
	ss := make([]*session, 0, len(r.roster))
	for _, s := range r.roster {
		if s.conn != nil {
			ss = append(ss, s)
		}
	}
	return ss
}

func (r *coordRun) hostsGauge() {
	if m := r.opts.Metrics; m != nil && m.Hosts != nil {
		m.Hosts.Set(int64(len(r.attached())))
	}
}

// register handles a completed handshake. A ready frame with a token this
// coordinator knows re-attaches the executor to its surviving session. A
// nonzero token it does not know names a session of a crashed predecessor,
// or one this coordinator expired: the session is adopted under that token
// with the units the executor claims. A zero token opens a fresh session.
// A re-attached or adopted session gets a resumed welcome carrying the ack
// watermark, so the executor keeps its queue and prunes its retransmit
// buffer, and then its outstanding units again in case the original assign
// died in a partition (the executor drops the ones it already holds). The
// welcome always precedes any assign on the new connection.
func (r *coordRun) register(x *executorConn, rd worker.Ready, claimed []int) {
	resumed := rd.Token != 0
	s := r.sessions[rd.Token]
	switch {
	case s == nil:
		s = r.newSession(rd)
		if resumed {
			r.adopt(s, claimed)
		}
	case s.conn != nil:
		// The old connection is half-open (the executor gave up on it
		// first). Drop it; its reader will surface a stale error we ignore.
		s.conn.sess = nil
		s.conn.conn.Close()
		fallthrough
	default:
		s.Reconnects++
	}
	s.conn = x
	s.detachedAt = time.Time{}
	s.progressAt = time.Now()
	s.lastSeen = s.progressAt
	x.sess = s
	if m := r.opts.Metrics; resumed && m != nil && m.Resumed != nil {
		m.Resumed.Inc()
	}
	r.hostsGauge()
	if err := x.send(msgWelcome, encodeWelcome(welcome{Token: s.token, Resumed: resumed, Acked: s.seq})); err != nil {
		r.detach(x, fmt.Errorf("welcome write: %w", err))
		return
	}
	if !resumed {
		r.opts.Tracer.Emit(telemetry.Event{Kind: telemetry.KindHostJoined, Detail: fmt.Sprintf("%s (%d workers)", s.Name, s.Workers)})
		r.opts.logf("fabric: executor %s joined (%d workers; %d/%d hosts)", s.Name, s.Workers, len(r.attached()), r.opts.MinHosts)
		r.schedule()
		return
	}
	outstanding := r.outstanding(s)
	r.opts.Tracer.Emit(telemetry.Event{Kind: telemetry.KindHostResumed,
		Detail: fmt.Sprintf("%s (session %d, %d units outstanding)", s.Name, s.token, len(outstanding))})
	r.opts.logf("fabric: executor %s re-attached to session %d (%d units outstanding, acked seq %d)",
		s.Name, s.token, len(outstanding), s.seq)
	if len(outstanding) > 0 {
		if err := x.send(msgAssign, encodeRuns(outstanding)); err != nil {
			r.detach(x, fmt.Errorf("assign write: %w", err))
			return
		}
	}
	r.schedule()
}

// newSession opens a session for a ready frame whose token this coordinator
// does not know (zero draws a fresh token) and appends it to the roster.
// Executors on one machine all default to its hostname, and every per-host
// series, trace stamp and log line is keyed by the name, so a name another
// roster row already uses gets the session id appended.
func (r *coordRun) newSession(rd worker.Ready) *session {
	token := rd.Token
	if token == 0 {
		token = r.newToken()
	}
	s := &session{
		token:  token,
		id:     len(r.roster),
		seen:   make(map[uint32]bool),
		joined: time.Now(),
	}
	name := rd.Name
	for slices.ContainsFunc(r.roster, func(o *session) bool { return o.Name == name }) {
		name = fmt.Sprintf("%s#%d", name, s.id)
	}
	s.Name, s.Workers = name, int(rd.Workers)
	r.sessions[token] = s
	r.roster = append(r.roster, s)
	if r.opts.Metrics != nil {
		s.done = r.opts.Registry.Counter(fmt.Sprintf(`fabric_host_units_total{host=%q}`, s.Name))
	}
	return s
}

// adopt gives a session this coordinator did not know the units its
// executor claims, rebuilding the ownership a crashed predecessor (or an
// expiry here) lost. Units already done are skipped, pending ones are
// taken, and ones handed to another session meanwhile are taken back with
// the steal path's revoke. Death counts are not rebuilt: a unit's count
// restarts with the coordinator.
func (r *coordRun) adopt(s *session, claimed []int) {
	mine := make(map[int]bool, len(claimed))
	taken := make(map[*session][]int)
	for _, u := range claimed {
		if r.done[u] {
			continue
		}
		if o := r.owner[u]; o != nil {
			o.assigned--
			taken[o] = append(taken[o], u)
		}
		r.owner[u] = s
		s.assigned++
		mine[u] = true
	}
	pending := r.pending[:0]
	for _, u := range r.pending {
		if !mine[u] {
			pending = append(pending, u)
		}
	}
	r.pending = pending
	victims := make([]*session, 0, len(taken))
	for o := range taken {
		victims = append(victims, o)
	}
	sort.Slice(victims, func(i, j int) bool { return victims[i].id < victims[j].id })
	for _, o := range victims {
		r.opts.logf("fabric: %s reclaims %d units from %s", s.Name, len(taken[o]), o.Name)
		r.revoke(o, taken[o])
	}
	r.opts.logf("fabric: adopted session %d of %s: %d of %d claimed units outstanding",
		s.token, s.Name, len(mine), len(claimed))
}

// revoke tells a session's executor that units it was assigned now belong
// to another session. A detached session cannot be told; its executor runs
// them anyway and the merge drops the duplicate verdicts.
func (r *coordRun) revoke(s *session, units []int) {
	if s.conn == nil {
		return
	}
	if err := s.conn.send(msgRevoke, encodeRuns(units)); err != nil {
		r.detach(s.conn, fmt.Errorf("revoke write: %w", err))
	}
}

// newToken draws a fresh session token. Tokens are random, not counted, so
// a restarted coordinator cannot hand out a token that an executor of its
// predecessor will present for adoption.
func (r *coordRun) newToken() uint64 {
	for {
		if t := rand.Uint64(); t != 0 && r.sessions[t] == nil {
			return t
		}
	}
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
	r.hostsGauge()
	r.opts.Tracer.Emit(telemetry.Event{Kind: telemetry.KindHostDetached,
		Detail: fmt.Sprintf("%s: %v (session %d; %v grace)", s.Name, err, s.token, r.opts.SessionTimeout)})
	r.opts.logf("fabric: lost connection to %s (%v); session %d has %v to re-attach",
		s.Name, err, s.token, r.opts.SessionTimeout)
}

// expireDetached declares sessions dead once their grace window closes:
// unfinished units go back to pending (counting one delivery each;
// exhausted units are quarantined) and the fleet is rescheduled.
func (r *coordRun) expireDetached() {
	var expired []*session
	for _, s := range r.roster {
		if s.conn == nil && !s.Expired && time.Since(s.detachedAt) > r.opts.SessionTimeout {
			expired = append(expired, s)
		}
	}
	for _, s := range expired {
		r.expire(s)
	}
}

func (r *coordRun) expire(s *session) {
	delete(r.sessions, s.token)
	s.Expired = true
	lost := r.outstanding(s)
	s.assigned = 0
	m := r.opts.Metrics
	if m != nil && m.HostDeaths != nil {
		m.HostDeaths.Inc()
	}
	r.opts.Tracer.Emit(telemetry.Event{Kind: telemetry.KindHostLost,
		Detail: fmt.Sprintf("%s: grace expired (%d units redelivered)", s.Name, len(lost))})
	r.opts.logf("fabric: executor %s never re-attached; session %d expired, redelivering %d units", s.Name, s.token, len(lost))
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
// maxHostDeaths executor hosts.
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

// deliver invokes onResult; its first error becomes the run's fatal error.
func (r *coordRun) deliver(res worker.Result) {
	if r.onRes == nil {
		return
	}
	if err := r.onRes(res); err != nil && r.fatal == nil {
		r.fatal = err
	}
}

// frame handles one frame from a registered executor. An executor-reported
// error is fatal to the whole run (the same unit would fail on any host);
// so is an onResult failure, which deliver records.
func (r *coordRun) frame(x *executorConn, typ uint8, payload []byte) {
	s := x.sess
	if s == nil || s.conn != x {
		x.conn.Close() // stale conn replaced by a reconnect; drop its frames
		return
	}
	s.lastSeen = time.Now()
	switch typ {
	case worker.MsgHeartbeat:
	case msgTelemetry:
		sentUS, entries, err := decodeSnapshot(payload, maxSnapEntries)
		if err != nil {
			r.detach(x, err)
			return
		}
		r.ingestSnapshot(s, sentUS, entries)
	case msgTrace:
		sentUS, evs, err := decodeTraceEvents(payload, maxTraceEvents)
		if err != nil {
			r.detach(x, err)
			return
		}
		r.ingestTrace(s, sentUS, evs)
	case worker.MsgError:
		if r.fatal == nil {
			r.fatal = fmt.Errorf("fabric: executor %s: %s", s.Name, payload)
		}
	case worker.MsgVerdict:
		v, err := worker.DecodeVerdict(payload)
		if err != nil {
			r.detach(x, err)
			return
		}
		u := int(v.Unit)
		if u < 0 || u >= r.opts.Units {
			r.detach(x, fmt.Errorf("verdict for unit %d outside the %d-unit plan", u, r.opts.Units))
			return
		}
		if v.Seq <= s.seq || s.seen[v.Seq] {
			// A retransmit of a verdict this session already processed;
			// re-ack the watermark so the executor prunes its buffer.
			_ = x.send(msgAck, encodeAck(s.seq))
			return
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
			return
		}
		r.done[u] = true
		r.doneN++
		if o := r.owner[u]; o != nil {
			o.assigned--
			delete(r.owner, u)
		}
		s.Merged++
		s.done.Inc()
		r.deliver(worker.Result{Index: u, Outcome: v.Outcome, Payload: v.Payload})
		if r.fatal != nil {
			return
		}
		// Ack only after deliver: every seq at or below the watermark has
		// been journaled, so an executor that prunes on this ack can never
		// strand an unjournaled verdict.
		if err := x.send(msgAck, encodeAck(s.seq)); err != nil {
			r.detach(x, fmt.Errorf("ack write: %w", err))
			return
		}
		r.schedule()
	default:
		r.detach(x, fmt.Errorf("unexpected frame type %d", typ))
	}
}

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
		units := r.outstanding(victim)
		stolen := units[len(units)-len(units)/2:]
		for _, u := range stolen {
			r.owner[u] = thief
		}
		victim.assigned -= len(stolen)
		thief.assigned += len(stolen)
		if m := r.opts.Metrics; m != nil && m.Steals != nil {
			m.Steals.Inc()
		}
		r.opts.Tracer.Emit(telemetry.Event{Kind: telemetry.KindSteal, Detail: fmt.Sprintf("%d units %s -> %s", len(stolen), victim.Name, thief.Name)})
		r.opts.logf("fabric: %s stole %d units from %s", thief.Name, len(stolen), victim.Name)
		// The stolen units stay with the thief even if the revoke fails.
		r.revoke(victim, stolen)
		r.assign(thief, stolen)
	}
}

// distribute cuts a sorted unit set into contiguous slices weighted by each
// executor's worker count and assigns them in id order.
func (r *coordRun) distribute(xs []*session, units []int) {
	totalW := 0
	for _, s := range xs {
		totalW += s.Workers
	}
	start, given := 0, 0
	for i, s := range xs {
		var n int
		if i == len(xs)-1 {
			n = len(units) - start
		} else {
			given += s.Workers
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
		r.assign(s, slice)
	}
}

// assign ships one sorted unit set to an attached session. The owner
// bookkeeping is the caller's; assign only encodes, counts and writes.
func (r *coordRun) assign(s *session, units []int) {
	if len(units) == 0 || s.conn == nil {
		return
	}
	if m := r.opts.Metrics; m != nil && m.Assigned != nil {
		m.Assigned.Add(uint64(len(units)))
	}
	r.opts.Tracer.Emit(telemetry.Event{Kind: telemetry.KindRangeAssigned, Detail: fmt.Sprintf("%d units -> %s", len(units), s.Name)})
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
