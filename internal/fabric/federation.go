package fabric

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/telemetry"
)

// Federation is the executor side of fleet telemetry federation (DESIGN.md
// §5k): the sources drained into telemetry and trace frames on the
// heartbeat cadence. Everything here is strictly best-effort — a frame
// that cannot be sent without contending with the verdict path is dropped,
// the buffer drops oldest under overflow, and nothing is retransmitted.
// Nil disables federation entirely.
type Federation struct {
	// Registry is snapshotted (counters and gauges, absolute values) into
	// telemetry frames; the coordinator republishes every series under a
	// host label.
	Registry *telemetry.Registry
	// Trace is the forwarding buffer trace frames drain. Feed it by
	// mirroring a local Tracer into it (Tracer.Mirror(Trace.Add)).
	Trace *telemetry.TraceBuffer

	// Dropped counts pushes skipped because the write path was busy — the
	// backpressure half of the drop contract.
	Dropped *telemetry.Counter
	// Executed counts units this executor finished locally (one per emitted
	// verdict, acked or not) — the series the coordinator's fleet view
	// singles out for per-host throughput. The executor increments it
	// itself, so every batch-runner flavour is covered.
	Executed *telemetry.Counter
}

// NewFederation builds an executor's federation state around its local
// telemetry. A nil registry is replaced with a fresh one, so a federated
// executor always has per-host counters to report even when local
// observability flags are off; tr (which may be nil) is mirrored into the
// forwarding buffer so every locally traced event also reaches the
// coordinator's merged trace.
func NewFederation(reg *telemetry.Registry, tr *telemetry.Tracer) *Federation {
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	buf := telemetry.NewTraceBuffer(telemetry.DefaultTraceCap)
	tr.Mirror(buf.Add)
	return &Federation{
		Registry: reg,
		Trace:    buf,
		Dropped:  reg.Counter("fabric_fed_pushes_dropped_total"),
		Executed: reg.Counter(fedExecutedName),
	}
}

// snapshot renders the registry as telemetry-frame entries, sorted by name
// so frames are deterministic for a given counter state.
func (f *Federation) snapshot() []snapEntry {
	if f == nil || f.Registry == nil {
		return nil
	}
	counts := f.Registry.Counters()
	entries := make([]snapEntry, 0, len(counts))
	for name, v := range counts {
		entries = append(entries, snapEntry{Name: name, Value: v})
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].Name < entries[j].Name })
	return entries
}

// FleetHost is one executor's row in the live fleet view (/fleet).
type FleetHost struct {
	Name     string `json:"name"`
	Workers  int    `json:"workers"`
	Attached bool   `json:"attached"`
	Expired  bool   `json:"expired,omitempty"`
	// Assigned is the number of units the host currently owns; Ranges is
	// their run-length rendering as of the last scheduling change (it is
	// not decremented per verdict — it answers "what was this host given",
	// Assigned answers "how much is left").
	Assigned int    `json:"assigned"`
	Ranges   string `json:"ranges,omitempty"`
	// Merged counts verdicts the coordinator folded in from this host;
	// Executed is the host's own federated counter (may run ahead of
	// Merged by unacked verdicts).
	Merged   int    `json:"merged"`
	Executed uint64 `json:"executed,omitempty"`
	// UnitsPerSec is Merged over the host's attached lifetime.
	UnitsPerSec float64 `json:"units_per_sec"`
	// LastSeenMS is milliseconds since the last frame from this host — the
	// heartbeat lag a fleet operator watches for stragglers.
	LastSeenMS int64 `json:"last_seen_ms"`
	// ClockOffsetUS is the latest heartbeat-sampled offset between this
	// host's clock and the coordinator's (coordinator receipt time minus
	// executor send stamp, so it includes one-way latency).
	ClockOffsetUS int64 `json:"clock_offset_us,omitempty"`
	Reconnects    int   `json:"reconnects,omitempty"`

	joined   time.Time
	lastSeen time.Time
}

// FleetSnapshot is the /fleet JSON document: campaign progress, every host
// the coordinator has ever registered (dead ones included — their history
// is part of the run), and the fabric/chaos counters of the coordinator's
// registry.
type FleetSnapshot struct {
	Total    int               `json:"total"`
	Done     int               `json:"done"`
	Hosts    []FleetHost       `json:"hosts"`
	Counters map[string]uint64 `json:"counters,omitempty"`
}

// FleetTracker is the coordinator's thread-safe live-fleet view: the event
// loop updates it in-line (cheap, mutex-guarded field writes), the debug
// server's /fleet handler and the end-of-run report read it from other
// goroutines.
type FleetTracker struct {
	mu    sync.Mutex
	total int
	done  int
	hosts map[uint64]*FleetHost
	order []uint64 // registration order, for stable rendering
	reg   *telemetry.Registry
}

// NewFleetTracker returns a tracker for a campaign of total units whose
// counter section snapshots reg (nil: no counters in /fleet).
func NewFleetTracker(total int, reg *telemetry.Registry) *FleetTracker {
	return &FleetTracker{total: total, hosts: make(map[uint64]*FleetHost), reg: reg}
}

// host returns the row for token, creating it on first sight.
func (t *FleetTracker) host(token uint64) *FleetHost {
	h, ok := t.hosts[token]
	if !ok {
		h = &FleetHost{joined: time.Now(), lastSeen: time.Now()}
		t.hosts[token] = h
		t.order = append(t.order, token)
	}
	return h
}

// Joined records a (re)registered session. Reattach passes attached=true
// again; the tracker counts it as a reconnect.
func (t *FleetTracker) Joined(token uint64, name string, workers int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	h := t.host(token)
	if h.Name != "" {
		h.Reconnects++
	}
	h.Name, h.Workers, h.Attached, h.Expired = name, workers, true, false
	h.lastSeen = time.Now()
}

// Seen stamps frame receipt from the host (heartbeat lag zeroes).
func (t *FleetTracker) Seen(token uint64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.host(token).lastSeen = time.Now()
}

// Detached marks the host's connection as lost (session still held).
func (t *FleetTracker) Detached(token uint64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.host(token).Attached = false
}

// Expired marks the host dead: its session timed out and its units were
// redelivered.
func (t *FleetTracker) Expired(token uint64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	h := t.host(token)
	h.Attached, h.Expired, h.Assigned, h.Ranges = false, true, 0, ""
}

// Assigned replaces the host's owned-unit view after a scheduling change
// (initial shard, steal, redelivery, re-attach).
func (t *FleetTracker) Assigned(token uint64, units []int) {
	if t == nil {
		return
	}
	ranges := formatRuns(units)
	t.mu.Lock()
	defer t.mu.Unlock()
	h := t.host(token)
	h.Assigned, h.Ranges = len(units), ranges
}

// Merged records one verdict folded in from the host, plus overall
// campaign progress.
func (t *FleetTracker) Merged(token uint64, done int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	h := t.host(token)
	h.Merged++
	if h.Assigned > 0 {
		h.Assigned--
	}
	t.done = done
}

// Progress records campaign progress not attributable to a host (journal
// replays on resume).
func (t *FleetTracker) Progress(done int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.done = done
}

// Sampled records a clock-offset sample and the host's federated executed
// counter from an ingested telemetry frame.
func (t *FleetTracker) Sampled(token uint64, offsetUS int64, executed uint64, ok bool) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	h := t.host(token)
	h.ClockOffsetUS = offsetUS
	if ok {
		h.Executed = executed
	}
}

// Snapshot renders the tracker for /fleet. The counter section is limited
// to the fabric_ and chaos_ families — the full registry is what /metrics
// is for.
func (t *FleetTracker) Snapshot() FleetSnapshot {
	if t == nil {
		return FleetSnapshot{}
	}
	t.mu.Lock()
	snap := FleetSnapshot{Total: t.total, Done: t.done, Hosts: make([]FleetHost, 0, len(t.order))}
	now := time.Now()
	for _, token := range t.order {
		h := *t.hosts[token]
		h.LastSeenMS = now.Sub(h.lastSeen).Milliseconds()
		if life := now.Sub(h.joined).Seconds(); life > 0 {
			h.UnitsPerSec = float64(h.Merged) / life
		}
		snap.Hosts = append(snap.Hosts, h)
	}
	reg := t.reg
	t.mu.Unlock()
	if reg != nil {
		snap.Counters = make(map[string]uint64)
		for name, v := range reg.Counters() {
			if strings.HasPrefix(name, "fabric_") || strings.HasPrefix(name, "chaos_") {
				snap.Counters[name] = v
			}
		}
	}
	return snap
}

// Source adapts the tracker to the debug server's /fleet hook.
func (t *FleetTracker) Source() func() any {
	return func() any { return t.Snapshot() }
}

// HostStats renders the tracker as the report's hosts section, in
// registration order.
func (t *FleetTracker) HostStats() []telemetry.HostStats {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]telemetry.HostStats, 0, len(t.order))
	for _, token := range t.order {
		h := t.hosts[token]
		out = append(out, telemetry.HostStats{
			Name:          h.Name,
			Workers:       h.Workers,
			Merged:        h.Merged,
			Executed:      h.Executed,
			Reconnects:    h.Reconnects,
			Expired:       h.Expired,
			ClockOffsetUS: h.ClockOffsetUS,
		})
	}
	return out
}

// formatRuns renders a sorted unit set as "0-95,140-160" (single units as
// bare numbers) for the fleet view.
func formatRuns(units []int) string {
	var sb strings.Builder
	for i := 0; i < len(units); {
		j := i + 1
		for j < len(units) && units[j] == units[j-1]+1 {
			j++
		}
		if sb.Len() > 0 {
			sb.WriteByte(',')
		}
		if j-i == 1 {
			fmt.Fprintf(&sb, "%d", units[i])
		} else {
			fmt.Fprintf(&sb, "%d-%d", units[i], units[j-1])
		}
		i = j
	}
	return sb.String()
}

// fedExecutedName is the executor-side counter the fleet view singles out:
// units the executor finished locally, whether or not the verdicts are
// acked yet.
const fedExecutedName = "fabric_units_executed_total"

// validMetricName gates federated series names before they are registered
// locally: a frame from a fingerprint-matched executor is trusted about as
// far as its verdicts are, but a name that would corrupt the Prometheus
// exposition (newlines, unbounded length) is dropped regardless.
func validMetricName(name string) bool {
	if name == "" || len(name) > 256 {
		return false
	}
	return !strings.ContainsAny(name, "\n\r")
}

// ingestSnapshot folds one telemetry frame into the coordinator: every
// series becomes a host-labelled gauge on the coordinator registry (gauges,
// not counters — these are samples of remote cumulative state, and Set is
// idempotent under the at-most-once frame delivery), and the fleet tracker
// gets the clock-offset sample and the host's executed counter.
func (r *coordRun) ingestSnapshot(s *session, sentUS int64, entries []snapEntry) {
	var offsetUS int64
	if sentUS != 0 {
		offsetUS = time.Now().UnixMicro() - sentUS
	}
	if reg := r.opts.Registry; reg != nil {
		label := fmt.Sprintf("host=%q", s.name)
		for _, e := range entries {
			if !validMetricName(e.Name) {
				continue
			}
			reg.Gauge(telemetry.WithLabel(e.Name, label)).Set(int64(e.Value))
		}
	}
	executed, haveExec := uint64(0), false
	for _, e := range entries {
		if e.Name == fedExecutedName {
			executed, haveExec = e.Value, true
			break
		}
	}
	r.opts.Fleet.Sampled(s.token, offsetUS, executed, haveExec)
}

// ingestTrace re-emits one trace frame's events on the coordinator's
// tracer, host-stamped from the session and time-shifted by this frame's
// clock-offset sample, merging every executor's lifecycle stream into the
// coordinator's single -trace JSONL.
func (r *coordRun) ingestTrace(s *session, sentUS int64, evs []telemetry.Event) {
	var offset time.Duration
	if sentUS != 0 {
		offset = time.Since(time.UnixMicro(sentUS))
	}
	for _, e := range evs {
		e.Host = s.name
		if !e.T.IsZero() {
			e.T = e.T.Add(offset)
		}
		r.opts.Tracer.Emit(e)
	}
}

// fleetAssigned refreshes the fleet tracker's owned-range view for s from
// the authoritative owner map. Called on scheduling changes only (shard,
// steal, re-attach, recovery) — they are rare, so the O(units) walk is
// cheap; per-verdict bookkeeping is the tracker's own decrement.
func (r *coordRun) fleetAssigned(s *session) {
	if r.opts.Fleet == nil {
		return
	}
	r.opts.Fleet.Assigned(s.token, r.outstanding(s))
}
