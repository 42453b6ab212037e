package fabric

import (
	"fmt"
	"regexp"
	"sort"
	"strings"
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

// FleetHost is one executor's row in the live fleet view (/fleet): the
// report's row plus the live scheduling state.
type FleetHost struct {
	telemetry.HostStats
	Attached bool `json:"attached"`
	// Assigned is the number of units the host currently owns; Ranges is
	// their run-length rendering, so both shrink as verdicts arrive.
	Assigned int    `json:"assigned"`
	Ranges   string `json:"ranges,omitempty"`
	// UnitsPerSec is Merged over the time since the session was created.
	UnitsPerSec float64 `json:"units_per_sec"`
	// LastSeenMS is milliseconds since the last frame from this host — the
	// heartbeat lag a fleet operator watches for stragglers.
	LastSeenMS int64 `json:"last_seen_ms"`
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

// Fleet renders the live fleet view from the session roster. It is safe
// from any goroutine, before, during and after Run. Total counts the units
// given to Run (units replayed from a journal never cross the wire). The
// counter section is limited to the fabric_ and chaos_ families — the full
// registry is what /metrics is for.
func (c *Coordinator) Fleet() FleetSnapshot {
	r := c.run
	r.mu.Lock()
	snap := FleetSnapshot{Total: r.total, Done: r.doneN, Hosts: make([]FleetHost, len(r.roster))}
	now := time.Now()
	for i, s := range r.roster {
		h := FleetHost{
			HostStats:  s.HostStats,
			Attached:   s.conn != nil,
			Assigned:   s.assigned,
			Ranges:     formatRuns(r.outstanding(s)),
			LastSeenMS: now.Sub(s.lastSeen).Milliseconds(),
		}
		if life := now.Sub(s.joined).Seconds(); life > 0 {
			h.UnitsPerSec = float64(s.Merged) / life
		}
		snap.Hosts[i] = h
	}
	r.mu.Unlock()
	if reg := c.opts.Registry; reg != nil {
		snap.Counters = make(map[string]uint64)
		for name, v := range reg.Counters() {
			if strings.HasPrefix(name, "fabric_") || strings.HasPrefix(name, "chaos_") {
				snap.Counters[name] = v
			}
		}
	}
	return snap
}

// Hosts renders the roster as the report's hosts section, one row per
// session in registration order. Like Fleet, it is safe from any goroutine.
func (c *Coordinator) Hosts() []telemetry.HostStats {
	r := c.run
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]telemetry.HostStats, len(r.roster))
	for i, s := range r.roster {
		out[i] = s.HostStats
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

// metricNameRE is the federated series name grammar: a Prometheus metric
// name, optionally followed by one constant label block whose values need
// no escaping — exactly what telemetry.WithLabel can splice a host label
// into and WritePrometheus can print as one line.
var metricNameRE = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*` +
	`(\{[a-zA-Z_][a-zA-Z0-9_]*="[^"\\\n\r]*"(,[a-zA-Z_][a-zA-Z0-9_]*="[^"\\\n\r]*")*\})?$`)

// validMetricName gates federated series names before they are registered
// locally: a frame from a fingerprint-matched executor is trusted about as
// far as its verdicts are, but a name that would corrupt the Prometheus
// exposition (outside metricNameRE, a host label of its own that would
// repeat the spliced one, or unbounded length) is dropped regardless.
func validMetricName(name string) bool {
	return len(name) <= 256 && metricNameRE.MatchString(name) &&
		!strings.Contains(name, `{host="`) && !strings.Contains(name, `,host="`)
}

// ingestSnapshot folds one telemetry frame into the coordinator: every
// series becomes a host-labelled gauge on the coordinator registry (gauges,
// not counters — these are samples of remote cumulative state, and Set is
// idempotent under the at-most-once frame delivery), and the session's
// fleet row gets the clock-offset sample and the host's executed counter.
func (r *coordRun) ingestSnapshot(s *session, sentUS int64, entries []snapEntry) {
	var offsetUS int64
	if sentUS != 0 {
		offsetUS = time.Now().UnixMicro() - sentUS
	}
	s.ClockOffsetUS = offsetUS
	if reg := r.opts.Registry; reg != nil {
		label := fmt.Sprintf("host=%q", s.Name)
		for _, e := range entries {
			if !validMetricName(e.Name) {
				continue
			}
			reg.Gauge(telemetry.WithLabel(e.Name, label)).Set(int64(e.Value))
		}
	}
	for _, e := range entries {
		if e.Name == fedExecutedName {
			s.Executed = e.Value
			break
		}
	}
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
		e.Host = s.Name
		if !e.T.IsZero() {
			e.T = e.T.Add(offset)
		}
		r.opts.Tracer.Emit(e)
	}
}
