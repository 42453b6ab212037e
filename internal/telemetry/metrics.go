// Package telemetry is the runtime observability layer of the campaign
// stack: low-overhead metrics (counters, gauges, fixed-bucket histograms in
// a Prometheus-text registry), structured trace events in a bounded ring
// buffer with an optional JSONL sink, a TTY-aware live progress line, an
// opt-in HTTP debug server (/metrics, expvar, pprof), and a machine-readable
// end-of-run report.
//
// The package is dependency-free (standard library only) so every layer of
// the repository — journal, golden store, worker supervisor, campaign
// executor — can import it without cycles. Every instrument is nil-safe:
// methods on a nil *Counter, *Gauge, *Histogram, *Tracer or *Telemetry are
// no-ops, so uninstrumented paths pay exactly one pointer check and
// instrumentation never needs to be conditionally compiled in or out.
// Telemetry observes execution; it must never change it — the campaign
// property tests assert that results are bit-identical with telemetry on
// and off.
package telemetry

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// counterShards is the fan-out of one Counter: hot-path writers that know
// their worker index spread over shards to avoid cache-line ping-pong;
// writers that do not use shard 0. Power of two so the mask is one AND.
const counterShards = 8

// shard is one cache-line-padded counter cell. The padding keeps two shards
// out of the same 64-byte line, so concurrent workers do not false-share.
type shard struct {
	n atomic.Uint64
	_ [56]byte
}

// Counter is a monotonically increasing sharded atomic counter. The zero
// value is ready to use; a nil *Counter is a no-op.
type Counter struct {
	name   string
	shards [counterShards]shard
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds d on shard 0 (callers without a worker identity).
func (c *Counter) Add(d uint64) {
	if c == nil {
		return
	}
	c.shards[0].n.Add(d)
}

// AddShard adds d on the shard selected by w — the executor's worker index.
// Any w is valid; it is reduced mod the shard count.
func (c *Counter) AddShard(w int, d uint64) {
	if c == nil {
		return
	}
	c.shards[uint(w)%counterShards].n.Add(d)
}

// Value returns the counter's total across shards.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	var t uint64
	for i := range c.shards {
		t += c.shards[i].n.Load()
	}
	return t
}

// Name returns the registered metric name ("" for an unregistered counter).
func (c *Counter) Name() string {
	if c == nil {
		return ""
	}
	return c.name
}

// Gauge is an atomic instantaneous value. The zero value is ready to use; a
// nil *Gauge is a no-op.
type Gauge struct {
	name string
	v    atomic.Int64
}

// Set stores v.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// Add adds d.
func (g *Gauge) Add(d int64) {
	if g == nil {
		return
	}
	g.v.Add(d)
}

// Value returns the gauge's current value.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// DefaultLatencyBuckets is the fixed bucket ladder used for every latency
// histogram in the repository, in microseconds: roughly exponential from
// 1µs to 10s. Fixed buckets keep Observe allocation-free and O(log n).
var DefaultLatencyBuckets = []uint64{
	1, 2, 5, 10, 20, 50, 100, 200, 500,
	1_000, 2_000, 5_000, 10_000, 20_000, 50_000, 100_000, 200_000, 500_000,
	1_000_000, 2_000_000, 5_000_000, 10_000_000,
}

// Histogram is a fixed-bucket histogram with atomic cells. Bucket i counts
// observations v <= uppers[i]; the last cell counts the overflow (+Inf).
// The value unit is whatever the caller observes — latency histograms in
// this repository use microseconds. A nil *Histogram is a no-op.
type Histogram struct {
	name   string
	uppers []uint64        // sorted bucket upper bounds
	counts []atomic.Uint64 // len(uppers)+1; last is +Inf
	sum    atomic.Uint64
}

// newHistogram builds a detached histogram (registries use Histogram()).
func newHistogram(name string, uppers []uint64) *Histogram {
	u := append([]uint64(nil), uppers...)
	sort.Slice(u, func(i, j int) bool { return u[i] < u[j] })
	return &Histogram{name: name, uppers: u, counts: make([]atomic.Uint64, len(u)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v uint64) {
	if h == nil {
		return
	}
	i := sort.Search(len(h.uppers), func(i int) bool { return v <= h.uppers[i] })
	h.counts[i].Add(1)
	h.sum.Add(v)
}

// ObserveSince records the elapsed time since start, in microseconds — the
// one-liner for latency instrumentation sites.
func (h *Histogram) ObserveSince(start time.Time) {
	if h == nil {
		return
	}
	h.Observe(uint64(time.Since(start).Microseconds()))
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	var t uint64
	for i := range h.counts {
		t += h.counts[i].Load()
	}
	return t
}

// Sum returns the sum of observed values.
func (h *Histogram) Sum() uint64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

// HistogramSnapshot is a point-in-time copy of a histogram, used by reports.
type HistogramSnapshot struct {
	Name    string        `json:"name"`
	Count   uint64        `json:"count"`
	Sum     uint64        `json:"sum"`
	Buckets []BucketCount `json:"buckets,omitempty"`
}

// BucketCount is one non-empty histogram bucket: the cumulative count of
// observations at or below Le (Le == 0 with Inf set is the overflow bucket).
type BucketCount struct {
	Le  uint64 `json:"le"`
	Inf bool   `json:"inf,omitempty"`
	N   uint64 `json:"n"`
}

// Snapshot copies the histogram's current state, keeping only non-empty
// buckets (counts here are per-bucket, not cumulative).
func (h *Histogram) Snapshot() HistogramSnapshot {
	if h == nil {
		return HistogramSnapshot{}
	}
	s := HistogramSnapshot{Name: h.name, Sum: h.sum.Load()}
	for i := range h.counts {
		n := h.counts[i].Load()
		s.Count += n
		if n == 0 {
			continue
		}
		b := BucketCount{N: n}
		if i < len(h.uppers) {
			b.Le = h.uppers[i]
		} else {
			b.Inf = true
		}
		s.Buckets = append(s.Buckets, b)
	}
	return s
}

// Registry holds the named instruments of one campaign (or process) and
// renders them in Prometheus text exposition format. Registration is
// idempotent per name; lookups after the first return the same instrument.
// A nil *Registry hands out nil instruments, which are themselves no-ops —
// the disabled-telemetry configuration costs one nil check per call site.
//
// Metric names may carry a constant label suffix in braces, e.g.
// `campaign_verdicts_total{mode="correct"}`; the registry treats the whole
// string as the identity and splices histogram `le` labels in correctly.
type Registry struct {
	mu     sync.Mutex
	counts map[string]*Counter
	gauges map[string]*Gauge
	hists  map[string]*Histogram
	order  []string // registration order, for stable iteration before sorting
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counts: make(map[string]*Counter),
		gauges: make(map[string]*Gauge),
		hists:  make(map[string]*Histogram),
	}
}

// Counter returns the registered counter with the given name, creating it on
// first use. A nil registry returns a nil (no-op) counter.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok := r.counts[name]; ok {
		return c
	}
	c := &Counter{name: name}
	r.counts[name] = c
	r.order = append(r.order, name)
	return c
}

// Gauge returns the registered gauge with the given name, creating it on
// first use. A nil registry returns a nil (no-op) gauge.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g, ok := r.gauges[name]; ok {
		return g
	}
	g := &Gauge{name: name}
	r.gauges[name] = g
	r.order = append(r.order, name)
	return g
}

// Histogram returns the registered histogram with the given name, creating
// it with the given bucket upper bounds on first use (later calls ignore
// the bounds). A nil registry returns a nil (no-op) histogram.
func (r *Registry) Histogram(name string, uppers []uint64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok := r.hists[name]; ok {
		return h
	}
	h := newHistogram(name, uppers)
	r.hists[name] = h
	r.order = append(r.order, name)
	return h
}

// baseName strips a label suffix: `foo{mode="x"}` -> `foo`.
func baseName(name string) string {
	if i := strings.IndexByte(name, '{'); i >= 0 {
		return name[:i]
	}
	return name
}

// withLabel splices an extra label into a possibly-labelled name:
// withLabel(`foo`, `le="5"`) -> `foo{le="5"}`,
// withLabel(`foo{a="b"}`, `le="5"`) -> `foo{a="b",le="5"}`.
func withLabel(name, label string) string {
	if i := strings.IndexByte(name, '{'); i >= 0 && strings.HasSuffix(name, "}") {
		return name[:len(name)-1] + "," + label + "}"
	}
	return name + "{" + label + "}"
}

// WithLabel is withLabel for other packages — the fabric coordinator uses
// it to re-register federated executor series under a host label, keeping
// the label-in-name convention in one place.
func WithLabel(name, label string) string { return withLabel(name, label) }

// WritePrometheus renders every registered instrument in Prometheus text
// exposition format, sorted by name so scrapes are diffable. Histogram
// bucket lines are cumulative and end with the +Inf bucket, per the format.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	names := append([]string(nil), r.order...)
	r.mu.Unlock()
	sort.Strings(names)

	typed := make(map[string]bool) // base names with an emitted # TYPE line
	emitType := func(name, kind string) error {
		base := baseName(name)
		if typed[base] {
			return nil
		}
		typed[base] = true
		_, err := fmt.Fprintf(w, "# TYPE %s %s\n", base, kind)
		return err
	}

	for _, name := range names {
		r.mu.Lock()
		c, isC := r.counts[name]
		g, isG := r.gauges[name]
		h, isH := r.hists[name]
		r.mu.Unlock()
		switch {
		case isC:
			if err := emitType(name, "counter"); err != nil {
				return err
			}
			if _, err := fmt.Fprintf(w, "%s %d\n", name, c.Value()); err != nil {
				return err
			}
		case isG:
			if err := emitType(name, "gauge"); err != nil {
				return err
			}
			if _, err := fmt.Fprintf(w, "%s %d\n", name, g.Value()); err != nil {
				return err
			}
		case isH:
			if err := emitType(name, "histogram"); err != nil {
				return err
			}
			var cum uint64
			for i := range h.counts {
				cum += h.counts[i].Load()
				le := "+Inf"
				if i < len(h.uppers) {
					le = fmt.Sprintf("%d", h.uppers[i])
				}
				line := withLabel(name+"_bucket", `le="`+le+`"`)
				if _, err := fmt.Fprintf(w, "%s %d\n", line, cum); err != nil {
					return err
				}
			}
			if _, err := fmt.Fprintf(w, "%s_sum %d\n", name, h.Sum()); err != nil {
				return err
			}
			if _, err := fmt.Fprintf(w, "%s_count %d\n", name, cum); err != nil {
				return err
			}
		}
	}
	return nil
}

// Counters returns a name → value snapshot of every registered counter and
// gauge (gauges as their current value), for reports and expvar.
func (r *Registry) Counters() map[string]uint64 {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]uint64, len(r.counts)+len(r.gauges))
	for name, c := range r.counts {
		out[name] = c.Value()
	}
	for name, g := range r.gauges {
		out[name] = uint64(g.Value())
	}
	return out
}

// Histograms returns snapshots of every registered histogram with at least
// one observation, sorted by name.
func (r *Registry) Histograms() []HistogramSnapshot {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	hs := make([]*Histogram, 0, len(r.hists))
	for _, h := range r.hists {
		hs = append(hs, h)
	}
	r.mu.Unlock()
	var out []HistogramSnapshot
	for _, h := range hs {
		if s := h.Snapshot(); s.Count > 0 {
			out = append(out, s)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// JournalMetrics is the instrument bundle the journal accepts: append count,
// append latency, and a gauge that latches to 1 when a write failure flips
// the journal into degraded (journal-disabled) mode. The zero value (nil
// instruments) disables all of it.
type JournalMetrics struct {
	Appends       *Counter
	AppendLatency *Histogram
	DegradedMode  *Gauge
}

// GoldenMetrics is the instrument bundle the golden-run store accepts:
// golden runs recorded, checkpoints retained, and record latency. The zero
// value disables all three.
type GoldenMetrics struct {
	Runs        *Counter
	Checkpoints *Counter
	RunLatency  *Histogram
}

// WorkerMetrics is the instrument bundle the worker supervisor accepts.
// A nil *WorkerMetrics (the Options default) disables all of it.
type WorkerMetrics struct {
	Restarts        *Counter   // abnormal worker deaths (spawn failures included)
	Redeliveries    *Counter   // units redelivered after killing a worker
	Quarantines     *Counter   // units quarantined after exhausting deliveries
	HeartbeatGap    *Histogram // µs between received heartbeats, per worker
	DeliveryLatency *Histogram // µs to a verdict from the later of its dispatch and the previous verdict
	BreakerOpen     *Gauge     // 1 once the restart circuit breaker tripped
	FramesRejected  *Counter   // pipe frames dropped for a CRC mismatch
}

// NewWorkerMetrics registers the worker-supervisor instruments on reg under
// their canonical names; every caller that enables supervision metrics
// goes through here, so the same registry always yields the same counter
// instances. A nil
// registry yields a nil bundle (disabled).
func NewWorkerMetrics(reg *Registry) *WorkerMetrics {
	if reg == nil {
		return nil
	}
	return &WorkerMetrics{
		Restarts:        reg.Counter("worker_restarts_total"),
		Redeliveries:    reg.Counter("worker_redeliveries_total"),
		Quarantines:     reg.Counter("worker_quarantines_total"),
		HeartbeatGap:    reg.Histogram("worker_heartbeat_gap_us", DefaultLatencyBuckets),
		DeliveryLatency: reg.Histogram("worker_delivery_latency_us", DefaultLatencyBuckets),
		BreakerOpen:     reg.Gauge("worker_breaker_open"),
		FramesRejected:  reg.Counter("worker_frames_rejected_total"),
	}
}

// Telemetry is the top-level handle a CLI builds and threads through the
// engine into the campaign layer: the metric registry, the tracer, and the
// progress surface. Any field may be nil; a nil *Telemetry disables
// everything (the accessors below are nil-safe).
type Telemetry struct {
	Reg      *Registry
	Trace    *Tracer
	Progress *Progress
}

// Registry returns the metric registry, or nil.
func (t *Telemetry) Registry() *Registry {
	if t == nil {
		return nil
	}
	return t.Reg
}

// Tracer returns the tracer, or nil.
func (t *Telemetry) Tracer() *Tracer {
	if t == nil {
		return nil
	}
	return t.Trace
}

// ProgressSurface returns the progress line, or nil.
func (t *Telemetry) ProgressSurface() *Progress {
	if t == nil {
		return nil
	}
	return t.Progress
}
