package telemetry

import (
	"bufio"
	"encoding/json"
	"io"
	"sync"
	"time"
)

// Trace event kinds, covering the unit lifecycle (planned → dispatched →
// executed → verdict) plus the resilience events of the executor and the
// worker supervisor. Kinds are plain strings on the wire so readers need no
// table from this package.
const (
	KindPlanned    = "planned"        // unit entered the campaign plan
	KindDispatched = "dispatched"     // unit handed to a worker
	KindExecuted   = "executed"       // unit attempt finished (duration attached)
	KindVerdict    = "verdict"        // unit classified (mode attached)
	KindReplayed   = "replayed"       // unit outcome taken from the journal, not executed
	KindRetry      = "retry"          // first attempt panicked; retrying on a fresh machine
	KindQuarantine = "quarantine"     // unit quarantined as a host fault
	KindDegraded   = "degraded"       // golden checkpoint unusable; fell back to straight execution
	KindRestart    = "worker_restart" // a worker subprocess died abnormally
	KindRedeliver  = "redeliver"      // a unit was redelivered after a worker death
	KindBreaker    = "breaker_open"   // the worker restart circuit breaker tripped

	// Fabric kinds, emitted by the distributed-campaign coordinator.
	KindHostJoined    = "host_joined"   // an executor host completed the fabric handshake
	KindHostLost      = "host_lost"     // an executor host died; its units were redelivered
	KindSteal         = "steal"         // an idle host stole half a straggler's range
	KindRangeAssigned = "range_assign"  // a unit range was shipped to an executor host
	KindHostDetached  = "host_detached" // an executor connection dropped; session held for re-attach
	KindHostResumed   = "host_resumed"  // an executor re-attached to its session, or a restarted coordinator adopted it
)

// Event is one structured trace event. Zero-valued fields are omitted from
// the JSONL form; T is stamped by Emit when left zero. Host names the
// executor the event happened on in a merged fleet trace; empty means the
// local process (on a coordinator: the coordinator itself).
type Event struct {
	T       time.Time `json:"t"`
	Kind    string    `json:"kind"`
	Host    string    `json:"host,omitempty"`
	Unit    int       `json:"unit,omitempty"`
	Program string    `json:"program,omitempty"`
	Fault   string    `json:"fault,omitempty"`
	Case    int       `json:"case,omitempty"`
	Mode    string    `json:"mode,omitempty"`
	Worker  int       `json:"worker,omitempty"`
	DurUS   int64     `json:"dur_us,omitempty"`
	Detail  string    `json:"detail,omitempty"`
}

// Tracer captures events in a bounded ring buffer and, when a sink is
// attached, streams every event as one JSON line. The ring holds the most
// recent events for the end-of-run report and the debug server; the sink is
// the full firehose (-trace <file>). A nil *Tracer is a no-op.
type Tracer struct {
	mu    sync.Mutex
	ring  []Event
	cap   int
	next  int    // ring insertion cursor
	total uint64 // events ever emitted
	kinds map[string]int

	sink   *bufio.Writer
	closer io.Closer
	err    error // first sink write error; reported by Close

	mirror func(Event) // federation tee; see Mirror
}

// DefaultTraceCap is the ring capacity CLIs use when none is configured.
const DefaultTraceCap = 4096

// NewTracer returns a tracer whose ring holds the last capacity events
// (minimum 1).
func NewTracer(capacity int) *Tracer {
	if capacity < 1 {
		capacity = 1
	}
	return &Tracer{cap: capacity, kinds: make(map[string]int)}
}

// SinkJSONL attaches a JSONL sink: every subsequent event is appended to w
// as one JSON object per line. If w is also an io.Closer it is closed by
// Close. Only one sink may be attached.
func (t *Tracer) SinkJSONL(w io.Writer) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.sink = bufio.NewWriter(w)
	if c, ok := w.(io.Closer); ok {
		t.closer = c
	}
}

// Emit records one event. The timestamp is stamped here when e.T is zero, so
// call sites do not pay time.Now when the tracer is nil.
func (t *Tracer) Emit(e Event) {
	if t == nil {
		return
	}
	if e.T.IsZero() {
		e.T = time.Now()
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.ring) < t.cap {
		t.ring = append(t.ring, e)
	} else {
		t.ring[t.next] = e
	}
	t.next = (t.next + 1) % t.cap
	t.total++
	t.kinds[e.Kind]++
	if t.sink != nil && t.err == nil {
		b, err := json.Marshal(e)
		if err == nil {
			_, err = t.sink.Write(append(b, '\n'))
		}
		if err != nil {
			t.err = err
		}
	}
	if t.mirror != nil {
		t.mirror(e)
	}
}

// Mirror tees every subsequently emitted event into fn, in emission order
// (fn runs under the tracer's lock, so it must be non-blocking and must not
// call back into the tracer — a TraceBuffer's Add qualifies). The fabric
// executor uses this to forward the local trace stream to the coordinator.
func (t *Tracer) Mirror(fn func(Event)) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.mirror = fn
}

// Events returns the ring's contents, oldest first.
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Event, 0, len(t.ring))
	if len(t.ring) < t.cap {
		return append(out, t.ring...)
	}
	out = append(out, t.ring[t.next:]...)
	return append(out, t.ring[:t.next]...)
}

// Total returns the number of events ever emitted (ring overwrites
// included).
func (t *Tracer) Total() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.total
}

// Summary returns the per-kind event counts over everything ever emitted.
func (t *Tracer) Summary() map[string]int {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[string]int, len(t.kinds))
	for k, n := range t.kinds {
		out[k] = n
	}
	return out
}

// Flush writes buffered sink data through.
func (t *Tracer) Flush() error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.sink != nil && t.err == nil {
		t.err = t.sink.Flush()
	}
	return t.err
}

// Close flushes the sink, closes it when it is closable, and returns the
// first sink error encountered over the tracer's lifetime.
func (t *Tracer) Close() error {
	if t == nil {
		return nil
	}
	err := t.Flush()
	t.mu.Lock()
	c := t.closer
	t.closer = nil
	t.mu.Unlock()
	if c != nil {
		if cerr := c.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// TraceBuffer is a bounded FIFO of events awaiting forwarding — the
// executor side of fleet telemetry federation. Add never blocks: when the
// buffer is full the oldest event is dropped and counted, which is the
// federation drop contract (observation is best-effort; the verdict path
// must never wait on it). A nil *TraceBuffer is a no-op.
type TraceBuffer struct {
	mu      sync.Mutex
	buf     []Event
	cap     int
	dropped uint64
}

// NewTraceBuffer returns a forwarding buffer holding at most capacity
// events (minimum 1).
func NewTraceBuffer(capacity int) *TraceBuffer {
	if capacity < 1 {
		capacity = 1
	}
	return &TraceBuffer{cap: capacity}
}

// Add appends one event, dropping the oldest buffered event when full.
func (b *TraceBuffer) Add(e Event) {
	if b == nil {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if len(b.buf) >= b.cap {
		b.buf = b.buf[1:]
		b.dropped++
	}
	b.buf = append(b.buf, e)
}

// Drain removes and returns up to max buffered events, oldest first
// (max <= 0 drains everything).
func (b *TraceBuffer) Drain(max int) []Event {
	if b == nil {
		return nil
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	n := len(b.buf)
	if n == 0 {
		return nil
	}
	if max > 0 && n > max {
		n = max
	}
	out := make([]Event, n)
	copy(out, b.buf)
	b.buf = append(b.buf[:0], b.buf[n:]...)
	return out
}

// Len returns the number of buffered events.
func (b *TraceBuffer) Len() int {
	if b == nil {
		return 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.buf)
}

// Dropped returns how many events were discarded because the buffer was
// full when they arrived.
func (b *TraceBuffer) Dropped() uint64 {
	if b == nil {
		return 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.dropped
}

// ReadJSONL parses a JSONL trace stream back into events — the inverse of
// the sink, used by tests and report tooling.
func ReadJSONL(r io.Reader) ([]Event, error) {
	var out []Event
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var e Event
		if err := json.Unmarshal(line, &e); err != nil {
			return out, err
		}
		out = append(out, e)
	}
	return out, sc.Err()
}
