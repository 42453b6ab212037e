package vm

// Execution tracing: an optional ring buffer of the most recent
// instructions, used by the debugging tools to show how a run reached a
// crash site. Tracing is off by default and costs nothing when disabled.

// TraceEntry is one executed (or attempted) instruction.
type TraceEntry struct {
	PC   uint32
	Word uint32
}

// traceRing is a fixed-capacity ring of TraceEntries.
type traceRing struct {
	buf  []TraceEntry
	next int
	full bool
}

func (r *traceRing) add(e TraceEntry) {
	r.buf[r.next] = e
	r.next++
	if r.next == len(r.buf) {
		r.next = 0
		r.full = true
	}
}

// snapshot returns the entries oldest-first.
func (r *traceRing) snapshot() []TraceEntry {
	if !r.full {
		out := make([]TraceEntry, r.next)
		copy(out, r.buf[:r.next])
		return out
	}
	out := make([]TraceEntry, 0, len(r.buf))
	out = append(out, r.buf[r.next:]...)
	out = append(out, r.buf[:r.next]...)
	return out
}

// EnableTrace starts recording the last n executed instructions. Passing
// n <= 0 disables tracing.
func (m *Machine) EnableTrace(n int) {
	if n <= 0 {
		m.trace = nil
	} else {
		m.trace = &traceRing{buf: make([]TraceEntry, n)}
	}
	m.updateBlockOK()
}

// Trace returns the recorded instructions, oldest first. It is empty when
// tracing was never enabled.
func (m *Machine) Trace() []TraceEntry {
	if m.trace == nil {
		return nil
	}
	return m.trace.snapshot()
}
