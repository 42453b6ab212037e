package vm

import (
	"bytes"
	"slices"
)

// Periodic-tail skipping. A hung injection spends its whole watchdog budget
// in the machine, and many hangs are exactly periodic: the machine returns to
// a state it was already in — same PC, registers, condition and link
// registers, break, input cursors and memory — and from then on repeats the
// same P instructions until the watchdog expires. The machine is
// deterministic, so once such a repeat is seen the rest of the run is known:
// every whole period that fits before the run limit can be skipped, and only
// the final partial period needs simulating. The result — registers, memory,
// output, cycle count, exception and state — is identical to a full
// simulation.
//
// Detection is Brent's cycle-finding algorithm over the full machine state.
// The detector holds one capture of the state at a time. Captures are
// scheduled through the run limit compare the dispatcher already makes (the
// watchdog's compare), the first 64 cycles after arming and then at doubling
// intervals, and each lands on a block entry. For the last quarter of each
// capture's window the block at the capture PC is swapped for a sentinel copy
// that starts with one uLoopCheck micro-op, so every entry of that block then
// compares the live state against the capture, and no other block — and no
// unarmed run — pays anything. Memory is compared cheaply: a capture clears
// the pageSnap flag of every dirty page, so markPage sees the first write to
// each page after the capture and saves the page's pre-image; only those
// pages can differ from the captured memory.
//
// Output is not part of the compared state — the program can write it but
// never read it — so the bytes a period wrote are replicated once per
// skipped period instead.
//
// Soundness rests on four facts: the machine is deterministic; the only
// observers allowed while armed (the campaign's lean load and store hooks)
// are pure functions of the PC, address and value, so they behave the same
// in every period; output is write-only; and a skip lands less than one
// period short of the run limit, never past it, and the rest runs normally,
// so the limit — watchdog or hard quota — expires at exactly the cycle a
// full simulation reaches it, in the same state. Anything
// that could break one of those (fetch, trap or breakpoint hooks,
// watchpoints, tracing) either refuses the arming or cancels the skip, and
// Reset, Restore, Load and Snapshot disarm the detector.

// loopFirstCapture is the distance in cycles from arming to the first
// capture; later intervals double.
const loopFirstCapture = 64

// loopWatchShift sets the share of each capture window in which the sentinel
// is installed: the last window>>loopWatchShift cycles before the next
// capture. Entries of the captured block outside that stretch run the real
// block and pay nothing. A period at most that long still lands a visit
// inside it, and windows double, so every period is found — a few windows
// later than with the sentinel always in place.
const loopWatchShift = 2

// loopDetector is the armed state of the periodic-tail detector. The machine
// keeps one and reuses its buffers across runs.
type loopDetector struct {
	// The captured state (valid when captured is set). active marks the
	// sentinel as installed.
	captured      bool
	active        bool
	pc            uint32
	regs          [32]uint32
	lr            uint32
	cr            [8]crField
	brk           uint32
	inPos, inBPos int
	outLen        int
	cycles        uint64

	// limit is the run limit the skip aims at (min of watchdog and quota).
	// next is the cycle of the next scheduled event: the sentinel's
	// installation while a capture is held but not active, else the next
	// capture, due at capAt. interval is the window the next capture opens.
	limit, next, capAt, interval uint64

	// prePages lists the pages written since the capture; page i's content
	// at capture time is preBuf[i*pageSize:].
	prePages []uint32
	preBuf   []byte

	// sentinel occupies blocks[idx] while active; real is the block it
	// displaced.
	sentinel block
	real     *block
	idx      uint32
}

// ArmLoopSkip arms exact periodic-tail skipping for the next Run of a ready
// machine and reports whether it did. Arming is refused — and the call does
// nothing — when the interpreter is forced or a fetch hook, trap hook,
// breakpoint hook, watchpoint or trace is armed. Hooks installed later must be
// pure functions of the PC, address and value (the load and store hooks of
// the campaign's lean arming are); Reset, Restore, Load and Snapshot disarm.
func (m *Machine) ArmLoopSkip() bool {
	m.loopSkipped = 0
	if m.state != StateReady || m.loop != nil || m.interpOnly ||
		m.trace != nil || m.fetchHook != nil || m.trapHook != nil || m.iabrHook != nil || m.watchAny {
		return false
	}
	l := &m.loopState
	l.captured, l.active = false, false
	l.prePages = l.prePages[:0]
	l.preBuf = l.preBuf[:0]
	l.capAt = m.cycles + loopFirstCapture
	l.next = l.capAt
	l.interval = 2 * loopFirstCapture
	m.loop = l
	m.recomputeRunLimit()
	return true
}

// SkippedCycles reports how many cycles the periodic-tail skip jumped over in
// the machine's last run (zero when it did not skip).
func (m *Machine) SkippedCycles() uint64 { return m.loopSkipped }

// disarmLoop drops the detector, putting the displaced block back if the
// sentinel still holds its slot (an invalidation may have dropped it since).
func (m *Machine) disarmLoop() {
	l := m.loop
	if l == nil {
		return
	}
	m.releaseSentinel()
	m.loop = nil
	m.recomputeRunLimit()
}

// releaseSentinel drops the held capture, taking its sentinel out of the
// block slot.
func (m *Machine) releaseSentinel() {
	l := m.loop
	if l.active && m.blocks[l.idx] == &l.sentinel {
		m.blocks[l.idx] = l.real
	}
	l.captured, l.active = false, false
	l.real = nil
}

// loopActivate installs the held capture's sentinel in front of the block at
// the capture PC, which from now on compares every entry with the capture.
func (m *Machine) loopActivate() {
	l := m.loop
	l.active = true
	l.next = l.capAt
	m.recomputeRunLimit()
	b := m.blocks[l.idx]
	if b == nil {
		b = m.compileBlock(l.idx)
	}
	if b.interp {
		return // a trap was planted there since; this capture cannot match
	}
	l.sentinel.ops = append(append(l.sentinel.ops[:0], uop{code: uLoopCheck, pc: l.pc}), b.ops...)
	l.sentinel.n = b.n
	l.real = b
	m.blocks[l.idx] = &l.sentinel
}

// loopEvent handles a detector event reached away from a block entry (from
// limitExpire): a pending sentinel is installed; a capture cannot be taken
// here, so the held one stays and the next is scheduled a doubled interval
// ahead.
func (m *Machine) loopEvent() {
	l := m.loop
	if l.captured && !l.active {
		m.loopActivate()
		return
	}
	l.capAt = m.cycles + l.interval
	l.next = l.capAt
	l.interval *= 2
	m.recomputeRunLimit()
}

// loopDue runs on the dispatcher's cold path with the live PC and counter
// flushed to the machine, and reports whether it took a detector event, in
// which case the dispatcher re-dispatches. A pending sentinel is installed
// at once. A capture is taken when the block at PC would cross its
// scheduled cycle: the state at this block entry becomes the new capture,
// whose sentinel goes in for the last part of its window. Otherwise (no event
// due, or no compiled block can start here) the dispatcher steps as usual,
// and limitExpire handles the event.
func (m *Machine) loopDue() bool {
	l := m.loop
	if m.runLimit >= l.limit {
		return false
	}
	if l.captured && !l.active {
		m.loopActivate()
		return true
	}
	pc := m.pc
	idx := (pc - m.textBase) / WordSize
	if pc&(WordSize-1) != 0 || idx >= uint32(len(m.blocks)) {
		return false
	}
	b := m.blocks[idx]
	if l.active && b == &l.sentinel {
		b = l.real
	}
	if b == nil {
		b = m.compileBlock(idx)
	}
	if b.interp || m.cycles+uint64(b.n) <= m.runLimit {
		return false
	}
	m.releaseSentinel()
	l.captured = true
	l.pc = pc
	l.regs = m.regs
	l.lr = m.lr
	l.cr = m.cr
	l.brk = m.brk
	l.inPos, l.inBPos = m.inPos, m.inBPos
	l.outLen = len(m.output)
	l.cycles = m.cycles
	// Re-arm first-write tracking: markPage saves a page's pre-image on its
	// next write. Pages may now differ from the previous snapshot without
	// pageSnap saying so, so a later Snapshot must copy, not share.
	for _, pi := range m.dirtyPages {
		m.pageFlags[pi] = pageBoot
	}
	m.prevSnap = nil
	l.prePages = l.prePages[:0]
	l.preBuf = l.preBuf[:0]
	l.idx = idx
	w := l.interval
	l.interval *= 2
	l.capAt = m.cycles + w
	l.next = l.capAt - w>>loopWatchShift
	m.recomputeRunLimit()
	return true
}

// loopSavePage records the pre-image of page pi before its first write since
// the capture. markPage calls it.
func (m *Machine) loopSavePage(pi uint32) {
	l := m.loop
	lo := pi << pageShift
	hi := min(lo+pageSize, uint32(len(m.mem)))
	l.prePages = append(l.prePages, pi)
	l.preBuf = append(l.preBuf, m.mem[lo:hi]...)
	if short := pageSize - int(hi-lo); short > 0 {
		// A partial last page keeps page i at preBuf[i*pageSize:].
		l.preBuf = append(l.preBuf, make([]byte, short)...)
	}
}

// loopVisit runs at every entry of the captured block (the sentinel's
// uLoopCheck micro-op) with the dispatcher's live counter; registers, memory
// and the rest of the state are live in the machine. When the state equals
// the capture, the machine has found a period P: it skips every whole period
// that fits before the run limit, disarms, and reports the new counter with
// true, and the dispatcher re-dispatches at the same PC. Otherwise it reports
// false and the block runs on.
func (m *Machine) loopVisit(cycles uint64) (uint64, bool) {
	if !m.loopMatch() {
		return cycles, false
	}
	l := m.loop
	// An observer armed after the detector could see (or change) what the
	// skip jumps over; run the tail in full instead.
	if !(m.watchAny || m.trace != nil || m.fetchHook != nil || m.trapHook != nil || m.iabrHook != nil) {
		p := cycles - l.cycles
		if k := (l.limit - cycles) / p; k > 0 {
			m.repeatOutput(l.outLen, k)
			cycles += k * p
			m.loopSkipped += k * p
		}
	}
	m.disarmLoop()
	return cycles, true
}

// loopMatch compares the live state with the capture. The PC is equal by
// construction (only the captured block's sentinel calls in), and memory can
// differ only on pages written since the capture.
func (m *Machine) loopMatch() bool {
	l := m.loop
	if m.regs != l.regs || m.lr != l.lr || m.cr != l.cr || m.brk != l.brk ||
		m.inPos != l.inPos || m.inBPos != l.inBPos {
		return false
	}
	for i, pi := range l.prePages {
		lo := pi << pageShift
		hi := min(lo+pageSize, uint32(len(m.mem)))
		off := i * pageSize
		if !bytes.Equal(m.mem[lo:hi], l.preBuf[off:off+int(hi-lo)]) {
			return false
		}
	}
	return true
}

// repeatOutput appends k more copies of the output written since byte from,
// doubling the copied run so the work is O(bytes written).
func (m *Machine) repeatOutput(from int, k uint64) {
	period := len(m.output) - from
	if period == 0 {
		return
	}
	old := len(m.output)
	end := old + period*int(k)
	m.output = slices.Grow(m.output, end-old)[:end]
	for off := old; off < end; {
		off += copy(m.output[off:end], m.output[from:off])
	}
}
