package vm

// Watchpoints are the observation side of golden-run checkpointing: the
// golden runner watches every planned trigger address of a campaign plus a
// few fixed cycle marks, and snapshots the machine the moment each one is
// first reached. They are strictly passive — a watch hook that only reads
// the machine leaves the run's outcome untouched — and, unlike the injector
// hooks, they fire before the instruction at the watched address executes
// and before its cycle is counted.

// WatchHook runs when execution first reaches a watched address (cycleMark
// false, pc is the watched address) or when the cycle counter passes a
// watched cycle mark (cycleMark true). The hook must not resume or restart
// the machine; taking a Snapshot is the intended use.
type WatchHook func(m *Machine, pc uint32, cycleMark bool)

// SetWatch installs watchpoints on a loaded machine: the hook fires at every
// execution of each watched text address and once when the cycle counter
// first reaches each mark in atCycles (which must be sorted ascending).
// Watchpoints are cleared by Load, Reset and Restore, like all other hooks.
func (m *Machine) SetWatch(addrs []uint32, atCycles []uint64, h WatchHook) {
	if len(m.watchIdx) != len(m.decoded) {
		m.watchIdx = make([]bool, len(m.decoded))
	} else {
		clear(m.watchIdx)
	}
	for _, a := range addrs {
		if a%WordSize != 0 || a < m.textBase {
			continue
		}
		if idx := (a - m.textBase) / WordSize; idx < uint32(len(m.watchIdx)) {
			m.watchIdx[idx] = true
		}
	}
	m.watchCycles = append(m.watchCycles[:0], atCycles...)
	m.watchCyclePos = 0
	m.watchHook = h
	m.watchAny = h != nil && (len(addrs) > 0 || len(atCycles) > 0)
	m.updateBlockOK()
}

// ClearWatch removes all watchpoints.
func (m *Machine) ClearWatch() { m.clearWatch() }

func (m *Machine) clearWatch() {
	m.watchAny = false
	m.watchHook = nil
	m.watchCycles = m.watchCycles[:0]
	m.watchCyclePos = 0
	if m.watchIdx != nil {
		clear(m.watchIdx)
	}
	m.updateBlockOK()
}

// checkWatch fires due watch hooks at the top of step: cycle marks first,
// then the address watch for the instruction about to execute.
func (m *Machine) checkWatch() {
	for m.watchCyclePos < len(m.watchCycles) && m.cycles >= m.watchCycles[m.watchCyclePos] {
		m.watchCyclePos++
		m.watchHook(m, m.pc, true)
	}
	pc := m.pc
	if pc&(WordSize-1) != 0 {
		return
	}
	if idx := (pc - m.textBase) / WordSize; idx < uint32(len(m.watchIdx)) && m.watchIdx[idx] {
		m.watchHook(m, pc, false)
	}
}
