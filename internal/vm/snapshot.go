package vm

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"slices"
	"sync"
)

// Snapshot/Restore is the mechanism behind golden-run checkpointing: the
// campaign executor restores a worker machine to the state a fault-free run
// had just before the injection's first trigger arrival, instead of
// rebooting and replaying the whole prefix. A snapshot holds only the pages
// written since Load — at 1024-byte granularity — so both taking and
// restoring one cost O(dirty pages), not O(memory size). Consecutive
// snapshots of the same machine share the copies of pages that did not
// change in between (copy-on-write), which keeps a golden run's checkpoint
// chain cheap even when checkpoints are cycles apart.

// Snapshot is an immutable copy of a machine's execution state: registers,
// CR, LR, PC, cycle counter, exception/exit state, I/O streams with their
// positions, the dirty pages of memory, and whether the text segment (and
// hence the decoded-instruction cache) had been modified. It is safe to
// restore concurrently onto any number of machines loaded with the same
// image.
//
// Deliberately excluded: the watchdog budget (callers set it per run via
// SetMaxCycles), hooks, breakpoint registers, watchpoints and the trace
// ring. Restore clears all of those, exactly like Reset, so an injector
// session must be armed after Restore — never before.
type Snapshot struct {
	regs       [32]uint32
	pc, lr     uint32
	cr         [8]crField
	brk        uint32
	state      State
	exc        Exc
	excAt      uint32
	exitStatus int32
	cycles     uint64

	input   []int32
	inPos   int
	inBytes []byte
	inBPos  int
	output  []byte

	// pages holds a copy of every page whose content differs (or may
	// differ) from the pristine image, keyed by page index. Entries may be
	// shared with earlier snapshots of the same machine.
	pages     map[uint32][]byte
	textDirty bool

	// textMods/textModsOvf carry the machine's precise text-modification
	// list (see the Machine fields), so Restore can re-decode exactly the
	// entries where either side of the restore diverged from the image
	// instead of rebuilding the whole decoded cache.
	textMods    []uint32
	textModsOvf bool

	// Image geometry, to reject restoring onto an incompatible machine.
	memSize  int
	textEnd  uint32
	dataBase uint32
	textLen  int
}

// Cycles returns the value of the machine's cycle counter at snapshot time —
// with the step ordering of watchpoints, the number of completed
// instructions before the instruction the machine was about to execute.
func (s *Snapshot) Cycles() uint64 { return s.cycles }

// Pages returns the number of memory pages the snapshot carries (shared or
// owned); a cost observability hook for tests and stats.
func (s *Snapshot) Pages() int { return len(s.pages) }

// EachPage calls fn with every page copy the snapshot carries, in no
// particular order. A page shared with an earlier snapshot of the same
// machine is the same slice in both, so callers can tell shared copies
// apart by their backing array. fn must not modify the page.
func (s *Snapshot) EachPage(fn func(page []byte)) {
	for _, pg := range s.pages {
		fn(pg)
	}
}

// hdrPool recycles Checksum's header buffers: the CRC functions keep
// their input on the heap, so a fresh buffer per call would allocate.
var hdrPool = sync.Pool{New: func() any { b := make([]byte, 0, 1024); return &b }}

// castagnoli is the CRC-32C table; crc32 uses the CPU's CRC instruction
// for it where there is one.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Checksum fingerprints the snapshot's full restorable state: registers,
// control state, I/O streams, geometry and every carried page (in address
// order, so the map's iteration order cannot leak in). Restoring a snapshot
// whose current Checksum differs from the one recorded when it was taken
// would resurrect corrupted machine state, which is why the campaign
// executor verifies it before every fast-forward and degrades to straight
// execution on mismatch.
//
// The sum is CRC-32C in the high word and CRC-32 (IEEE) in the low word,
// both over one serialized header followed by the pages. Both CRCs are
// hardware-assisted, so verifying costs a small fraction of the unit it
// guards, and two independent 32-bit codes catch what either one alone
// might miss.
func (s *Snapshot) Checksum() uint64 {
	// Verify runs before every fast-forward, so the common snapshot (a few
	// pages, short I/O streams) is hashed without allocating.
	var idxBuf [32]uint32
	idx := idxBuf[:0]
	for pi := range s.pages {
		idx = append(idx, pi)
	}
	slices.Sort(idx)

	bp := hdrPool.Get().(*[]byte)
	b := (*bp)[:0]
	w32 := func(v uint32) { b = binary.LittleEndian.AppendUint32(b, v) }
	for _, r := range s.regs {
		w32(r)
	}
	w32(s.pc)
	w32(s.lr)
	for _, f := range s.cr {
		// crField's bit layout (lt=1, gt=2, eq=4) is this wire encoding.
		w32(uint32(f))
	}
	w32(s.brk)
	w32(uint32(s.state))
	w32(uint32(s.exc))
	w32(s.excAt)
	w32(uint32(s.exitStatus))
	b = binary.LittleEndian.AppendUint64(b, s.cycles)

	w32(uint32(len(s.input)))
	for _, v := range s.input {
		w32(uint32(v))
	}
	w32(uint32(s.inPos))
	w32(uint32(len(s.inBytes)))
	b = append(b, s.inBytes...)
	w32(uint32(s.inBPos))
	w32(uint32(len(s.output)))
	b = append(b, s.output...)

	if s.textDirty {
		w32(1)
	} else {
		w32(0)
	}
	if s.textModsOvf {
		w32(1)
	} else {
		w32(0)
	}
	w32(uint32(len(s.textMods)))
	for _, i := range s.textMods {
		w32(i)
	}
	w32(uint32(s.memSize))
	w32(s.textEnd)
	w32(s.dataBase)
	w32(uint32(s.textLen))
	w32(uint32(len(idx)))
	for _, pi := range idx {
		w32(pi)
	}

	hi := crc32.Update(0, castagnoli, b)
	lo := crc32.ChecksumIEEE(b)
	if cap(b) <= 64<<10 { // a rare huge header is not kept alive
		*bp = b[:0]
		hdrPool.Put(bp)
	}
	for _, pi := range idx {
		pg := s.pages[pi]
		hi = crc32.Update(hi, castagnoli, pg)
		lo = crc32.Update(lo, crc32.IEEETable, pg)
	}
	return uint64(hi)<<32 | uint64(lo)
}

// Snapshot captures the machine's current execution state. It returns nil if
// no program is loaded. Taking a snapshot does not disturb the run: it may
// be called from a watch hook mid-execution and the machine continues
// exactly as if it had not been called, except that an armed loop detector
// is disarmed (its capture reuses the page flags Snapshot relies on).
func (m *Machine) Snapshot() *Snapshot {
	if m.state == 0 {
		return nil
	}
	m.disarmLoop()
	s := &Snapshot{
		regs:        m.regs,
		pc:          m.pc,
		lr:          m.lr,
		cr:          m.cr,
		brk:         m.brk,
		state:       m.state,
		exc:         m.exc,
		excAt:       m.excAt,
		exitStatus:  m.exitStatus,
		cycles:      m.cycles,
		input:       append([]int32(nil), m.input...),
		inPos:       m.inPos,
		inBytes:     append([]byte(nil), m.inBytes...),
		inBPos:      m.inBPos,
		output:      append([]byte(nil), m.output...),
		textDirty:   m.textDirty,
		textMods:    append([]uint32(nil), m.textMods...),
		textModsOvf: m.textModsOvf,
		memSize:     len(m.mem),
		textEnd:     m.textEnd,
		dataBase:    m.dataBase,
		textLen:     len(m.img.Text),
	}
	s.pages = make(map[uint32][]byte, len(m.dirtyPages))
	for _, pi := range m.dirtyPages {
		// A page untouched since the previous snapshot shares that
		// snapshot's copy instead of being copied again.
		if m.pageFlags[pi]&pageSnap == 0 && m.prevSnap != nil {
			if pg, ok := m.prevSnap.pages[pi]; ok {
				s.pages[pi] = pg
				continue
			}
		}
		lo := pi << pageShift
		hi := lo + pageSize
		if hi > uint32(len(m.mem)) {
			hi = uint32(len(m.mem))
		}
		pg := make([]byte, hi-lo)
		copy(pg, m.mem[lo:hi])
		s.pages[pi] = pg
		m.pageFlags[pi] = pageBoot
	}
	m.prevSnap = s
	return s
}

// Restore rewinds the machine to the snapshot's state. The machine must be
// loaded with the same image the snapshot was taken from (any machine for
// the same compiled program qualifies, not just the one that produced it).
//
// Memory is restored page-wise: pages dirty on this machine but absent from
// the snapshot revert to the pristine image, then the snapshot's pages are
// copied in. Hooks, breakpoint registers, watchpoints, trace and text
// writability are cleared as by Reset, so injector sessions must re-arm on
// the restored machine. A snapshot taken mid-run (inside a watch hook)
// restores to StateReady, so Run resumes from the snapshot point; the cycle
// counter is restored too, keeping watchdog semantics identical to a full
// replay. The watchdog budget itself is not part of the snapshot — set it
// with SetMaxCycles after Restore.
func (m *Machine) Restore(s *Snapshot) error {
	if m.state == 0 {
		return ErrNotLoaded
	}
	if s == nil {
		return fmt.Errorf("vm: restore of nil snapshot")
	}
	if len(m.mem) != s.memSize || m.textEnd != s.textEnd || m.dataBase != s.dataBase || len(m.img.Text) != s.textLen {
		return fmt.Errorf("vm: snapshot is from an incompatible machine or image")
	}
	m.disarmLoop()
	m.loopSkipped = 0

	for _, pi := range m.dirtyPages {
		if _, ok := s.pages[pi]; !ok {
			m.refreshPage(pi)
			m.pageFlags[pi] = 0
		}
	}
	m.dirtyPages = m.dirtyPages[:0]
	for pi, pg := range s.pages {
		copy(m.mem[pi<<pageShift:], pg)
		// Dirty since boot, clean since "the last snapshot" (s itself), so
		// a future Snapshot of this machine can share the page with s.
		m.pageFlags[pi] = pageBoot
		m.dirtyPages = append(m.dirtyPages, pi)
	}
	m.prevSnap = s

	m.regs = s.regs
	m.pc = s.pc
	m.lr = s.lr
	m.cr = s.cr
	m.brk = s.brk
	// stackLim is a Load-time constant of the image (SysBrk moves brk but
	// never the stack guard), so the loaded machine's value already matches.
	m.state = s.state
	if s.state == StateRunning {
		m.state = StateReady
	}
	m.exc = s.exc
	m.excAt = s.excAt
	m.exitStatus = s.exitStatus
	m.cycles = s.cycles
	m.quotaHit = false
	m.input = append(m.input[:0], s.input...)
	m.inPos = s.inPos
	m.inBytes = append(m.inBytes[:0], s.inBytes...)
	m.inBPos = s.inBPos
	m.output = append(m.output[:0], s.output...)

	// The decoded cache mirrors text memory; re-sync it from the restored
	// memory wherever either side of the restore had text modifications
	// (planted entries revert, since plants never touch memory; written
	// words re-decode to their corrupted form). The union of the two
	// modification lists is exhaustive — every unlisted entry matches the
	// pristine image on both sides — so the whole-cache rebuild only runs
	// when a list overflowed. Blocks compiled over a re-decoded entry are
	// dropped either way.
	if m.textModsOvf || s.textModsOvf {
		for i := range m.decoded {
			m.setDecoded(uint32(i), m.getWordRaw(m.textBase+uint32(i)*WordSize))
		}
		m.clearBlocks()
		m.decodeRebuilds++
	} else {
		for _, i := range m.textMods {
			m.setDecoded(i, m.getWordRaw(m.textBase+i*WordSize))
			m.invalidateBlocksAt(i)
		}
		for _, i := range s.textMods {
			m.setDecoded(i, m.getWordRaw(m.textBase+i*WordSize))
			m.invalidateBlocksAt(i)
		}
	}
	// Adopt the snapshot's (conservative) view: restoring drops plants, but
	// textDirty/textMods only promise "may differ", exactly as before.
	m.textDirty = s.textDirty
	m.textMods = append(m.textMods[:0], s.textMods...)
	m.textModsOvf = s.textModsOvf

	m.iabr = [NumIABR]uint32{}
	m.iabrSet = [NumIABR]bool{}
	m.iabrAny = false
	m.iabrHook = nil
	m.fetchHook = nil
	m.loadHook = nil
	m.storeHook = nil
	m.trapHook = nil
	m.trace = nil
	m.textWritable = false
	m.clearWatch()
	return nil
}

// PlantDecoded replaces the decoded-cache entry for one text address with
// the decoding of word, leaving text memory untouched. This is the
// zero-overhead form of an every-execution instruction-bus corruption: the
// straight engine's fetch hook intercepts every cycle to substitute the word
// at one address, while a planted entry executes at full speed with
// bit-identical semantics (an undecodable word raises ExcIllegal at the
// address, exactly like a corrupted fetch). Reset and Restore rebuild the
// cache from memory, un-planting it.
func (m *Machine) PlantDecoded(addr, word uint32) error {
	if addr%WordSize != 0 || addr < m.textBase || addr >= m.textEnd {
		return fmt.Errorf("vm: plant outside text at %#x", addr)
	}
	i := (addr - m.textBase) / WordSize
	m.setDecoded(i, word)
	m.noteTextMod(i)
	m.invalidateBlocksAt(i)
	return nil
}
