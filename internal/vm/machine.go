package vm

import (
	"encoding/binary"
	"errors"
	"fmt"
	"strconv"
)

// Register conventions used by the toolchain (they mirror the PowerPC EABI
// closely enough that the paper's listings read naturally):
//
//	r0        hardwired zero (reads as 0, writes are ignored)
//	r1 (SP)   stack pointer, grows down
//	r3..r10   arguments / return value / scratch
//	r30 (FP)  frame pointer
//	r10       system-call number (by convention of OpSc)
const (
	RegZero = 0
	RegSP   = 1
	RegRet  = 3
	RegFP   = 30
	RegSys  = 10
)

// Default machine geometry.
const (
	DefaultMemSize   = 1 << 20 // 1 MiB
	DefaultMaxCycles = 8 << 20 // watchdog: ~8.4M instructions
	TextBase         = 0x1000  // load address of the text segment
	WordSize         = 4       // bytes per machine word
	NumIABR          = 2       // PPC 601: two instruction-address breakpoints
)

// Dirty-page tracking granularity. Stores are word- or byte-sized and words
// are 4-aligned, so no write ever crosses a page boundary.
const (
	pageShift = 10 // 1024-byte pages
	pageSize  = 1 << pageShift
)

// Per-page dirty flags. pageBoot marks a page modified since Load/Reset (its
// content may differ from the pristine image); pageSnap marks it modified
// since the machine's most recent Snapshot. pageSnap implies pageBoot.
const (
	pageBoot uint8 = 1 << iota
	pageSnap
)

// Exc identifies a hardware exception. Any exception terminates the run with
// StateCrashed; the paper's "program crash" failure mode.
type Exc int

// Exception causes.
const (
	ExcNone     Exc = iota
	ExcIllegal      // undecodable instruction word
	ExcAlign        // misaligned word access or misaligned PC
	ExcProt         // access outside a mapped, permitted segment
	ExcDivZero      // divw/mod with zero divisor
	ExcStackOvf     // SP pushed below the stack limit
	ExcBadSys       // undefined system-call number
	ExcTrap         // OpTrap executed with no trap handler armed
)

var excNames = map[Exc]string{
	ExcNone:     "none",
	ExcIllegal:  "illegal instruction",
	ExcAlign:    "alignment",
	ExcProt:     "memory protection",
	ExcDivZero:  "division by zero",
	ExcStackOvf: "stack overflow",
	ExcBadSys:   "bad system call",
	ExcTrap:     "unhandled trap",
}

// String returns a human-readable exception name.
func (e Exc) String() string {
	if s, ok := excNames[e]; ok {
		return s
	}
	return "exc(" + strconv.Itoa(int(e)) + ")"
}

// State is the execution state of a Machine.
type State int

// Machine states.
const (
	StateReady   State = iota + 1 // loaded, not yet run
	StateRunning                  // inside Run
	StateHalted                   // program exited via SysExit
	StateCrashed                  // hardware exception raised
	StateHung                     // watchdog expired (paper: "program hang")
)

var stateNames = map[State]string{
	StateReady:   "ready",
	StateRunning: "running",
	StateHalted:  "halted",
	StateCrashed: "crashed",
	StateHung:    "hung",
}

// String returns a human-readable state name.
func (s State) String() string {
	if n, ok := stateNames[s]; ok {
		return n
	}
	return "state(" + strconv.Itoa(int(s)) + ")"
}

// System-call numbers (placed in r10 before OpSc).
const (
	SysExit      = 1 // status in r3
	SysReadInt   = 2 // result in r3; r4=0 on success, r4=1 on end of input
	SysWriteInt  = 3 // writes decimal of r3 followed by '\n'
	SysWriteChar = 4 // writes byte r3
	SysReadChar  = 5 // result in r3 (-1 on end of input)
	SysBrk       = 6 // r3 = size to extend heap by; returns old break in r3
)

// FetchHook may rewrite an instruction word as it crosses the bus from memory
// to the processor. This is Xception's "error inserted in the data fetched"
// location for opcode fetches: memory is untouched, only the executed word
// changes. Return the (possibly modified) word.
type FetchHook func(addr uint32, word uint32) uint32

// LoadHook may rewrite a data word fetched by lwz/lwzx/lbz/lbzx.
type LoadHook func(addr uint32, value uint32) uint32

// StoreHook may rewrite a data word about to be stored by stw/stwx/stb/stbx.
type StoreHook func(addr uint32, value uint32) uint32

// IABRHook runs when instruction fetch hits an armed instruction-address
// breakpoint register, before the instruction executes.
type IABRHook func(m *Machine, addr uint32)

// TrapHook runs when OpTrap executes in intrusive trigger mode. It must
// either emulate the displaced instruction or restore it; if no hook is set,
// OpTrap raises ExcTrap.
type TrapHook func(m *Machine, addr uint32) error

// Machine is one processor plus its private memory, I/O streams and debug
// facilities. A fresh Machine per injection run models the paper's
// "target system is rebooted between injections".
type Machine struct {
	mem  []byte
	regs [32]uint32
	pc   uint32
	lr   uint32
	cr   [8]crField

	textBase uint32
	textEnd  uint32
	dataBase uint32
	brk      uint32
	stackLim uint32

	state State
	exc   Exc
	excAt uint32

	exitStatus int32
	cycles     uint64
	maxCycles  uint64

	// cycleQuota is the hard instruction quota of the worker sandbox: a
	// host-robustness backstop set (when non-zero) above the calibrated
	// watchdog budget. The watchdog expiring classifies the *target* as hung;
	// the quota expiring means the *host* mis-set or lost the watchdog, so
	// Run reports ErrCycleQuota instead of a target state. runLimit caches
	// min(maxCycles, cycleQuota) so the hot loop keeps its single compare;
	// quotaHit carries the quota verdict from the step path out to Run.
	cycleQuota uint64
	runLimit   uint64
	quotaHit   bool

	input   []int32 // integer input stream (SysReadInt)
	inPos   int
	inBytes []byte // byte input stream (SysReadChar)
	inBPos  int
	output  []byte

	iabr      [NumIABR]uint32
	iabrSet   [NumIABR]bool
	iabrAny   bool
	iabrHook  IABRHook
	fetchHook FetchHook
	loadHook  LoadHook
	storeHook StoreHook
	trapHook  TrapHook

	// trace, when non-nil, records recently executed instructions.
	trace *traceRing

	// decoded caches the decoded form of every text word so the fetch path
	// does not re-decode on each cycle; decodedOK marks valid entries. The
	// cache is refreshed by Load and by WriteWord into text. Invariant:
	// an entry with decodedOK false is the zero Inst, so its OpIllegal
	// opcode raises ExcIllegal in execute — letting the fast loop skip the
	// decodedOK load entirely.
	decoded   []Inst
	decodedOK []bool

	// textWritable permits stores into the text segment. The injector sets
	// it while planting persistent instruction-memory corruptions or trap
	// words; target programs always run with it off, so a wild store into
	// code raises ExcProt like on the Parsytec (whose text pages were
	// read-only).
	textWritable bool

	// hot caches "no per-step observer is armed": no watchpoints, no trace
	// ring, no fetch hook, no live breakpoint hook. Run uses it to pick the
	// fused fast loop over the general step; every setter that arms or
	// clears one of those observers refreshes it via updateHot. Load/store/
	// trap hooks are irrelevant — they cost nothing on the fetch path.
	hot bool

	// Block compilation (block.go/compile.go). blocks caches one compiled
	// basic block per text-word entry index (nil = not yet compiled);
	// blockOK caches block-dispatch eligibility the way hot does for the
	// fast loop — it additionally tolerates watchpoints, which the block
	// dispatcher proves absent per block; interpOnly is the -interp-only
	// A/B switch forcing the per-instruction paths, persistent across
	// Load/Reset/Restore like the watchdog budget.
	blocks     []*block
	blockOK    bool
	interpOnly bool

	// img is the image installed by Load, retained so Reset can restore
	// the machine without a reload. textDirty records that text memory (and
	// hence the decoded cache) was modified after Load — by the injector
	// planting persistent corruptions or trap words, or by PlantDecoded —
	// so Reset knows when the decoded cache must be rebuilt.
	img       Image
	textDirty bool

	// textMods lists the decoded-cache indices whose entry — or backing text
	// word — may differ from the pristine image: every PlantDecoded and every
	// WriteWord into text records its index here. It lets Reset and Restore
	// re-decode exactly the touched entries instead of rebuilding the whole
	// cache; textModsOvf set means the list overflowed (maxTextMods) and a
	// full rebuild is required. decodeRebuilds counts those full rebuilds —
	// the redundant-rebuild regression test asserts it stays zero on the
	// precise paths.
	textMods       []uint32
	textModsOvf    bool
	decodeRebuilds int

	// Dirty-page tracking: pageFlags holds pageBoot/pageSnap bits per page
	// and dirtyPages lists every page with pageBoot set, so Reset, Snapshot
	// and Restore cost O(pages actually written) instead of O(memory size).
	// prevSnap is the machine's most recent Snapshot; pages unchanged since
	// it was taken are shared with it (copy-on-write) by the next Snapshot.
	pageFlags  []uint8
	dirtyPages []uint32
	prevSnap   *Snapshot

	// Watchpoints (see watch.go): the golden runner uses them to take
	// checkpoints at the first arrival of planned trigger addresses and at
	// fixed cycle marks.
	watchIdx      []bool
	watchAny      bool
	watchCycles   []uint64
	watchCyclePos int
	watchHook     WatchHook

	// Periodic-tail skipping (see loop.go): loop is the armed detector or
	// nil, loopState its reusable storage, and loopSkipped the cycles the
	// last run skipped.
	loop        *loopDetector
	loopState   loopDetector
	loopSkipped uint64
}

// Config parameterises a new Machine. The zero value selects defaults.
type Config struct {
	MemSize   uint32 // total memory; default DefaultMemSize
	MaxCycles uint64 // watchdog budget; default DefaultMaxCycles
}

// ErrNotLoaded is returned by Run when no program has been loaded.
var ErrNotLoaded = errors.New("vm: no program loaded")

// New creates a machine with no program loaded.
func New(cfg Config) *Machine {
	if cfg.MemSize == 0 {
		cfg.MemSize = DefaultMemSize
	}
	if cfg.MaxCycles == 0 {
		cfg.MaxCycles = DefaultMaxCycles
	}
	return &Machine{
		mem:       make([]byte, cfg.MemSize),
		maxCycles: cfg.MaxCycles,
		runLimit:  cfg.MaxCycles,
	}
}

// crField is one condition-register field as set by cmpw/cmpwi: a bitmask
// with exactly one of crLT/crGT/crEQ set. The bit layout is also the
// Snapshot.Checksum wire encoding of a field, so it must not change.
type crField uint8

// crField bits.
const (
	crLT crField = 1 << iota
	crGT
	crEQ
)

func compare(a, b int32) crField {
	if a < b {
		return crLT
	}
	if a > b {
		return crGT
	}
	return crEQ
}

func (f crField) holds(c Cond) bool {
	switch c {
	case CondLT:
		return f&crLT != 0
	case CondLE:
		return f&(crLT|crEQ) != 0
	case CondEQ:
		return f&crEQ != 0
	case CondGE:
		return f&(crGT|crEQ) != 0
	case CondGT:
		return f&crGT != 0
	case CondNE:
		return f&crEQ == 0
	}
	return false
}

// condEnc packs a branch condition into the mask-test form the block engine
// evaluates branchlessly: the condition holds iff (field & enc&7 != 0) !=
// (enc&8 != 0). Encoding at block-compile time replaces holds' per-execution
// switch with one AND and one compare.
func condEnc(c Cond) uint8 {
	switch c {
	case CondLT:
		return uint8(crLT)
	case CondLE:
		return uint8(crLT | crEQ)
	case CondEQ:
		return uint8(crEQ)
	case CondGE:
		return uint8(crGT | crEQ)
	case CondGT:
		return uint8(crGT)
	case CondNE:
		return uint8(crEQ) | 8
	}
	return 0
}

// crHolds evaluates a condEnc-encoded condition against a CR field.
func crHolds(f crField, enc uint8) bool {
	return (f&crField(enc&7) != 0) != (enc&8 != 0)
}

// Image is a loadable program: machine code plus initialised data.
type Image struct {
	Text  []uint32 // machine code, loaded at TextBase
	Data  []byte   // initialised data, loaded right after text
	Entry uint32   // entry point (absolute address)
}

// Load maps the image, resets registers, and primes the stack. It leaves the
// machine in StateReady.
func (m *Machine) Load(img Image) error {
	textBytes := uint32(len(img.Text)) * WordSize
	dataStart := TextBase + textBytes
	if int(dataStart)+len(img.Data) > len(m.mem)/2 {
		return fmt.Errorf("vm: image too large: %d text bytes + %d data bytes", textBytes, len(img.Data))
	}
	m.disarmLoop()
	m.loopSkipped = 0
	if m.pageFlags == nil {
		m.pageFlags = make([]uint8, (len(m.mem)+pageSize-1)/pageSize)
	}
	for i := range m.mem {
		m.mem[i] = 0
	}
	m.textBase = TextBase
	m.textEnd = dataStart
	for i, w := range img.Text {
		m.putWordRaw(TextBase+uint32(i)*WordSize, w)
	}
	copy(m.mem[dataStart:], img.Data)
	m.dataBase = dataStart
	m.brk = dataStart + uint32(len(img.Data))
	// Align the break.
	m.brk = (m.brk + WordSize - 1) &^ (WordSize - 1)

	memTop := uint32(len(m.mem))
	m.stackLim = m.brk + (memTop-m.brk)/2 // lower half above brk is heap room
	m.regs = [32]uint32{}
	m.regs[RegSP] = memTop - 16
	m.regs[RegFP] = memTop - 16
	m.decoded = make([]Inst, len(img.Text))
	m.decodedOK = make([]bool, len(img.Text))
	for i, w := range img.Text {
		if in, err := Decode(w); err == nil {
			m.decoded[i] = in
			m.decodedOK[i] = true
		}
	}
	m.blocks = make([]*block, len(img.Text))
	m.textMods = m.textMods[:0]
	m.textModsOvf = false
	m.pc = img.Entry
	m.lr = 0
	m.cr = [8]crField{}
	m.state = StateReady
	m.exc = ExcNone
	m.cycles = 0
	m.exitStatus = 0
	m.inPos, m.inBPos = 0, 0
	m.output = m.output[:0]
	m.img = img
	m.textDirty = false
	// Memory now equals the pristine image by construction.
	clear(m.pageFlags)
	m.dirtyPages = m.dirtyPages[:0]
	m.prevSnap = nil
	m.clearWatch()
	return nil
}

// markPage flags one page dirty since boot and since the last snapshot,
// registering it in the dirty list on its first write. It runs before the
// write lands, so an armed loop detector can save the page's pre-image.
func (m *Machine) markPage(pi uint32) {
	if m.pageFlags[pi] == 0 {
		m.dirtyPages = append(m.dirtyPages, pi)
	}
	if m.loop != nil && m.loop.captured {
		m.loopSavePage(pi)
	}
	m.pageFlags[pi] = pageBoot | pageSnap
}

// refreshPage rewrites one page to its pristine post-Load content: zeros,
// overlaid with the text and data segments where they intersect the page.
// It writes memory directly and leaves the page flags to the caller.
func (m *Machine) refreshPage(pi uint32) {
	lo := pi << pageShift
	hi := lo + pageSize
	if hi > uint32(len(m.mem)) {
		hi = uint32(len(m.mem))
	}
	clear(m.mem[lo:hi])
	if lo < m.textEnd && hi > m.textBase {
		a, b := lo, hi
		if a < m.textBase {
			a = m.textBase
		}
		if b > m.textEnd {
			b = m.textEnd
		}
		for addr := a; addr < b; addr += WordSize {
			w := m.img.Text[(addr-m.textBase)/WordSize]
			m.mem[addr] = byte(w >> 24)
			m.mem[addr+1] = byte(w >> 16)
			m.mem[addr+2] = byte(w >> 8)
			m.mem[addr+3] = byte(w)
		}
	}
	dEnd := m.dataBase + uint32(len(m.img.Data))
	if lo < dEnd && hi > m.dataBase {
		a, b := lo, hi
		if a < m.dataBase {
			a = m.dataBase
		}
		if b > dEnd {
			b = dEnd
		}
		copy(m.mem[a:b], m.img.Data[a-m.dataBase:b-m.dataBase])
	}
}

// setDecoded installs the decoding of word w at decoded-cache index i,
// preserving the invariant that undecodable entries are the zero Inst.
func (m *Machine) setDecoded(i, w uint32) {
	if in, err := Decode(w); err == nil {
		m.decoded[i] = in
		m.decodedOK[i] = true
	} else {
		m.decoded[i] = Inst{}
		m.decodedOK[i] = false
	}
}

// maxTextMods caps the precise text-modification list. Campaigns plant one
// or two corruptions per run, so the cap only trips on pathological
// self-rewriting loads, which degrade to a full cache rebuild.
const maxTextMods = 32

// noteTextMod records that decoded entry i (or its backing text word) may now
// differ from the pristine image. It is the single place textDirty is set.
func (m *Machine) noteTextMod(i uint32) {
	m.textDirty = true
	if m.textModsOvf {
		return
	}
	for _, j := range m.textMods {
		if j == i {
			return
		}
	}
	if len(m.textMods) >= maxTextMods {
		m.textModsOvf = true
		m.textMods = m.textMods[:0]
		return
	}
	m.textMods = append(m.textMods, i)
}

// redecodeFromImage re-syncs the decoded cache (and the compiled blocks it
// feeds) with the pristine image after Reset restored text memory. With a
// precise modification list only the touched entries are re-decoded; an
// overflowed list forces the full rebuild.
func (m *Machine) redecodeFromImage() {
	if m.textModsOvf {
		for i, w := range m.img.Text {
			m.setDecoded(uint32(i), w)
		}
		m.clearBlocks()
		m.decodeRebuilds++
	} else {
		for _, i := range m.textMods {
			m.setDecoded(i, m.img.Text[i])
			m.invalidateBlocksAt(i)
		}
	}
	m.textMods = m.textMods[:0]
	m.textModsOvf = false
	m.textDirty = false
}

// DecodeRebuilds reports how many full decoded-cache rebuilds the machine has
// performed since New (observability for the redundant-rebuild regression
// test; Reset and Restore normally re-decode only the modified entries).
func (m *Machine) DecodeRebuilds() int { return m.decodeRebuilds }

// Reset restores a loaded machine to its post-Load state — memory image,
// registers, cycle counter, I/O positions, breakpoint registers, hooks and
// trace all return to what a fresh New+Load would produce — without
// reallocating the memory or decode arrays. It is the fast "reboot between
// injections" used by the parallel campaign executor's machine pools; a
// reset machine is behaviourally indistinguishable from a fresh one (see
// TestResetMatchesFreshMachine).
func (m *Machine) Reset() error {
	if m.state == 0 {
		return ErrNotLoaded
	}
	m.disarmLoop()
	m.loopSkipped = 0
	// Only pages actually written since Load/Reset can differ from the
	// image, so reverting those restores all of memory.
	for _, pi := range m.dirtyPages {
		m.refreshPage(pi)
		m.pageFlags[pi] = 0
	}
	m.dirtyPages = m.dirtyPages[:0]
	m.prevSnap = nil
	m.brk = m.dataBase + uint32(len(m.img.Data))
	m.brk = (m.brk + WordSize - 1) &^ (WordSize - 1)

	memTop := uint32(len(m.mem))
	m.stackLim = m.brk + (memTop-m.brk)/2
	m.regs = [32]uint32{}
	m.regs[RegSP] = memTop - 16
	m.regs[RegFP] = memTop - 16
	if m.textDirty {
		m.redecodeFromImage()
	}
	m.pc = m.img.Entry
	m.lr = 0
	m.cr = [8]crField{}
	m.state = StateReady
	m.exc = ExcNone
	m.excAt = 0
	m.cycles = 0
	m.quotaHit = false
	m.exitStatus = 0
	m.input = m.input[:0]
	m.inBytes = m.inBytes[:0]
	m.inPos, m.inBPos = 0, 0
	m.output = m.output[:0]

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

// SetMaxCycles replaces the watchdog budget (0 restores the default). The
// campaign executor calibrates a per-case budget and installs it on the
// pooled machine before each run.
func (m *Machine) SetMaxCycles(n uint64) {
	if n == 0 {
		n = DefaultMaxCycles
	}
	m.maxCycles = n
	m.recomputeRunLimit()
}

// ErrCycleQuota is returned by Run when the hard cycle quota (SetCycleQuota)
// expires. It signals a host-side failure — the watchdog budget was lost or
// mis-set — not a target outcome: the campaign executor quarantines the unit
// instead of classifying it.
var ErrCycleQuota = errors.New("vm: hard cycle quota exceeded")

// SetCycleQuota installs a hard instruction quota (0 disables it, the
// default). The quota is a robustness backstop, not a classification
// mechanism: callers set it strictly above the watchdog budget, so an honest
// run always hits the watchdog (and classifies as a hang) first. Run returns
// ErrCycleQuota if the quota ever expires.
func (m *Machine) SetCycleQuota(n uint64) {
	m.cycleQuota = n
	m.recomputeRunLimit()
}

// recomputeRunLimit caches min(maxCycles, cycleQuota) in runLimit. An armed
// loop detector keeps that as its skip target and lowers runLimit to its next
// scheduled capture, so captures ride on the same compare.
func (m *Machine) recomputeRunLimit() {
	m.runLimit = m.maxCycles
	if m.cycleQuota != 0 && m.cycleQuota < m.runLimit {
		m.runLimit = m.cycleQuota
	}
	if l := m.loop; l != nil {
		l.limit = m.runLimit
		if l.next < m.runLimit {
			m.runLimit = l.next
		}
	}
}

// limitExpire handles a reached run limit and reports whether the run ended.
// Short of the true limit a loop-detector event came due away from a block
// entry: loopEvent takes it and the run goes on. Otherwise reaching the hard
// quota marks the run as a host fault
// (quotaHit makes Run return ErrCycleQuota), and reaching only the watchdog
// budget is the paper's dead-loop timeout, state hung.
func (m *Machine) limitExpire() bool {
	if m.loop != nil && m.cycles < m.loop.limit {
		m.loopEvent()
		return false
	}
	if m.cycleQuota != 0 && m.cycles >= m.cycleQuota {
		m.quotaHit = true
	}
	m.state = StateHung
	return true
}

// SetInput installs the integer input stream consumed by SysReadInt.
func (m *Machine) SetInput(ints []int32) {
	m.input = append(m.input[:0], ints...)
	m.inPos = 0
}

// SetByteInput installs the byte input stream consumed by SysReadChar.
func (m *Machine) SetByteInput(b []byte) {
	m.inBytes = append(m.inBytes[:0], b...)
	m.inBPos = 0
}

// Output returns a copy of everything the program wrote.
func (m *Machine) Output() []byte {
	out := make([]byte, len(m.output))
	copy(out, m.output)
	return out
}

// State reports the current execution state.
func (m *Machine) State() State { return m.state }

// Exception reports the exception that crashed the machine (ExcNone if it
// did not crash) and the PC at which it was raised.
func (m *Machine) Exception() (Exc, uint32) { return m.exc, m.excAt }

// ExitStatus returns the SysExit status (meaningful once StateHalted).
func (m *Machine) ExitStatus() int32 { return m.exitStatus }

// Cycles returns the number of instructions executed so far.
func (m *Machine) Cycles() uint64 { return m.cycles }

// PC returns the current program counter.
func (m *Machine) PC() uint32 { return m.pc }

// SetPC overrides the program counter (debugger/injector use).
func (m *Machine) SetPC(pc uint32) { m.pc = pc }

// Reg returns general-purpose register n (r0 always reads zero). The read
// is branchless: regs[0] is kept zero as an invariant — Load, Reset and
// Restore all establish it and SetReg refuses to break it.
func (m *Machine) Reg(n uint8) uint32 {
	return m.regs[n&31]
}

// SetReg writes general-purpose register n (writes to r0 are ignored). The
// write is branchless: it lands unconditionally and r0 is re-zeroed, which
// restores the regs[0]==0 invariant Reg relies on.
func (m *Machine) SetReg(n uint8, v uint32) {
	m.regs[n&31] = v
	m.regs[0] = 0
}

// LR returns the link register.
func (m *Machine) LR() uint32 { return m.lr }

// TextRange returns the [base, end) byte range of the text segment.
func (m *Machine) TextRange() (base, end uint32) { return m.textBase, m.textEnd }

// SetIABR arms instruction-address breakpoint register i (0 or 1). Arming a
// register out of range returns an error: the PPC 601 has exactly two.
func (m *Machine) SetIABR(i int, addr uint32) error {
	if i < 0 || i >= NumIABR {
		return fmt.Errorf("vm: IABR index %d out of range (processor has %d)", i, NumIABR)
	}
	m.iabr[i] = addr
	m.iabrSet[i] = true
	m.iabrAny = true
	m.updateHot()
	return nil
}

// ClearIABR disarms breakpoint register i.
func (m *Machine) ClearIABR(i int) {
	if i >= 0 && i < NumIABR {
		m.iabrSet[i] = false
	}
	m.iabrAny = false
	for _, set := range m.iabrSet {
		if set {
			m.iabrAny = true
		}
	}
	m.updateHot()
}

// SetIABRHook installs the callback run on IABR hits.
func (m *Machine) SetIABRHook(h IABRHook) { m.iabrHook = h; m.updateHot() }

// SetFetchHook installs the instruction-bus corruption hook.
func (m *Machine) SetFetchHook(h FetchHook) { m.fetchHook = h; m.updateHot() }

// updateHot refreshes the fast-loop and block-dispatch eligibility caches;
// see the hot and blockOK fields. blockOK tolerates watchpoints — the block
// dispatcher proves per block that none can fire inside it and falls back to
// step otherwise — but needs everything else the fast loop needs.
func (m *Machine) updateHot() {
	m.hot = !m.watchAny && m.trace == nil && m.fetchHook == nil &&
		!(m.iabrAny && m.iabrHook != nil)
	m.blockOK = !m.interpOnly && m.blocks != nil && m.trace == nil &&
		m.fetchHook == nil && !(m.iabrAny && m.iabrHook != nil)
}

// SetInterpOnly forces the per-instruction interpreter paths, disabling
// compiled-block dispatch: the -interp-only A/B switch used to validate that
// both engines produce bit-identical runs. Unlike hooks it survives Load,
// Reset and Restore, like the watchdog budget.
func (m *Machine) SetInterpOnly(v bool) {
	m.interpOnly = v
	m.updateHot()
}

// SetLoadHook installs the data-load corruption hook.
func (m *Machine) SetLoadHook(h LoadHook) { m.loadHook = h }

// SetStoreHook installs the data-store corruption hook.
func (m *Machine) SetStoreHook(h StoreHook) { m.storeHook = h }

// SetTrapHook installs the software-breakpoint handler.
func (m *Machine) SetTrapHook(h TrapHook) { m.trapHook = h }

// SetTextWritable toggles injector write access to the text segment.
func (m *Machine) SetTextWritable(w bool) { m.textWritable = w }

// InjectException raises an exception from outside the core (injector use):
// a corrupted bus operation that would have faulted on real hardware, e.g. a
// shifted load address leaving mapped memory, must crash the run.
func (m *Machine) InjectException(e Exc) {
	m.raise(e, m.pc)
}

// ReadMem copies n bytes starting at addr with injector privileges.
func (m *Machine) ReadMem(addr uint32, n int) ([]byte, error) {
	end := addr + uint32(n)
	if end < addr || int(end) > len(m.mem) {
		return nil, fmt.Errorf("vm: read of %d bytes at %#x out of range", n, addr)
	}
	out := make([]byte, n)
	copy(out, m.mem[addr:end])
	return out, nil
}

// raise records an exception and moves the machine to StateCrashed.
func (m *Machine) raise(e Exc, at uint32) {
	m.state = StateCrashed
	m.exc = e
	m.excAt = at
}

// putWordRaw writes a big-endian word without protection checks (loader use).
func (m *Machine) putWordRaw(addr, w uint32) {
	if pi := addr >> pageShift; m.pageFlags[pi] != pageBoot|pageSnap {
		m.markPage(pi)
	}
	binary.BigEndian.PutUint32(m.mem[addr:], w)
}

func (m *Machine) getWordRaw(addr uint32) uint32 {
	return binary.BigEndian.Uint32(m.mem[addr:])
}

// ReadWord reads a word with the injector's privileges (no protection check
// beyond bounds). It is used to inspect and corrupt code or data.
func (m *Machine) ReadWord(addr uint32) (uint32, error) {
	if addr%WordSize != 0 || int(addr)+WordSize > len(m.mem) {
		return 0, fmt.Errorf("vm: read of word at %#x out of range", addr)
	}
	return m.getWordRaw(addr), nil
}

// WriteWord writes a word with the injector's privileges. Writing into text
// requires SetTextWritable(true); this keeps accidental self-modification by
// target programs impossible while letting the injector plant corruptions.
func (m *Machine) WriteWord(addr, w uint32) error {
	if addr%WordSize != 0 || int(addr)+WordSize > len(m.mem) {
		return fmt.Errorf("vm: write of word at %#x out of range", addr)
	}
	if addr >= m.textBase && addr < m.textEnd {
		if !m.textWritable {
			return fmt.Errorf("vm: write into read-only text at %#x", addr)
		}
		i := (addr - m.textBase) / WordSize
		m.setDecoded(i, w)
		m.noteTextMod(i)
		m.invalidateBlocksAt(i)
	}
	m.putWordRaw(addr, w)
	return nil
}

// loadWord performs a program-level 32-bit load with protection checks.
func (m *Machine) loadWord(addr uint32) (uint32, bool) {
	if addr%WordSize != 0 {
		m.raise(ExcAlign, m.pc)
		return 0, false
	}
	if !m.dataAccessible(addr, WordSize) {
		m.raise(ExcProt, m.pc)
		return 0, false
	}
	v := m.getWordRaw(addr)
	if m.loadHook != nil {
		v = m.loadHook(addr, v)
	}
	return v, true
}

func (m *Machine) storeWord(addr, v uint32) bool {
	if addr%WordSize != 0 {
		m.raise(ExcAlign, m.pc)
		return false
	}
	if !m.dataWritable(addr, WordSize) {
		m.raise(ExcProt, m.pc)
		return false
	}
	if m.storeHook != nil {
		v = m.storeHook(addr, v)
	}
	m.putWordRaw(addr, v)
	return true
}

func (m *Machine) loadByte(addr uint32) (uint32, bool) {
	if !m.dataAccessible(addr, 1) {
		m.raise(ExcProt, m.pc)
		return 0, false
	}
	v := uint32(m.mem[addr])
	if m.loadHook != nil {
		v = m.loadHook(addr, v)
	}
	return v & 0xff, true
}

func (m *Machine) storeByte(addr, v uint32) bool {
	if !m.dataWritable(addr, 1) {
		m.raise(ExcProt, m.pc)
		return false
	}
	if m.storeHook != nil {
		v = m.storeHook(addr, v)
	}
	if pi := addr >> pageShift; m.pageFlags[pi] != pageBoot|pageSnap {
		m.markPage(pi)
	}
	m.mem[addr] = byte(v)
	return true
}

// dataAccessible reports whether [addr, addr+n) is readable by the program:
// anywhere in text (constants live there) or above the data base.
func (m *Machine) dataAccessible(addr, n uint32) bool {
	// Both range conditions fold into one unsigned comparison: addr-base
	// underflows to a huge value for addr below the base, and the bound
	// keeps addr+n within memory (n <= 4 << base, so it cannot underflow).
	return addr-m.textBase <= uint32(len(m.mem))-n-m.textBase
}

// dataWritable reports whether [addr, addr+n) is writable by the program:
// data, heap or stack, but never text.
func (m *Machine) dataWritable(addr, n uint32) bool {
	return addr-m.dataBase <= uint32(len(m.mem))-n-m.dataBase
}

// Run executes until the program halts, crashes, hangs, or the watchdog
// expires. It returns the final state.
func (m *Machine) Run() (State, error) {
	if m.state == 0 {
		return 0, ErrNotLoaded
	}
	if m.state != StateReady {
		return m.state, fmt.Errorf("vm: machine not ready (state %s)", m.state)
	}
	m.state = StateRunning
	// Hot-loop invariants: the text geometry and the decoded cache's
	// backing array are fixed for the lifetime of a run — only Load
	// replaces them, and hooks must never re-Load a running machine.
	// Hoisting them saves their reload on every instruction (the compiler
	// cannot prove the execute call leaves them alone). In-place cache
	// updates (WriteWord, PlantDecoded from a trap hook) still land in the
	// hoisted slice's backing array.
	decoded := m.decoded
	textBase := m.textBase
	for m.state == StateRunning {
		// Compiled-block dispatch outranks both interpreter loops; it
		// returns when the run ends or when eligibility flips (a trap hook
		// arming an observer mid-run), so the loop re-checks and falls
		// through to the per-instruction paths.
		if m.blockOK {
			m.runBlocks()
			continue
		}
		// The fast loop is the general step with every absent-observer
		// check hoisted out. hot is re-read each iteration because a trap
		// hook (which execute can invoke) may arm an observer mid-run.
		if !m.hot {
			m.step()
			continue
		}
		if m.cycles >= m.runLimit && m.limitExpire() {
			break
		}
		m.cycles++
		pc := m.pc
		if pc&(WordSize-1) != 0 {
			m.raise(ExcAlign, pc)
			break
		}
		idx := (pc - textBase) / WordSize
		if idx >= uint32(len(decoded)) {
			m.raise(ExcProt, pc)
			break
		}
		// No decodedOK check: undecodable entries are kept as the zero
		// Inst, whose OpIllegal raises ExcIllegal at pc inside execute —
		// the same exception the check would produce.
		//
		// The most frequent opcodes are executed inline to spare the call
		// into execute's full switch; each case replicates its execute
		// counterpart exactly (the straight-vs-checkpointed equivalence
		// tests compare the two paths instruction stream for instruction
		// stream). The stack-overflow check runs only on writes to SP
		// here: with no observer hooks armed, SP cannot move any other
		// way — ops that can reach a hook (loads, stores, sc, trap) and
		// all rarer ops take the execute path with its unconditional
		// check.
		in := decoded[idx]
		switch in.Op {
		case OpAddi:
			m.regs[in.RD&31] = m.regs[in.RA&31] + uint32(in.Imm)
			m.regs[0] = 0
			if in.RD == RegSP && m.regs[RegSP] < m.stackLim && m.regs[RegSP] != 0 {
				m.raise(ExcStackOvf, pc)
				break
			}
			m.pc = pc + WordSize
		case OpAdd:
			m.regs[in.RD&31] = m.regs[in.RA&31] + m.regs[in.RB&31]
			m.regs[0] = 0
			if in.RD == RegSP && m.regs[RegSP] < m.stackLim && m.regs[RegSP] != 0 {
				m.raise(ExcStackOvf, pc)
				break
			}
			m.pc = pc + WordSize
		case OpCmpwi:
			m.cr[(in.RD>>2)&7] = compare(int32(m.regs[in.RA&31]), in.Imm)
			m.pc = pc + WordSize
		case OpCmpw:
			m.cr[(in.RD>>2)&7] = compare(int32(m.regs[in.RA&31]), int32(m.regs[in.RB&31]))
			m.pc = pc + WordSize
		case OpBc:
			if m.cr[in.RA&7].holds(Cond(in.RD)) {
				m.pc = pc + uint32(in.Imm)
			} else {
				m.pc = pc + WordSize
			}
		case OpB:
			m.pc = pc + uint32(in.Off26)
		case OpBl:
			m.lr = pc + WordSize
			m.pc = pc + uint32(in.Off26)
		case OpBlr:
			m.pc = m.lr
		case OpMflr:
			m.regs[in.RD&31] = m.lr
			m.regs[0] = 0
			if in.RD == RegSP && m.regs[RegSP] < m.stackLim && m.regs[RegSP] != 0 {
				m.raise(ExcStackOvf, pc)
				break
			}
			m.pc = pc + WordSize
		case OpMtlr:
			m.lr = m.regs[in.RD&31]
			m.pc = pc + WordSize
		case OpNop:
			m.pc = pc + WordSize
		default:
			m.execute(pc, in)
		}
	}
	m.disarmLoop()
	if m.quotaHit {
		m.quotaHit = false
		return m.state, fmt.Errorf("%w after %d cycles (quota %d, watchdog %d)",
			ErrCycleQuota, m.cycles, m.cycleQuota, m.maxCycles)
	}
	return m.state, nil
}

// step fetches, decodes and executes one instruction.
func (m *Machine) step() {
	// Watchpoints fire before the cycle is counted and before the watchdog,
	// so a snapshot taken in the hook records cycles == completed
	// instructions and a resumed machine executes the watched instruction
	// exactly once.
	if m.watchAny {
		m.checkWatch()
	}
	if m.cycles >= m.runLimit && m.limitExpire() {
		return
	}
	m.cycles++

	pc := m.pc
	if pc&(WordSize-1) != 0 {
		m.raise(ExcAlign, pc)
		return
	}
	// Unsigned wrap makes a single bounds check cover both ends of text.
	idx := (pc - m.textBase) / WordSize
	if idx >= uint32(len(m.decoded)) {
		m.raise(ExcProt, pc)
		return
	}

	if m.iabrAny && m.iabrHook != nil {
		for i := 0; i < NumIABR; i++ {
			if m.iabrSet[i] && m.iabr[i] == pc {
				m.iabrHook(m, pc)
			}
		}
	}

	if m.trace != nil {
		m.trace.add(TraceEntry{PC: pc, Word: m.getWordRaw(pc)})
	}

	if m.fetchHook != nil {
		word := m.getWordRaw(pc)
		if corrupted := m.fetchHook(pc, word); corrupted != word {
			if m.trace != nil {
				m.trace.add(TraceEntry{PC: pc, Word: corrupted})
			}
			in, err := Decode(corrupted)
			if err != nil {
				m.raise(ExcIllegal, pc)
				return
			}
			m.execute(pc, in)
			return
		}
	}
	if !m.decodedOK[idx] {
		m.raise(ExcIllegal, pc)
		return
	}
	m.execute(pc, m.decoded[idx])
}

// ExecuteInjected executes a single already-decoded instruction word at the
// current PC on behalf of a trap handler (intrusive trigger mode): the trap
// displaced the original instruction, and the injector supplies the word —
// possibly corrupted — to run in its place. The PC advance/branch semantics
// are identical to normal execution.
func (m *Machine) ExecuteInjected(word uint32) error {
	in, err := Decode(word)
	if err != nil {
		m.raise(ExcIllegal, m.pc)
		return nil
	}
	m.execute(m.pc, in)
	return nil
}

// execute runs one decoded instruction located at pc.
func (m *Machine) execute(pc uint32, in Inst) {
	next := pc + WordSize
	switch in.Op {
	case OpAddi:
		m.SetReg(in.RD, m.Reg(in.RA)+uint32(in.Imm))
	case OpAddis:
		m.SetReg(in.RD, m.Reg(in.RA)+uint32(in.Imm)<<16)
	case OpMulli:
		m.SetReg(in.RD, uint32(int32(m.Reg(in.RA))*in.Imm))
	case OpAndi:
		m.SetReg(in.RD, m.Reg(in.RA)&uint32(uint16(in.Imm)))
	case OpOri:
		m.SetReg(in.RD, m.Reg(in.RA)|uint32(uint16(in.Imm)))
	case OpXori:
		m.SetReg(in.RD, m.Reg(in.RA)^uint32(uint16(in.Imm)))
	case OpLwz:
		v, ok := m.loadWord(m.Reg(in.RA) + uint32(in.Imm))
		if !ok {
			return
		}
		m.SetReg(in.RD, v)
	case OpStw:
		if !m.storeWord(m.Reg(in.RA)+uint32(in.Imm), m.Reg(in.RD)) {
			return
		}
	case OpLbz:
		v, ok := m.loadByte(m.Reg(in.RA) + uint32(in.Imm))
		if !ok {
			return
		}
		m.SetReg(in.RD, v)
	case OpStb:
		if !m.storeByte(m.Reg(in.RA)+uint32(in.Imm), m.Reg(in.RD)) {
			return
		}
	case OpCmpwi:
		m.cr[(in.RD>>2)&7] = compare(int32(m.Reg(in.RA)), in.Imm)
	case OpAdd:
		m.SetReg(in.RD, m.Reg(in.RA)+m.Reg(in.RB))
	case OpSubf:
		m.SetReg(in.RD, m.Reg(in.RB)-m.Reg(in.RA))
	case OpMullw:
		m.SetReg(in.RD, uint32(int32(m.Reg(in.RA))*int32(m.Reg(in.RB))))
	case OpDivw:
		d := int32(m.Reg(in.RB))
		if d == 0 {
			m.raise(ExcDivZero, pc)
			return
		}
		m.SetReg(in.RD, uint32(int32(m.Reg(in.RA))/d))
	case OpMod:
		d := int32(m.Reg(in.RB))
		if d == 0 {
			m.raise(ExcDivZero, pc)
			return
		}
		m.SetReg(in.RD, uint32(int32(m.Reg(in.RA))%d))
	case OpAnd:
		m.SetReg(in.RD, m.Reg(in.RA)&m.Reg(in.RB))
	case OpOr:
		m.SetReg(in.RD, m.Reg(in.RA)|m.Reg(in.RB))
	case OpXor:
		m.SetReg(in.RD, m.Reg(in.RA)^m.Reg(in.RB))
	case OpSlw:
		m.SetReg(in.RD, m.Reg(in.RA)<<(m.Reg(in.RB)&31))
	case OpSrw:
		m.SetReg(in.RD, m.Reg(in.RA)>>(m.Reg(in.RB)&31))
	case OpSraw:
		m.SetReg(in.RD, uint32(int32(m.Reg(in.RA))>>(m.Reg(in.RB)&31)))
	case OpNeg:
		m.SetReg(in.RD, uint32(-int32(m.Reg(in.RA))))
	case OpCmpw:
		m.cr[(in.RD>>2)&7] = compare(int32(m.Reg(in.RA)), int32(m.Reg(in.RB)))
	case OpLwzx:
		v, ok := m.loadWord(m.Reg(in.RA) + m.Reg(in.RB))
		if !ok {
			return
		}
		m.SetReg(in.RD, v)
	case OpStwx:
		if !m.storeWord(m.Reg(in.RA)+m.Reg(in.RB), m.Reg(in.RD)) {
			return
		}
	case OpLbzx:
		v, ok := m.loadByte(m.Reg(in.RA) + m.Reg(in.RB))
		if !ok {
			return
		}
		m.SetReg(in.RD, v)
	case OpStbx:
		if !m.storeByte(m.Reg(in.RA)+m.Reg(in.RB), m.Reg(in.RD)) {
			return
		}
	case OpB:
		next = pc + uint32(in.Off26)
	case OpBl:
		m.lr = pc + WordSize
		next = pc + uint32(in.Off26)
	case OpBc:
		if m.cr[in.RA&7].holds(Cond(in.RD)) {
			next = pc + uint32(in.Imm)
		}
	case OpBlr:
		next = m.lr
	case OpMflr:
		m.SetReg(in.RD, m.lr)
	case OpMtlr:
		m.lr = m.Reg(in.RD)
	case OpSc:
		if !m.syscall() {
			return
		}
	case OpTrap:
		if m.trapHook == nil {
			m.raise(ExcTrap, pc)
			return
		}
		// The trap handler emulates the displaced instruction itself and is
		// responsible for PC semantics; if it leaves the PC at the trap, we
		// would re-trap forever, so the handler contract is to call
		// ExecuteInjected (which advances or branches).
		if err := m.trapHook(m, pc); err != nil {
			m.raise(ExcTrap, pc)
		}
		return
	case OpNop:
		// nothing
	default:
		m.raise(ExcIllegal, pc)
		return
	}
	if m.state != StateRunning && m.state != StateReady {
		return
	}
	// Stack overflow check: trip when SP dives below the heap guard. It
	// must run after every instruction, not only those with RD == SP: an
	// injector hook (CorruptRegister) can move SP from outside execute,
	// and the trap at the next instruction is part of the observable
	// failure-mode timing.
	if m.regs[RegSP] < m.stackLim && m.regs[RegSP] != 0 {
		m.raise(ExcStackOvf, pc)
		return
	}
	m.pc = next
}

// syscall dispatches OpSc. Returns false when the run should stop (exit or
// exception).
func (m *Machine) syscall() bool {
	switch m.Reg(RegSys) {
	case SysExit:
		m.exitStatus = int32(m.Reg(RegRet))
		m.state = StateHalted
		return false
	case SysReadInt:
		if m.inPos < len(m.input) {
			m.SetReg(RegRet, uint32(m.input[m.inPos]))
			m.SetReg(4, 0)
			m.inPos++
		} else {
			m.SetReg(RegRet, 0)
			m.SetReg(4, 1)
		}
	case SysWriteInt:
		m.output = strconv.AppendInt(m.output, int64(int32(m.Reg(RegRet))), 10)
		m.output = append(m.output, '\n')
	case SysWriteChar:
		m.output = append(m.output, byte(m.Reg(RegRet)))
	case SysReadChar:
		if m.inBPos < len(m.inBytes) {
			m.SetReg(RegRet, uint32(m.inBytes[m.inBPos]))
			m.inBPos++
		} else {
			m.SetReg(RegRet, ^uint32(0))
		}
	case SysBrk:
		old := m.brk
		sz := m.Reg(RegRet)
		nb := m.brk + ((sz + WordSize - 1) &^ (WordSize - 1))
		if nb < m.brk || nb > m.stackLim {
			m.raise(ExcProt, m.pc)
			return false
		}
		m.brk = nb
		m.SetReg(RegRet, old)
	default:
		m.raise(ExcBadSys, m.pc)
		return false
	}
	return true
}
