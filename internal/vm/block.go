package vm

import "encoding/binary"

// The block engine executes compiled basic blocks instead of the
// per-instruction fetch/decode/execute loop. A block is the maximal
// straight-line instruction sequence starting at one text word, lowered once
// (see compile.go) into a flat array of micro-ops: adjacent instructions are
// fused into superinstructions (compare+branch, load+op, op+store, immediate
// chains) and every per-step check that cannot fire inside the block —
// watchpoints, the watchdog, breakpoints, alignment and text bounds — is
// hoisted to block entry. Between fault points the machine therefore runs at
// block speed; at them it falls back, one instruction at a time, to the
// interpreter's step, which is the single source of truth for observer and
// expiry ordering.
//
// Equivalence contract: a run under the block engine is bit-identical to the
// interpreter — same registers, memory, output, cycle counts, exception PCs
// and snapshot checksums. The dispatcher guarantees it by construction:
//
//   - A block is entered only when its whole instruction range is free of
//     armed watch addresses and its cycle span cannot cross the next watch
//     cycle mark or the run limit; otherwise the dispatcher delegates single
//     steps to the interpreter, which fires hooks and expires watchdogs in
//     the canonical order.
//   - Micro-ops that can fault (memory, division, syscalls) carry the exact
//     cycle cost and PC of their faulting component, so a mid-block
//     exception leaves the machine in the same state a stepped run would.
//   - Blocks whose first instruction is a trap are never executed compiled;
//     the dispatcher steps them so the trap-hook protocol stays intact.
//
// Fault-aware invalidation: compiled blocks mirror the decoded-instruction
// cache, so every mutation of that cache — WriteWord into text, PlantDecoded,
// and the Reset/Restore re-decode paths — drops the blocks covering the
// mutated word (invalidateBlocksAt) or, on a full cache rebuild, all of them
// (clearBlocks). An injector arming a corruption mid-run through a trap hook
// therefore invalidates through the same calls, with no extra protocol.

// maxBlockInsts caps the number of instructions one block may cover. The cap
// bounds the backward scan of invalidateBlocksAt and keeps the dispatcher's
// run-limit / watch-mark entry checks tight (a block never spans more than
// maxBlockInsts cycles).
const maxBlockInsts = 64

// uopCode selects the operation of one micro-op.
type uopCode uint8

const (
	uNone uopCode = iota

	// Arithmetic/logic singles; semantics mirror execute exactly.
	uAddi
	uAddis
	uMulli
	uAndi
	uOri
	uXori
	uAdd
	uSubf
	uMullw
	uDivw
	uMod
	uAnd
	uOr
	uXor
	uSlw
	uSrw
	uSraw
	uNeg
	uCmpwi
	uCmpw
	uMflr
	uMtlr

	// uGuardSP re-checks the stack guard after a preceding micro-op whose
	// destination is SP (compile-time knowledge replaces the interpreter's
	// per-instruction check).
	uGuardSP

	// Memory singles. The plain forms require the destination not be SP and
	// take an inline fast path when no bus hook is armed; the *SP forms
	// (loads into the stack pointer) always run the fully checked helper.
	uLwz
	uLwzSP
	uStw
	uLbz
	uLbzSP
	uStb
	uLwzx
	uLwzxSP
	uStwx
	uLbzx
	uLbzxSP
	uStbx

	// Terminals: exactly one ends every block and sets the next PC.
	uB
	uBl
	uBlr
	uBc
	uSc
	uEnd
	uRaiseIll

	// Superinstructions (see compile.go for the selection rationale).
	uCmpwiBc
	uCmpwBc
	uLwzAddi
	uAddisOri
	uMulliAdd
	uAddLwz
	uAddStw
	uLwzMulliAdd
	uLwzAddiCmpwBc

	// Second-slot pairs (A then B): the pair's code replaces micro-op A's
	// and B keeps its own operand slot at ops[i+1]; the executor runs both
	// bodies in one dispatch and steps over the second slot. This halves
	// dispatches — the interpreter loop's dominant cost, an indirect branch
	// that rarely predicts — for the adjacent combinations the
	// execution-weighted pair profile of the target programs ranks hottest.
	uAddisOriThenLwzMulliAdd
	uLwzThenAddisOri
	uLwzMulliAddThenLwz
	uLwzThenAddStw
	uLwzThenAdd
	uLwzAddiThenAddStw
	uAddStwThenB
	uLwzAddiThenMullw
	uMullwThenLwz
	uAddThenMulliAdd
	uAddStwThenLwzAddiCmpwBc
	uLwzThenCmpwBc

	// uLoopCheck heads the loop detector's sentinel block (loop.go): it
	// compares the machine state with the held capture before the block's
	// own micro-ops run. The compiler never emits it.
	uLoopCheck

	numUopCodes
)

// pairTab maps two adjacent micro-op codes to their second-slot pair code, or
// uNone. Indexed directly by code; compile's fusion pass walks each block's
// micro-ops once through it, greedily and left to right.
var pairTab [numUopCodes][numUopCodes]uopCode

func init() {
	p := func(a, b, fused uopCode) { pairTab[a][b] = fused }
	p(uAddisOri, uLwzMulliAdd, uAddisOriThenLwzMulliAdd)
	p(uLwz, uAddisOri, uLwzThenAddisOri)
	p(uLwzMulliAdd, uLwz, uLwzMulliAddThenLwz)
	p(uLwz, uAddStw, uLwzThenAddStw)
	p(uLwz, uAdd, uLwzThenAdd)
	p(uLwzAddi, uAddStw, uLwzAddiThenAddStw)
	p(uAddStw, uB, uAddStwThenB)
	p(uLwzAddi, uMullw, uLwzAddiThenMullw)
	p(uMullw, uLwz, uMullwThenLwz)
	p(uAdd, uMulliAdd, uAddThenMulliAdd)
	p(uAddStw, uLwzAddiCmpwBc, uAddStwThenLwzAddiCmpwBc)
	p(uLwz, uCmpwBc, uLwzThenCmpwBc)
}

// uop is one micro-op of a compiled block. Register fields are pre-masked at
// compile time; the executor masks again only to let the compiler elide
// bounds checks. pc is the address of the micro-op's first component
// instruction. cyc is the cycle cost the micro-op adds when it ends the
// block: for terminals the block's full instruction count, for faultable
// micro-ops the count up to and including the faulting component.
type uop struct {
	pc         uint32
	imm        int32
	imm2       int32
	imm3       int32
	code       uopCode
	cyc        uint8
	d, a, b    uint8
	d2, a2, b2 uint8
	d3, a3, b3 uint8
	cond       uint8
	flags      uint8
}

// uop flags.
const (
	// flagBackedge marks a conditional-branch terminal whose taken target is
	// the entry of its own block: a self-loop. The executor then re-enters
	// the micro-op array directly — after re-proving the entry conditions
	// and that the block was not invalidated — instead of going through the
	// dispatcher, which keeps hot inner loops inside one trace.
	flagBackedge = 1 << iota
)

// block is one compiled basic block: the micro-ops plus the number of text
// words (== instructions) it covers starting at its entry index. interp marks
// a block the dispatcher must not run compiled (its first instruction is a
// trap, whose hook protocol needs the interpreter).
type block struct {
	ops    []uop
	n      uint32
	interp bool
}

// blockWatchSafe reports whether block b, entered at text index idx with
// cycle count cycles, can execute without any watchpoint firing inside it:
// no armed watch address in its instruction range, and the next watch cycle
// mark not reachable within its span. Watch hooks fire before an
// instruction's cycle is counted, so a mark at cycles+n is still safe — the
// next dispatch delegates it to step.
func (m *Machine) blockWatchSafe(idx uint32, b *block, cycles uint64) bool {
	if m.watchCyclePos < len(m.watchCycles) && cycles+uint64(b.n) > m.watchCycles[m.watchCyclePos] {
		return false
	}
	if uint32(len(m.watchIdx)) < idx+b.n {
		return false
	}
	for _, w := range m.watchIdx[idx : idx+b.n] {
		if w {
			return false
		}
	}
	return true
}

// invalidateBlocksAt drops every compiled block whose instruction range
// covers text word idx. Blocks are at most maxBlockInsts long, so only the
// entries in [idx-maxBlockInsts+1, idx] can cover it.
func (m *Machine) invalidateBlocksAt(idx uint32) {
	if m.blocks == nil || idx >= uint32(len(m.blocks)) {
		return
	}
	lo := uint32(0)
	if idx >= maxBlockInsts-1 {
		lo = idx - (maxBlockInsts - 1)
	}
	for j := lo; j <= idx; j++ {
		if b := m.blocks[j]; b != nil && j+b.n > idx {
			m.blocks[j] = nil
		}
	}
}

// clearBlocks drops every compiled block; used when the whole decoded cache
// is rebuilt.
func (m *Machine) clearBlocks() {
	clear(m.blocks)
}

// CompileAllBlocks eagerly compiles a block at every text word that does not
// already have one and reports how many were compiled. Normal execution
// compiles lazily at actual entry points; this exists for benchmarks (the
// worst-case compile cost of an image) and compiler coverage tests.
func (m *Machine) CompileAllBlocks() int {
	if m.state == 0 {
		return 0
	}
	n := 0
	for idx := range m.blocks {
		if m.blocks[idx] == nil {
			m.compileBlock(uint32(idx))
			n++
		}
	}
	return n
}

// uopLoadWord is the fully checked word-load tail shared by load micro-ops:
// it raises like the interpreter (alignment, protection), runs the bus hook,
// writes the destination, and replicates the interpreter's post-instruction
// state and stack-guard checks (a hook may inject an exception or the load
// may target SP). It returns false when the block must stop, with the cycle
// cost already charged. The caller must have flushed the cycle counter to
// m.cycles beforehand.
func (m *Machine) uopLoadWord(d uint8, addr, pc uint32, cyc uint8) bool {
	m.pc = pc
	v, ok := m.loadWord(addr)
	if !ok {
		m.cycles += uint64(cyc)
		return false
	}
	m.regs[d&31] = v
	m.regs[0] = 0
	return m.uopMemTail(pc, cyc)
}

// uopLoadByte is uopLoadWord for byte loads.
func (m *Machine) uopLoadByte(d uint8, addr, pc uint32, cyc uint8) bool {
	m.pc = pc
	v, ok := m.loadByte(addr)
	if !ok {
		m.cycles += uint64(cyc)
		return false
	}
	m.regs[d&31] = v
	m.regs[0] = 0
	return m.uopMemTail(pc, cyc)
}

// uopStoreWord is the checked word-store tail.
func (m *Machine) uopStoreWord(addr, v, pc uint32, cyc uint8) bool {
	m.pc = pc
	if !m.storeWord(addr, v) {
		m.cycles += uint64(cyc)
		return false
	}
	return m.uopMemTail(pc, cyc)
}

// uopStoreByte is the checked byte-store tail.
func (m *Machine) uopStoreByte(addr, v, pc uint32, cyc uint8) bool {
	m.pc = pc
	if !m.storeByte(addr, v) {
		m.cycles += uint64(cyc)
		return false
	}
	return m.uopMemTail(pc, cyc)
}

// uopMemTail replicates the interpreter's after-instruction checks for
// micro-ops that ran a bus hook: the hook may have injected an exception,
// and the instruction may have moved SP below the stack guard.
func (m *Machine) uopMemTail(pc uint32, cyc uint8) bool {
	if m.state != StateRunning {
		m.cycles += uint64(cyc)
		return false
	}
	if m.regs[RegSP] < m.stackLim && m.regs[RegSP] != 0 {
		m.cycles += uint64(cyc)
		m.raise(ExcStackOvf, pc)
		return false
	}
	return true
}

// runBlocks is the block engine: resolve the block at PC (compiling it on
// first entry), prove that nothing can fire inside it, and execute its
// micro-ops; anything unprovable is delegated to the interpreter's step one
// instruction at a time. It returns when the run ends or an observer arming
// (via a trap hook) revokes block eligibility.
//
// PC and the cycle counter live in locals for the whole dispatch loop and
// are flushed to the machine only at slow-path boundaries — before step, a
// checked memory helper, a syscall or an exception — so straight-line block
// execution costs no memory traffic on either. On every exit the counter has
// advanced by exactly the number of instructions the interpreter would have
// counted, and PC is where the interpreter would leave it.
func (m *Machine) runBlocks() {
	textBase := m.textBase
	dataBase := m.dataBase
	blocks := m.blocks
	nText := uint32(len(blocks))
	regs := &m.regs
	mem := m.mem
	memLen := uint32(len(mem))
	// Single-comparison bounds for the hook-free fast paths, mirroring
	// dataAccessible/dataWritable.
	loadW := memLen - WordSize - textBase
	loadB := memLen - 1 - textBase
	storW := memLen - WordSize - dataBase
	storB := memLen - 1 - dataBase
	pc := m.pc
	cycles := m.cycles

dispatch:
	for m.state == StateRunning && m.blockOK {
		idx := (pc - textBase) / WordSize
		if pc&(WordSize-1) == 0 && idx < nText {
			b := blocks[idx]
			if b == nil {
				b = m.compileBlock(idx)
			}
			if !b.interp && cycles+uint64(b.n) <= m.runLimit &&
				(!m.watchAny || m.blockWatchSafe(idx, b, cycles)) {
				ops := b.ops
				for i := 0; i < len(ops); i++ {
					u := &ops[i]
					switch u.code {
					case uAddi:
						regs[u.d&31] = regs[u.a&31] + uint32(u.imm)
					case uAddis:
						regs[u.d&31] = regs[u.a&31] + uint32(u.imm)
					case uMulli:
						regs[u.d&31] = uint32(int32(regs[u.a&31]) * u.imm)
					case uAndi:
						regs[u.d&31] = regs[u.a&31] & uint32(u.imm)
					case uOri:
						regs[u.d&31] = regs[u.a&31] | uint32(u.imm)
					case uXori:
						regs[u.d&31] = regs[u.a&31] ^ uint32(u.imm)
					case uAdd:
						regs[u.d&31] = regs[u.a&31] + regs[u.b&31]
					case uSubf:
						regs[u.d&31] = regs[u.b&31] - regs[u.a&31]
					case uMullw:
						regs[u.d&31] = uint32(int32(regs[u.a&31]) * int32(regs[u.b&31]))
					case uDivw:
						d := int32(regs[u.b&31])
						if d == 0 {
							pc = u.pc
							cycles += uint64(u.cyc)
							m.raise(ExcDivZero, u.pc)
							continue dispatch
						}
						regs[u.d&31] = uint32(int32(regs[u.a&31]) / d)
						regs[0] = 0
					case uMod:
						d := int32(regs[u.b&31])
						if d == 0 {
							pc = u.pc
							cycles += uint64(u.cyc)
							m.raise(ExcDivZero, u.pc)
							continue dispatch
						}
						regs[u.d&31] = uint32(int32(regs[u.a&31]) % d)
						regs[0] = 0
					case uAnd:
						regs[u.d&31] = regs[u.a&31] & regs[u.b&31]
					case uOr:
						regs[u.d&31] = regs[u.a&31] | regs[u.b&31]
					case uXor:
						regs[u.d&31] = regs[u.a&31] ^ regs[u.b&31]
					case uSlw:
						regs[u.d&31] = regs[u.a&31] << (regs[u.b&31] & 31)
					case uSrw:
						regs[u.d&31] = regs[u.a&31] >> (regs[u.b&31] & 31)
					case uSraw:
						regs[u.d&31] = uint32(int32(regs[u.a&31]) >> (regs[u.b&31] & 31))
					case uNeg:
						regs[u.d&31] = uint32(-int32(regs[u.a&31]))
					case uCmpwi:
						m.cr[u.d&7] = compare(int32(regs[u.a&31]), u.imm)
					case uCmpw:
						m.cr[u.d&7] = compare(int32(regs[u.a&31]), int32(regs[u.b&31]))
					case uMflr:
						regs[u.d&31] = m.lr
					case uMtlr:
						m.lr = regs[u.d&31]
					case uGuardSP:
						if regs[RegSP] < m.stackLim && regs[RegSP] != 0 {
							pc = u.pc
							cycles += uint64(u.cyc)
							m.raise(ExcStackOvf, u.pc)
							continue dispatch
						}

					case uLwz:
						addr := regs[u.a&31] + uint32(u.imm)
						if m.loadHook == nil && addr&(WordSize-1) == 0 && addr-textBase <= loadW {
							regs[u.d&31] = binary.BigEndian.Uint32(mem[addr:])
						} else {
							m.cycles = cycles
							if !m.uopLoadWord(u.d, addr, u.pc, u.cyc) {
								pc, cycles = m.pc, m.cycles
								continue dispatch
							}
						}
					case uLwzSP:
						m.cycles = cycles
						if !m.uopLoadWord(u.d, regs[u.a&31]+uint32(u.imm), u.pc, u.cyc) {
							pc, cycles = m.pc, m.cycles
							continue dispatch
						}
					case uStw:
						addr := regs[u.a&31] + uint32(u.imm)
						if m.storeHook == nil && addr&(WordSize-1) == 0 && addr-dataBase <= storW {
							if pi := addr >> pageShift; m.pageFlags[pi] != pageBoot|pageSnap {
								m.markPage(pi)
							}
							binary.BigEndian.PutUint32(mem[addr:], regs[u.d&31])
						} else {
							m.cycles = cycles
							if !m.uopStoreWord(addr, regs[u.d&31], u.pc, u.cyc) {
								pc, cycles = m.pc, m.cycles
								continue dispatch
							}
						}
					case uLbz:
						addr := regs[u.a&31] + uint32(u.imm)
						if m.loadHook == nil && addr-textBase <= loadB {
							regs[u.d&31] = uint32(mem[addr])
						} else {
							m.cycles = cycles
							if !m.uopLoadByte(u.d, addr, u.pc, u.cyc) {
								pc, cycles = m.pc, m.cycles
								continue dispatch
							}
						}
					case uLbzSP:
						m.cycles = cycles
						if !m.uopLoadByte(u.d, regs[u.a&31]+uint32(u.imm), u.pc, u.cyc) {
							pc, cycles = m.pc, m.cycles
							continue dispatch
						}
					case uStb:
						addr := regs[u.a&31] + uint32(u.imm)
						if m.storeHook == nil && addr-dataBase <= storB {
							if pi := addr >> pageShift; m.pageFlags[pi] != pageBoot|pageSnap {
								m.markPage(pi)
							}
							mem[addr] = byte(regs[u.d&31])
						} else {
							m.cycles = cycles
							if !m.uopStoreByte(addr, regs[u.d&31], u.pc, u.cyc) {
								pc, cycles = m.pc, m.cycles
								continue dispatch
							}
						}
					case uLwzx:
						addr := regs[u.a&31] + regs[u.b&31]
						if m.loadHook == nil && addr&(WordSize-1) == 0 && addr-textBase <= loadW {
							regs[u.d&31] = binary.BigEndian.Uint32(mem[addr:])
						} else {
							m.cycles = cycles
							if !m.uopLoadWord(u.d, addr, u.pc, u.cyc) {
								pc, cycles = m.pc, m.cycles
								continue dispatch
							}
						}
					case uLwzxSP:
						m.cycles = cycles
						if !m.uopLoadWord(u.d, regs[u.a&31]+regs[u.b&31], u.pc, u.cyc) {
							pc, cycles = m.pc, m.cycles
							continue dispatch
						}
					case uStwx:
						addr := regs[u.a&31] + regs[u.b&31]
						if m.storeHook == nil && addr&(WordSize-1) == 0 && addr-dataBase <= storW {
							if pi := addr >> pageShift; m.pageFlags[pi] != pageBoot|pageSnap {
								m.markPage(pi)
							}
							binary.BigEndian.PutUint32(mem[addr:], regs[u.d&31])
						} else {
							m.cycles = cycles
							if !m.uopStoreWord(addr, regs[u.d&31], u.pc, u.cyc) {
								pc, cycles = m.pc, m.cycles
								continue dispatch
							}
						}
					case uLbzx:
						addr := regs[u.a&31] + regs[u.b&31]
						if m.loadHook == nil && addr-textBase <= loadB {
							regs[u.d&31] = uint32(mem[addr])
						} else {
							m.cycles = cycles
							if !m.uopLoadByte(u.d, addr, u.pc, u.cyc) {
								pc, cycles = m.pc, m.cycles
								continue dispatch
							}
						}
					case uLbzxSP:
						m.cycles = cycles
						if !m.uopLoadByte(u.d, regs[u.a&31]+regs[u.b&31], u.pc, u.cyc) {
							pc, cycles = m.pc, m.cycles
							continue dispatch
						}
					case uStbx:
						addr := regs[u.a&31] + regs[u.b&31]
						if m.storeHook == nil && addr-dataBase <= storB {
							if pi := addr >> pageShift; m.pageFlags[pi] != pageBoot|pageSnap {
								m.markPage(pi)
							}
							mem[addr] = byte(regs[u.d&31])
						} else {
							m.cycles = cycles
							if !m.uopStoreByte(addr, regs[u.d&31], u.pc, u.cyc) {
								pc, cycles = m.pc, m.cycles
								continue dispatch
							}
						}

					case uB:
						pc = uint32(u.imm)
						cycles += uint64(u.cyc)
						continue dispatch
					case uBl:
						m.lr = u.pc + WordSize
						pc = uint32(u.imm)
						cycles += uint64(u.cyc)
						continue dispatch
					case uBlr:
						pc = m.lr
						cycles += uint64(u.cyc)
						continue dispatch
					case uBc:
						cycles += uint64(u.cyc)
						if crHolds(m.cr[u.a&7], u.cond) {
							if u.flags&flagBackedge != 0 && m.blockOK && blocks[idx] == b &&
								cycles+uint64(b.n) <= m.runLimit &&
								(!m.watchAny || m.blockWatchSafe(idx, b, cycles)) {
								i = -1
								continue
							}
							pc = uint32(u.imm)
						} else {
							pc = uint32(u.imm2)
						}
						continue dispatch
					case uSc:
						// The syscall raises and halts at the sc's own PC; only
						// a successful call advances past it.
						m.pc = u.pc
						m.cycles = cycles + uint64(u.cyc)
						if m.syscall() {
							m.pc = u.pc + WordSize
						}
						pc, cycles = m.pc, m.cycles
						continue dispatch
					case uEnd:
						pc = u.pc
						cycles += uint64(u.cyc)
						continue dispatch
					case uRaiseIll:
						pc = u.pc
						cycles += uint64(u.cyc)
						m.raise(ExcIllegal, u.pc)
						continue dispatch

					case uCmpwiBc:
						m.cr[u.d&7] = compare(int32(regs[u.a&31]), u.imm)
						cycles += uint64(u.cyc)
						if crHolds(m.cr[u.a2&7], u.cond) {
							if u.flags&flagBackedge != 0 && m.blockOK && blocks[idx] == b &&
								cycles+uint64(b.n) <= m.runLimit &&
								(!m.watchAny || m.blockWatchSafe(idx, b, cycles)) {
								i = -1
								continue
							}
							pc = uint32(u.imm2)
						} else {
							pc = u.pc + 2*WordSize
						}
						continue dispatch
					case uCmpwBc:
						m.cr[u.d&7] = compare(int32(regs[u.a&31]), int32(regs[u.b&31]))
						cycles += uint64(u.cyc)
						if crHolds(m.cr[u.a2&7], u.cond) {
							if u.flags&flagBackedge != 0 && m.blockOK && blocks[idx] == b &&
								cycles+uint64(b.n) <= m.runLimit &&
								(!m.watchAny || m.blockWatchSafe(idx, b, cycles)) {
								i = -1
								continue
							}
							pc = uint32(u.imm2)
						} else {
							pc = u.pc + 2*WordSize
						}
						continue dispatch
					case uLwzAddi:
						addr := regs[u.a&31] + uint32(u.imm)
						if m.loadHook == nil && addr&(WordSize-1) == 0 && addr-textBase <= loadW {
							regs[u.d&31] = binary.BigEndian.Uint32(mem[addr:])
						} else {
							m.cycles = cycles
							if !m.uopLoadWord(u.d, addr, u.pc, u.cyc) {
								pc, cycles = m.pc, m.cycles
								continue dispatch
							}
						}
						regs[u.d2&31] = regs[u.a2&31] + uint32(u.imm2)
					case uAddisOri:
						regs[u.d&31] = regs[u.a&31] + uint32(u.imm)
						regs[u.d2&31] = regs[u.a2&31] | uint32(u.imm2)
					case uMulliAdd:
						regs[u.d&31] = uint32(int32(regs[u.a&31]) * u.imm)
						regs[u.d2&31] = regs[u.a2&31] + regs[u.b2&31]
					case uAddLwz:
						regs[u.d&31] = regs[u.a&31] + regs[u.b&31]
						addr := regs[u.a2&31] + uint32(u.imm2)
						if m.loadHook == nil && addr&(WordSize-1) == 0 && addr-textBase <= loadW {
							regs[u.d2&31] = binary.BigEndian.Uint32(mem[addr:])
						} else {
							m.cycles = cycles
							if !m.uopLoadWord(u.d2, addr, u.pc+WordSize, u.cyc) {
								pc, cycles = m.pc, m.cycles
								continue dispatch
							}
						}
					case uAddStw:
						regs[u.d&31] = regs[u.a&31] + regs[u.b&31]
						addr := regs[u.a2&31] + uint32(u.imm2)
						if m.storeHook == nil && addr&(WordSize-1) == 0 && addr-dataBase <= storW {
							if pi := addr >> pageShift; m.pageFlags[pi] != pageBoot|pageSnap {
								m.markPage(pi)
							}
							binary.BigEndian.PutUint32(mem[addr:], regs[u.d2&31])
						} else {
							m.cycles = cycles
							if !m.uopStoreWord(addr, regs[u.d2&31], u.pc+WordSize, u.cyc) {
								pc, cycles = m.pc, m.cycles
								continue dispatch
							}
						}
					case uLwzMulliAdd:
						addr := regs[u.a&31] + uint32(u.imm)
						if m.loadHook == nil && addr&(WordSize-1) == 0 && addr-textBase <= loadW {
							regs[u.d&31] = binary.BigEndian.Uint32(mem[addr:])
						} else {
							m.cycles = cycles
							if !m.uopLoadWord(u.d, addr, u.pc, u.cyc) {
								pc, cycles = m.pc, m.cycles
								continue dispatch
							}
						}
						regs[u.d2&31] = uint32(int32(regs[u.a2&31]) * u.imm2)
						regs[u.d3&31] = regs[u.a3&31] + regs[u.b3&31]
					case uLwzAddiCmpwBc:
						addr := regs[u.a&31] + uint32(u.imm)
						if m.loadHook == nil && addr&(WordSize-1) == 0 && addr-textBase <= loadW {
							regs[u.d&31] = binary.BigEndian.Uint32(mem[addr:])
						} else {
							m.cycles = cycles
							if !m.uopLoadWord(u.d, addr, u.pc, u.cyc-3) {
								pc, cycles = m.pc, m.cycles
								continue dispatch
							}
						}
						regs[u.d2&31] = regs[u.a2&31] + uint32(u.imm2)
						m.cr[u.d3&7] = compare(int32(regs[u.a3&31]), int32(regs[u.b3&31]))
						cycles += uint64(u.cyc)
						if crHolds(m.cr[u.b&7], u.cond) {
							if u.flags&flagBackedge != 0 && m.blockOK && blocks[idx] == b &&
								cycles+uint64(b.n) <= m.runLimit &&
								(!m.watchAny || m.blockWatchSafe(idx, b, cycles)) {
								i = -1
								continue
							}
							pc = uint32(u.imm3)
						} else {
							pc = u.pc + 4*WordSize
						}
						continue dispatch

					// Second-slot pairs: u is the first component, v the
					// second (kept in the next slot with its own PC and
					// cycle fields, so each component faults exactly as its
					// unfused form would). Pairs whose second component is
					// not a terminal step over the slot with i++.
					case uAddisOriThenLwzMulliAdd:
						v := &ops[i+1]
						regs[u.d&31] = regs[u.a&31] + uint32(u.imm)
						regs[u.d2&31] = regs[u.a2&31] | uint32(u.imm2)
						addr := regs[v.a&31] + uint32(v.imm)
						if m.loadHook == nil && addr&(WordSize-1) == 0 && addr-textBase <= loadW {
							regs[v.d&31] = binary.BigEndian.Uint32(mem[addr:])
						} else {
							m.cycles = cycles
							if !m.uopLoadWord(v.d, addr, v.pc, v.cyc) {
								pc, cycles = m.pc, m.cycles
								continue dispatch
							}
						}
						regs[v.d2&31] = uint32(int32(regs[v.a2&31]) * v.imm2)
						regs[v.d3&31] = regs[v.a3&31] + regs[v.b3&31]
						i++
					case uLwzThenAddisOri:
						v := &ops[i+1]
						addr := regs[u.a&31] + uint32(u.imm)
						if m.loadHook == nil && addr&(WordSize-1) == 0 && addr-textBase <= loadW {
							regs[u.d&31] = binary.BigEndian.Uint32(mem[addr:])
						} else {
							m.cycles = cycles
							if !m.uopLoadWord(u.d, addr, u.pc, u.cyc) {
								pc, cycles = m.pc, m.cycles
								continue dispatch
							}
						}
						regs[v.d&31] = regs[v.a&31] + uint32(v.imm)
						regs[v.d2&31] = regs[v.a2&31] | uint32(v.imm2)
						i++
					case uLwzMulliAddThenLwz:
						v := &ops[i+1]
						addr := regs[u.a&31] + uint32(u.imm)
						if m.loadHook == nil && addr&(WordSize-1) == 0 && addr-textBase <= loadW {
							regs[u.d&31] = binary.BigEndian.Uint32(mem[addr:])
						} else {
							m.cycles = cycles
							if !m.uopLoadWord(u.d, addr, u.pc, u.cyc) {
								pc, cycles = m.pc, m.cycles
								continue dispatch
							}
						}
						regs[u.d2&31] = uint32(int32(regs[u.a2&31]) * u.imm2)
						regs[u.d3&31] = regs[u.a3&31] + regs[u.b3&31]
						addr2 := regs[v.a&31] + uint32(v.imm)
						if m.loadHook == nil && addr2&(WordSize-1) == 0 && addr2-textBase <= loadW {
							regs[v.d&31] = binary.BigEndian.Uint32(mem[addr2:])
						} else {
							m.cycles = cycles
							if !m.uopLoadWord(v.d, addr2, v.pc, v.cyc) {
								pc, cycles = m.pc, m.cycles
								continue dispatch
							}
						}
						i++
					case uLwzThenAddStw:
						v := &ops[i+1]
						addr := regs[u.a&31] + uint32(u.imm)
						if m.loadHook == nil && addr&(WordSize-1) == 0 && addr-textBase <= loadW {
							regs[u.d&31] = binary.BigEndian.Uint32(mem[addr:])
						} else {
							m.cycles = cycles
							if !m.uopLoadWord(u.d, addr, u.pc, u.cyc) {
								pc, cycles = m.pc, m.cycles
								continue dispatch
							}
						}
						regs[v.d&31] = regs[v.a&31] + regs[v.b&31]
						addr2 := regs[v.a2&31] + uint32(v.imm2)
						if m.storeHook == nil && addr2&(WordSize-1) == 0 && addr2-dataBase <= storW {
							if pi := addr2 >> pageShift; m.pageFlags[pi] != pageBoot|pageSnap {
								m.markPage(pi)
							}
							binary.BigEndian.PutUint32(mem[addr2:], regs[v.d2&31])
						} else {
							m.cycles = cycles
							if !m.uopStoreWord(addr2, regs[v.d2&31], v.pc+WordSize, v.cyc) {
								pc, cycles = m.pc, m.cycles
								continue dispatch
							}
						}
						i++
					case uLwzThenAdd:
						v := &ops[i+1]
						addr := regs[u.a&31] + uint32(u.imm)
						if m.loadHook == nil && addr&(WordSize-1) == 0 && addr-textBase <= loadW {
							regs[u.d&31] = binary.BigEndian.Uint32(mem[addr:])
						} else {
							m.cycles = cycles
							if !m.uopLoadWord(u.d, addr, u.pc, u.cyc) {
								pc, cycles = m.pc, m.cycles
								continue dispatch
							}
						}
						regs[v.d&31] = regs[v.a&31] + regs[v.b&31]
						i++
					case uLwzAddiThenAddStw:
						v := &ops[i+1]
						addr := regs[u.a&31] + uint32(u.imm)
						if m.loadHook == nil && addr&(WordSize-1) == 0 && addr-textBase <= loadW {
							regs[u.d&31] = binary.BigEndian.Uint32(mem[addr:])
						} else {
							m.cycles = cycles
							if !m.uopLoadWord(u.d, addr, u.pc, u.cyc) {
								pc, cycles = m.pc, m.cycles
								continue dispatch
							}
						}
						regs[u.d2&31] = regs[u.a2&31] + uint32(u.imm2)
						regs[v.d&31] = regs[v.a&31] + regs[v.b&31]
						addr2 := regs[v.a2&31] + uint32(v.imm2)
						if m.storeHook == nil && addr2&(WordSize-1) == 0 && addr2-dataBase <= storW {
							if pi := addr2 >> pageShift; m.pageFlags[pi] != pageBoot|pageSnap {
								m.markPage(pi)
							}
							binary.BigEndian.PutUint32(mem[addr2:], regs[v.d2&31])
						} else {
							m.cycles = cycles
							if !m.uopStoreWord(addr2, regs[v.d2&31], v.pc+WordSize, v.cyc) {
								pc, cycles = m.pc, m.cycles
								continue dispatch
							}
						}
						i++
					case uAddStwThenB:
						v := &ops[i+1]
						regs[u.d&31] = regs[u.a&31] + regs[u.b&31]
						addr := regs[u.a2&31] + uint32(u.imm2)
						if m.storeHook == nil && addr&(WordSize-1) == 0 && addr-dataBase <= storW {
							if pi := addr >> pageShift; m.pageFlags[pi] != pageBoot|pageSnap {
								m.markPage(pi)
							}
							binary.BigEndian.PutUint32(mem[addr:], regs[u.d2&31])
						} else {
							m.cycles = cycles
							if !m.uopStoreWord(addr, regs[u.d2&31], u.pc+WordSize, u.cyc) {
								pc, cycles = m.pc, m.cycles
								continue dispatch
							}
						}
						pc = uint32(v.imm)
						cycles += uint64(v.cyc)
						continue dispatch
					case uLwzAddiThenMullw:
						v := &ops[i+1]
						addr := regs[u.a&31] + uint32(u.imm)
						if m.loadHook == nil && addr&(WordSize-1) == 0 && addr-textBase <= loadW {
							regs[u.d&31] = binary.BigEndian.Uint32(mem[addr:])
						} else {
							m.cycles = cycles
							if !m.uopLoadWord(u.d, addr, u.pc, u.cyc) {
								pc, cycles = m.pc, m.cycles
								continue dispatch
							}
						}
						regs[u.d2&31] = regs[u.a2&31] + uint32(u.imm2)
						regs[v.d&31] = uint32(int32(regs[v.a&31]) * int32(regs[v.b&31]))
						i++
					case uMullwThenLwz:
						v := &ops[i+1]
						regs[u.d&31] = uint32(int32(regs[u.a&31]) * int32(regs[u.b&31]))
						addr := regs[v.a&31] + uint32(v.imm)
						if m.loadHook == nil && addr&(WordSize-1) == 0 && addr-textBase <= loadW {
							regs[v.d&31] = binary.BigEndian.Uint32(mem[addr:])
						} else {
							m.cycles = cycles
							if !m.uopLoadWord(v.d, addr, v.pc, v.cyc) {
								pc, cycles = m.pc, m.cycles
								continue dispatch
							}
						}
						i++
					case uAddThenMulliAdd:
						v := &ops[i+1]
						regs[u.d&31] = regs[u.a&31] + regs[u.b&31]
						regs[v.d&31] = uint32(int32(regs[v.a&31]) * v.imm)
						regs[v.d2&31] = regs[v.a2&31] + regs[v.b2&31]
						i++
					case uAddStwThenLwzAddiCmpwBc:
						v := &ops[i+1]
						regs[u.d&31] = regs[u.a&31] + regs[u.b&31]
						addr := regs[u.a2&31] + uint32(u.imm2)
						if m.storeHook == nil && addr&(WordSize-1) == 0 && addr-dataBase <= storW {
							if pi := addr >> pageShift; m.pageFlags[pi] != pageBoot|pageSnap {
								m.markPage(pi)
							}
							binary.BigEndian.PutUint32(mem[addr:], regs[u.d2&31])
						} else {
							m.cycles = cycles
							if !m.uopStoreWord(addr, regs[u.d2&31], u.pc+WordSize, u.cyc) {
								pc, cycles = m.pc, m.cycles
								continue dispatch
							}
						}
						addr2 := regs[v.a&31] + uint32(v.imm)
						if m.loadHook == nil && addr2&(WordSize-1) == 0 && addr2-textBase <= loadW {
							regs[v.d&31] = binary.BigEndian.Uint32(mem[addr2:])
						} else {
							m.cycles = cycles
							if !m.uopLoadWord(v.d, addr2, v.pc, v.cyc-3) {
								pc, cycles = m.pc, m.cycles
								continue dispatch
							}
						}
						regs[v.d2&31] = regs[v.a2&31] + uint32(v.imm2)
						m.cr[v.d3&7] = compare(int32(regs[v.a3&31]), int32(regs[v.b3&31]))
						cycles += uint64(v.cyc)
						if crHolds(m.cr[v.b&7], v.cond) {
							if v.flags&flagBackedge != 0 && m.blockOK && blocks[idx] == b &&
								cycles+uint64(b.n) <= m.runLimit &&
								(!m.watchAny || m.blockWatchSafe(idx, b, cycles)) {
								i = -1
								continue
							}
							pc = uint32(v.imm3)
						} else {
							pc = v.pc + 4*WordSize
						}
						continue dispatch
					case uLwzThenCmpwBc:
						v := &ops[i+1]
						addr := regs[u.a&31] + uint32(u.imm)
						if m.loadHook == nil && addr&(WordSize-1) == 0 && addr-textBase <= loadW {
							regs[u.d&31] = binary.BigEndian.Uint32(mem[addr:])
						} else {
							m.cycles = cycles
							if !m.uopLoadWord(u.d, addr, u.pc, u.cyc) {
								pc, cycles = m.pc, m.cycles
								continue dispatch
							}
						}
						m.cr[v.d&7] = compare(int32(regs[v.a&31]), int32(regs[v.b&31]))
						cycles += uint64(v.cyc)
						if crHolds(m.cr[v.a2&7], v.cond) {
							if v.flags&flagBackedge != 0 && m.blockOK && blocks[idx] == b &&
								cycles+uint64(b.n) <= m.runLimit &&
								(!m.watchAny || m.blockWatchSafe(idx, b, cycles)) {
								i = -1
								continue
							}
							pc = uint32(v.imm2)
						} else {
							pc = v.pc + 2*WordSize
						}
						continue dispatch

					case uLoopCheck:
						if c, skip := m.loopVisit(cycles); skip {
							cycles = c
							continue dispatch
						}
					}
				}
				// Unreachable: every block ends in a terminal micro-op. The
				// fallthrough lands on the interpreter delegation below, the
				// conservative path.
			}
		}
		// Trap block, misaligned/out-of-text PC, approaching run limit, or a
		// watchpoint inside the block span: the interpreter's step handles
		// one instruction with the canonical check ordering, then dispatch
		// resumes. An approaching loop-detector capture is taken here, at
		// the block entry, instead.
		m.pc, m.cycles = pc, cycles
		if m.loop != nil && m.loopDue() {
			continue
		}
		m.step()
		pc, cycles = m.pc, m.cycles
	}
	m.pc, m.cycles = pc, cycles
}
