package vm

import (
	"math/rand"
	"testing"
)

// Differential fuzz for the block-compiled engine: every program, however
// pathological, must behave bit-identically under the per-instruction
// interpreter and the block engine — same final registers and condition
// field, same memory (via the snapshot checksum), same output, same cycle
// count, same exception and faulting PC, same exit status. Programs are
// generated from a seeded source, so failures replay by seed.

// fuzzSetupLen/fuzzBodyLen fix the program shape so branch targets and the
// data-segment address are known before generation starts.
const (
	fuzzSetupLen = 8
	fuzzBodyLen  = 96
	fuzzTotalLen = fuzzSetupLen + fuzzBodyLen + 2 // + exit sequence
)

// genFuzzProgram builds one random program: a setup prologue that points
// r20/r21 into the data segment and seeds a few scratch registers, a body of
// weighted random instructions (arithmetic, compares, branches in both
// directions, memory traffic both aligned and occasionally not, syscalls,
// lr traffic, and raw — possibly undecodable — words), and an exit sequence
// reached on fall-through. Wild branches, wild pointers, division by zero
// and illegal words are all in scope: the contract under test is that both
// engines fault the same way, not that programs are well-behaved.
func genFuzzProgram(rng *rand.Rand) []uint32 {
	dataStart := uint32(TextBase + fuzzTotalLen*WordSize)
	text := make([]uint32, 0, fuzzTotalLen)
	emit := func(in Inst) { text = append(text, Encode(in)) }

	emit(Inst{Op: OpAddis, RD: 20, RA: RegZero, Imm: int32(int16(dataStart >> 16))})
	emit(Inst{Op: OpOri, RD: 20, RA: 20, Imm: int32(dataStart & 0xffff)})
	emit(Inst{Op: OpAddi, RD: 21, RA: 20, Imm: 256})
	emit(Inst{Op: OpAddi, RD: 4, RA: RegZero, Imm: int32(rng.Intn(64))})
	emit(Inst{Op: OpAddi, RD: 5, RA: RegZero, Imm: int32(rng.Intn(64)) - 32})
	emit(Inst{Op: OpAddi, RD: 6, RA: RegZero, Imm: int32(rng.Intn(200)) + 1})
	emit(Inst{Op: OpAddi, RD: 7, RA: RegZero, Imm: 3})
	emit(Inst{Op: OpNop})

	srcRegs := []uint8{2, 3, 4, 5, 6, 7, 8, 9, 20, 21}
	src := func() uint8 { return srcRegs[rng.Intn(len(srcRegs))] }
	dest := func() uint8 {
		// Mostly scratch registers; occasionally r0 (architectural zero,
		// elided at compile time) or the data bases themselves (turning
		// later memory traffic into wild-pointer coverage).
		switch rng.Intn(24) {
		case 0:
			return RegZero
		case 1:
			return 20 + uint8(rng.Intn(2))
		default:
			return 2 + uint8(rng.Intn(8))
		}
	}
	target := func() int { return fuzzSetupLen + rng.Intn(fuzzBodyLen) }

	for len(text) < fuzzSetupLen+fuzzBodyLen {
		i := len(text)
		switch k := rng.Intn(100); {
		case k < 22:
			ops := []Opcode{OpAdd, OpSubf, OpMullw, OpAnd, OpOr, OpXor, OpSlw, OpSrw, OpSraw, OpNeg, OpDivw, OpMod}
			emit(Inst{Op: ops[rng.Intn(len(ops))], RD: dest(), RA: src(), RB: src()})
		case k < 40:
			ops := []Opcode{OpAddi, OpAddis, OpMulli, OpAndi, OpOri, OpXori}
			emit(Inst{Op: ops[rng.Intn(len(ops))], RD: dest(), RA: src(), Imm: int32(rng.Intn(512)) - 128})
		case k < 50:
			if rng.Intn(2) == 0 {
				emit(Inst{Op: OpCmpwi, RD: uint8(rng.Intn(8)) << 2, RA: src(), Imm: int32(rng.Intn(64)) - 16})
			} else {
				emit(Inst{Op: OpCmpw, RD: uint8(rng.Intn(8)) << 2, RA: src(), RB: src()})
			}
		case k < 62:
			emit(Inst{Op: OpBc, RD: uint8(1 + rng.Intn(6)), RA: uint8(rng.Intn(8)), Imm: int32(target()-i) * WordSize})
		case k < 66:
			emit(Inst{Op: OpB, Off26: int32(target()-i) * WordSize})
		case k < 80:
			ops := []Opcode{OpLwz, OpStw, OpLbz, OpStb}
			op := ops[rng.Intn(len(ops))]
			off := int32(rng.Intn(64)) * WordSize
			if op == OpLbz || op == OpStb {
				off += int32(rng.Intn(4)) // byte accesses need no alignment
			} else if rng.Intn(16) == 0 {
				off++ // rare misaligned word access: must fault identically
			}
			emit(Inst{Op: op, RD: dest(), RA: 20 + uint8(rng.Intn(2)), Imm: off})
		case k < 86:
			ops := []Opcode{OpLwzx, OpStwx, OpLbzx, OpStbx}
			ra := uint8(20)
			if rng.Intn(4) == 0 {
				ra = src() // arbitrary base value: wild-pointer coverage
			}
			emit(Inst{Op: ops[rng.Intn(len(ops))], RD: dest(), RA: ra, RB: 4 + uint8(rng.Intn(3))})
		case k < 90:
			switch rng.Intn(3) {
			case 0:
				emit(Inst{Op: OpMflr, RD: dest()})
			case 1:
				emit(Inst{Op: OpMtlr, RD: src()})
			default:
				emit(Inst{Op: OpBl, Off26: int32(target()-i) * WordSize})
			}
		case k < 94 && len(text)+1 < fuzzSetupLen+fuzzBodyLen:
			emit(Inst{Op: OpAddi, RD: RegSys, RA: RegZero, Imm: int32(1 + rng.Intn(6))})
			emit(Inst{Op: OpSc})
		case k < 97:
			emit(Inst{Op: OpNop})
		default:
			text = append(text, rng.Uint32()) // raw word, possibly undecodable
		}
	}
	emit(Inst{Op: OpAddi, RD: RegSys, RA: RegZero, Imm: SysExit})
	emit(Inst{Op: OpSc})
	return text
}

// diffState is everything observable about a finished run. It is a
// comparable struct so two runs diverge iff the structs differ.
type diffState struct {
	state  State
	exc    Exc
	excAt  uint32
	cycles uint64
	exit   int32
	pc     uint32
	lr     uint32
	regs   [32]uint32
	cr     [8]crField
	output string
	sum    uint64
}

func captureDiff(m *Machine) diffState {
	d := diffState{
		state:  m.state,
		exc:    m.exc,
		excAt:  m.excAt,
		cycles: m.cycles,
		exit:   m.exitStatus,
		pc:     m.pc,
		lr:     m.lr,
		regs:   m.regs,
		cr:     m.cr,
		output: string(m.Output()),
	}
	if s := m.Snapshot(); s != nil {
		d.sum = s.Checksum()
	}
	return d
}

// runFuzzPair generates the program for seed, runs it once on the
// interpreter and once on the block engine (arm customizes both machines
// identically before Run), and fails on any observable divergence. It
// returns the cycle count so callers can assert the corpus is not vacuous.
func runFuzzPair(t *testing.T, seed int64, arm func(m *Machine)) uint64 {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	text := genFuzzProgram(rng)
	data := make([]byte, 512)
	for i := range data {
		data[i] = byte(i*37 + 11)
	}
	ints := make([]int32, 16)
	for i := range ints {
		ints[i] = rng.Int31n(200) - 100
	}
	bts := make([]byte, 16)
	for i := range bts {
		bts[i] = byte(rng.Intn(256))
	}
	img := Image{Text: text, Data: data, Entry: TextBase}

	run := func(interpOnly bool) diffState {
		m := New(Config{})
		if err := m.Load(img); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		m.SetInterpOnly(interpOnly)
		m.SetMaxCycles(20000)
		m.SetInput(append([]int32(nil), ints...))
		m.SetByteInput(append([]byte(nil), bts...))
		if arm != nil {
			arm(m)
		}
		if !interpOnly && !m.blockOK {
			t.Fatalf("seed %d: block engine unexpectedly disabled", seed)
		}
		if _, err := m.Run(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		return captureDiff(m)
	}
	ref, blk := run(true), run(false)
	if ref != blk {
		t.Errorf("seed %d: interpreter and block engine diverge\ninterp: %+v\nblock:  %+v", seed, ref, blk)
	}
	return ref.cycles
}

func TestBlockDiffFuzz(t *testing.T) {
	var cycles uint64
	for seed := int64(0); seed < 64; seed++ {
		cycles += runFuzzPair(t, seed, nil)
	}
	// Many random programs fault within a few hundred cycles — that is the
	// point — but the corpus as a whole must still execute real work.
	if cycles < 50000 {
		t.Fatalf("fuzz corpus only executed %d cycles; generator is broken", cycles)
	}
}

// TestBlockDiffFuzzHooks re-runs a slice of the corpus with load and store
// hooks armed. Hooks force every memory uop down its checked slow path but
// leave the block engine enabled; corruption decisions are pure functions of
// the address, so both engines see the same values.
func TestBlockDiffFuzzHooks(t *testing.T) {
	for seed := int64(0); seed < 12; seed++ {
		runFuzzPair(t, seed, func(m *Machine) {
			m.SetLoadHook(func(addr, v uint32) uint32 {
				if addr&0x40 != 0 {
					return v ^ 0x00ff00ff
				}
				return v
			})
			m.SetStoreHook(func(addr, v uint32) uint32 {
				if addr&0x20 != 0 {
					return v ^ 0x80000001
				}
				return v
			})
		})
	}
}

// TestBlockDiffFuzzPlanted re-runs a slice of the corpus with a decoded
// corruption planted into the body before Run — the campaign's
// every-execution instruction-bus fault. The planted word is random and may
// be undecodable; both engines must execute (or fault on) it identically.
func TestBlockDiffFuzzPlanted(t *testing.T) {
	for seed := int64(0); seed < 12; seed++ {
		runFuzzPair(t, seed, func(m *Machine) {
			prng := rand.New(rand.NewSource(seed ^ 0x5eed))
			idx := fuzzSetupLen + prng.Intn(fuzzBodyLen)
			if err := m.PlantDecoded(TextBase+uint32(idx)*WordSize, prng.Uint32()); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestBlockDiffFuzzMidRunPlant re-runs a slice of the corpus planting the
// corruption from a cycle-mark watch hook mid-execution, which exercises
// block invalidation while the block engine is live: the spin guard must
// notice the invalidated block and re-dispatch, landing the plant at the
// same cycle as the interpreter does.
func TestBlockDiffFuzzMidRunPlant(t *testing.T) {
	for seed := int64(0); seed < 12; seed++ {
		runFuzzPair(t, seed, func(m *Machine) {
			prng := rand.New(rand.NewSource(seed ^ 0x11ced))
			idx := fuzzSetupLen + prng.Intn(fuzzBodyLen)
			word := prng.Uint32()
			at := uint64(100 + prng.Intn(2000))
			m.SetWatch(nil, []uint64{at}, func(m *Machine, pc uint32, cycleMark bool) {
				// Error ignored: planting can only fail for an out-of-text
				// address, and idx is in the body by construction.
				m.PlantDecoded(TextBase+uint32(idx)*WordSize, word)
			})
		})
	}
}

// TestBlockDiffFuzzLoopSkip runs the corpus with the periodic-tail skip
// armed on the block side (ArmLoopSkip refuses the interpreter side, which
// stays the unarmed reference). Random programs often end in a spin, so a
// fair share of seeds skip; the test requires enough of them that it cannot
// pass vacuously. Short and race runs take a fifth of the corpus.
func TestBlockDiffFuzzLoopSkip(t *testing.T) {
	seeds := int64(2000)
	if testing.Short() || raceEnabled {
		seeds = 400
	}
	skips := 0
	for seed := int64(0); seed < seeds; seed++ {
		var block *Machine
		runFuzzPair(t, seed, func(m *Machine) {
			if m.ArmLoopSkip() {
				block = m
			}
		})
		if block == nil {
			t.Fatalf("seed %d: ArmLoopSkip refused the block-engine machine", seed)
		}
		if block.SkippedCycles() > 0 {
			skips++
		}
	}
	if min := int(seeds / 40); skips < min {
		t.Fatalf("only %d of %d seeds skipped a periodic tail (want at least %d)", skips, seeds, min)
	}
	t.Logf("%d of %d seeds skipped a periodic tail", skips, seeds)
}
