package vm

import (
	"strings"
	"testing"
)

// These tests pin the periodic-tail skip (loop.go) to the interpreter: each
// program runs once under -interp-only with no detector (the reference) and
// once on the block engine with the detector armed, and the two runs must
// agree on state, exception, cycles, registers, output and the final
// snapshot checksum.

// loopRun is everything a loop-skip case compares, plus what the detector
// did.
type loopRun struct {
	state   State
	err     string
	exc     Exc
	excAt   uint32
	cycles  uint64
	regs    [32]uint32
	output  string
	sum     uint64
	skipped uint64
}

// loopCase is one program with its run configuration.
type loopCase struct {
	text      []Inst
	data      []byte
	maxCycles uint64
	quota     uint64
	ints      []int32
	bytes     []byte
}

func (c loopCase) image() Image {
	img := buildImage(c.text)
	img.Data = c.data
	return img
}

// dataBaseOf is the load address of the data segment for a text of n words.
func dataBaseOf(n int) uint32 { return TextBase + uint32(n)*WordSize }

// runLoopCase runs c on a fresh machine. arm selects the block engine with
// the detector armed (which must accept); otherwise the interpreter runs
// unarmed.
func runLoopCase(t *testing.T, c loopCase, arm bool) loopRun {
	t.Helper()
	m := New(Config{MaxCycles: c.maxCycles})
	m.SetCycleQuota(c.quota)
	if err := m.Load(c.image()); err != nil {
		t.Fatal(err)
	}
	m.SetInterpOnly(!arm)
	m.SetInput(c.ints)
	m.SetByteInput(c.bytes)
	if arm && !m.ArmLoopSkip() {
		t.Fatal("ArmLoopSkip refused on a hook-free block-engine machine")
	}
	st, err := m.Run()
	return loopResult(m, st, err)
}

// loopResult collects a finished run's outcome.
func loopResult(m *Machine, st State, err error) loopRun {
	r := loopRun{
		state:   st,
		cycles:  m.Cycles(),
		regs:    m.regs,
		output:  string(m.Output()),
		skipped: m.SkippedCycles(),
	}
	if err != nil {
		r.err = err.Error()
	}
	r.exc, r.excAt = m.Exception()
	r.sum = m.Snapshot().Checksum()
	return r
}

// checkLoopCase runs c both ways, requires identical outcomes, and returns
// the armed run's skipped cycles.
func checkLoopCase(t *testing.T, c loopCase) uint64 {
	t.Helper()
	ref := runLoopCase(t, c, false)
	got := runLoopCase(t, c, true)
	if ref.skipped != 0 {
		t.Fatalf("unarmed reference skipped %d cycles", ref.skipped)
	}
	skipped := got.skipped
	got.skipped = 0
	if got != ref {
		t.Fatalf("armed block run differs from the interpreter:\narmed:  %+v\ninterp: %+v", got, ref)
	}
	return skipped
}

func TestLoopSkipSpin(t *testing.T) {
	c := loopCase{text: []Inst{{Op: OpB, Off26: 0}}, maxCycles: 100003}
	if sk := checkLoopCase(t, c); sk < 90000 {
		t.Fatalf("b . spin skipped only %d of 100003 cycles", sk)
	}
}

// TestLoopSkipCallStore: a loop that calls a function which pushes a frame,
// saves lr and stores the same values into data and stack memory on every
// iteration. Registers, lr and memory all repeat.
func TestLoopSkipCallStore(t *testing.T) {
	const n = 15
	db := dataBaseOf(n)
	text := []Inst{
		{Op: OpAddis, RD: 20, RA: RegZero, Imm: int32(db >> 16)},
		{Op: OpOri, RD: 20, RA: 20, Imm: int32(db & 0xffff)},
		{Op: OpBl, Off26: 2 * WordSize}, // loop: call func
		{Op: OpB, Off26: -WordSize},     // back to the call
		// func:
		{Op: OpAddi, RD: RegSP, RA: RegSP, Imm: -16},
		{Op: OpMflr, RD: 5},
		{Op: OpStw, RD: 5, RA: RegSP, Imm: 0},
		{Op: OpAddi, RD: 6, RA: RegZero, Imm: 42},
		{Op: OpStw, RD: 6, RA: 20, Imm: 0},
		{Op: OpStw, RD: 6, RA: RegSP, Imm: 4},
		{Op: OpStb, RD: 6, RA: 20, Imm: 9},
		{Op: OpLwz, RD: 5, RA: RegSP, Imm: 0},
		{Op: OpMtlr, RD: 5},
		{Op: OpAddi, RD: RegSP, RA: RegSP, Imm: 16},
		{Op: OpBlr},
	}
	if len(text) != n {
		t.Fatalf("text has %d words, want %d", len(text), n)
	}
	c := loopCase{text: text, data: make([]byte, 64), maxCycles: 250000}
	if sk := checkLoopCase(t, c); sk < 200000 {
		t.Fatalf("call/store loop skipped only %d cycles", sk)
	}
}

// TestLoopSkipPrintingLoop: every period writes output, which the skip must
// replicate once per skipped period.
func TestLoopSkipPrintingLoop(t *testing.T) {
	text := []Inst{
		{Op: OpAddi, RD: 3, RA: RegZero, Imm: -17},
		{Op: OpAddi, RD: RegSys, RA: RegZero, Imm: SysWriteInt},
		{Op: OpSc},
		{Op: OpAddi, RD: 3, RA: RegZero, Imm: 'A'},
		{Op: OpAddi, RD: RegSys, RA: RegZero, Imm: SysWriteChar},
		{Op: OpSc},
		{Op: OpB, Off26: -6 * WordSize},
	}
	c := loopCase{text: text, maxCycles: 70001}
	if sk := checkLoopCase(t, c); sk < 60000 {
		t.Fatalf("printing loop skipped only %d cycles", sk)
	}
}

// TestLoopSkipCounterLoops: loops that never revisit a state must run in
// full — a register counter, a counter kept in memory whose registers repeat
// at the loop head (so only the page compare can tell iterations apart), and
// one kept in the link register.
func TestLoopSkipCounterLoops(t *testing.T) {
	reg := loopCase{
		text:      []Inst{{Op: OpAddi, RD: 4, RA: 4, Imm: 1}, {Op: OpB, Off26: -WordSize}},
		maxCycles: 50000,
	}
	if sk := checkLoopCase(t, reg); sk != 0 {
		t.Fatalf("register counter loop skipped %d cycles", sk)
	}
	const n = 7
	db := dataBaseOf(n)
	mem := loopCase{
		text: []Inst{
			{Op: OpAddis, RD: 20, RA: RegZero, Imm: int32(db >> 16)},
			{Op: OpOri, RD: 20, RA: 20, Imm: int32(db & 0xffff)},
			{Op: OpLwz, RD: 5, RA: 20, Imm: 0}, // loop head
			{Op: OpAddi, RD: 5, RA: 5, Imm: 1},
			{Op: OpStw, RD: 5, RA: 20, Imm: 0},
			{Op: OpAddi, RD: 5, RA: RegZero, Imm: 0},
			{Op: OpB, Off26: -4 * WordSize},
		},
		data:      make([]byte, 16),
		maxCycles: 50000,
	}
	if sk := checkLoopCase(t, mem); sk != 0 {
		t.Fatalf("memory counter loop skipped %d cycles", sk)
	}
	lr := loopCase{
		text: []Inst{
			{Op: OpMflr, RD: 5},
			{Op: OpAddi, RD: 5, RA: 5, Imm: 4},
			{Op: OpMtlr, RD: 5},
			{Op: OpAddi, RD: 5, RA: RegZero, Imm: 0},
			{Op: OpB, Off26: -4 * WordSize},
		},
		maxCycles: 50000,
	}
	if sk := checkLoopCase(t, lr); sk != 0 {
		t.Fatalf("link-register counter loop skipped %d cycles", sk)
	}
}

// TestLoopSkipInputExhausted: a loop that consumes both input streams, then
// keeps polling them after they run out — only then does the state repeat.
func TestLoopSkipInputExhausted(t *testing.T) {
	text := []Inst{
		{Op: OpAddi, RD: RegSys, RA: RegZero, Imm: SysReadInt},
		{Op: OpSc},
		{Op: OpAdd, RD: 6, RA: 6, RB: 3},
		{Op: OpAddi, RD: RegSys, RA: RegZero, Imm: SysReadChar},
		{Op: OpSc},
		{Op: OpCmpwi, RD: 0, RA: 3, Imm: 0},
		{Op: OpBc, RD: uint8(CondLT), RA: 0, Imm: 2 * WordSize}, // -1: end of input
		{Op: OpAdd, RD: 7, RA: 7, RB: 3},
		{Op: OpB, Off26: -8 * WordSize},
	}
	c := loopCase{
		text:      text,
		maxCycles: 90000,
		ints:      []int32{5, -3, 11, 40, 2, 9, 1, 1, 8},
		bytes:     []byte("abcdefghijklmnopqrstuvwxyz"),
	}
	if sk := checkLoopCase(t, c); sk < 80000 {
		t.Fatalf("input-polling loop skipped only %d cycles", sk)
	}
}

// TestLoopSkipQuotaBelowWatchdog: with the hard quota below the watchdog the
// skip aims at the quota, and Run must still report ErrCycleQuota at exactly
// the quota cycle.
func TestLoopSkipQuotaBelowWatchdog(t *testing.T) {
	c := loopCase{
		text:      []Inst{{Op: OpNop}, {Op: OpAddi, RD: 4, RA: RegZero, Imm: 3}, {Op: OpB, Off26: -2 * WordSize}},
		maxCycles: 1 << 20,
		quota:     40001,
	}
	sk := checkLoopCase(t, c)
	if sk < 30000 {
		t.Fatalf("skipped only %d cycles", sk)
	}
	if r := runLoopCase(t, c, true); r.cycles != c.quota || !strings.HasPrefix(r.err, ErrCycleQuota.Error()) {
		t.Fatalf("stopped at %d cycles with %q, want ErrCycleQuota at the %d-cycle quota", r.cycles, r.err, c.quota)
	}
}

// TestLoopSkipSnapshotMidRun: a Snapshot taken from a watch hook while the
// detector holds a capture must disarm it and produce the checksum an
// unarmed run produces at the same point. The run resumes from a snapshot
// taken after a first write to the data page; the second write to that page
// lands before the first capture, and after it only the stack page is
// written. A capture clears the page's pageSnap flag, so a Snapshot that
// still trusted the flags would share the resumed snapshot's stale copy of
// the data page.
func TestLoopSkipSnapshotMidRun(t *testing.T) {
	const n = 11
	db := dataBaseOf(n)
	c := loopCase{
		text: []Inst{
			{Op: OpAddis, RD: 20, RA: RegZero, Imm: int32(db >> 16)},
			{Op: OpOri, RD: 20, RA: 20, Imm: int32(db & 0xffff)},
			{Op: OpAddi, RD: 5, RA: RegZero, Imm: 11},
			{Op: OpStw, RD: 5, RA: 20, Imm: 0},
			{Op: OpAddi, RD: 5, RA: RegZero, Imm: 99},
			{Op: OpStw, RD: 5, RA: 20, Imm: 4},
			{Op: OpAddi, RD: 4, RA: 4, Imm: 1}, // loop
			{Op: OpStw, RD: 4, RA: RegSP, Imm: -64},
			{Op: OpCmpwi, RD: 0, RA: 4, Imm: 500},
			{Op: OpBc, RD: uint8(CondLT), RA: 0, Imm: -3 * WordSize},
			{Op: OpB, Off26: 0}, // hang
		},
		data:      make([]byte, 16),
		maxCycles: 60000,
	}
	const early, mark = 4, 1500
	snapRun := func(arm bool) (loopRun, uint64) {
		m := New(Config{MaxCycles: c.maxCycles})
		if err := m.Load(c.image()); err != nil {
			t.Fatal(err)
		}
		m.SetInterpOnly(!arm)
		var first *Snapshot
		m.SetWatch(nil, []uint64{early}, func(m *Machine, _ uint32, _ bool) { first = m.Snapshot() })
		if _, err := m.Run(); err != nil {
			t.Fatal(err)
		}
		if err := m.Restore(first); err != nil {
			t.Fatal(err)
		}
		if arm && !m.ArmLoopSkip() {
			t.Fatal("ArmLoopSkip refused after Restore")
		}
		var mid uint64
		m.SetWatch(nil, []uint64{mark}, func(m *Machine, _ uint32, _ bool) {
			if arm && (m.loop == nil || !m.loop.captured) {
				t.Fatal("detector holds no capture at the watch mark; the test is vacuous")
			}
			mid = m.Snapshot().Checksum()
			if m.loop != nil {
				t.Fatal("Snapshot left the detector armed")
			}
		})
		st, err := m.Run()
		return loopResult(m, st, err), mid
	}
	ref, refMid := snapRun(false)
	got, gotMid := snapRun(true)
	if gotMid != refMid {
		t.Fatalf("mid-run snapshot checksum %#x, unarmed %#x", gotMid, refMid)
	}
	if got.skipped != 0 {
		t.Fatalf("skipped %d cycles after Snapshot disarmed the detector", got.skipped)
	}
	if got != ref {
		t.Fatalf("armed run differs:\narmed:  %+v\ninterp: %+v", got, ref)
	}
}

// TestLoopSkipObserverArmedLater: a watchpoint installed after arming must
// cancel the skip, or the skip would jump over the watched cycle mark.
func TestLoopSkipObserverArmedLater(t *testing.T) {
	m := New(Config{MaxCycles: 100000})
	if err := m.Load(buildImage([]Inst{{Op: OpB, Off26: 0}})); err != nil {
		t.Fatal(err)
	}
	if !m.ArmLoopSkip() {
		t.Fatal("ArmLoopSkip refused")
	}
	var at []uint64
	m.SetWatch(nil, []uint64{60000}, func(m *Machine, _ uint32, _ bool) { at = append(at, m.Cycles()) })
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if m.SkippedCycles() != 0 || m.Cycles() != 100000 || len(at) != 1 || at[0] != 60000 {
		t.Fatalf("skipped %d, ran %d cycles, watch fired at %v; want no skip, 100000 cycles, one fire at 60000",
			m.SkippedCycles(), m.Cycles(), at)
	}
}

// TestLoopSkipArmRefusals: arming is refused under observers that could see
// what a skip jumps over, and under the forced interpreter.
func TestLoopSkipArmRefusals(t *testing.T) {
	img := buildImage([]Inst{{Op: OpB, Off26: 0}})
	for name, setup := range map[string]func(m *Machine){
		"interp-only": func(m *Machine) { m.SetInterpOnly(true) },
		"fetch hook":  func(m *Machine) { m.SetFetchHook(func(_, w uint32) uint32 { return w }) },
		"trap hook":   func(m *Machine) { m.SetTrapHook(func(*Machine, uint32) error { return nil }) },
		"iabr hook":   func(m *Machine) { m.SetIABRHook(func(*Machine, uint32) {}) },
		"trace":       func(m *Machine) { m.EnableTrace(8) },
		"watchpoint":  func(m *Machine) { m.SetWatch(nil, []uint64{10}, func(*Machine, uint32, bool) {}) },
	} {
		m := New(Config{MaxCycles: 5000})
		if err := m.Load(img); err != nil {
			t.Fatal(err)
		}
		setup(m)
		if m.ArmLoopSkip() {
			t.Errorf("%s: ArmLoopSkip accepted", name)
		}
		if _, err := m.Run(); err != nil {
			t.Fatal(err)
		}
		if m.SkippedCycles() != 0 || m.Cycles() != 5000 {
			t.Errorf("%s: skipped %d, ran %d cycles", name, m.SkippedCycles(), m.Cycles())
		}
	}
	// Reset and Restore disarm.
	m := New(Config{MaxCycles: 5000})
	if err := m.Load(img); err != nil {
		t.Fatal(err)
	}
	s := m.Snapshot()
	for _, undo := range []func() error{m.Reset, func() error { return m.Restore(s) }} {
		if !m.ArmLoopSkip() {
			t.Fatal("ArmLoopSkip refused")
		}
		if err := undo(); err != nil {
			t.Fatal(err)
		}
		if m.loop != nil {
			t.Fatal("detector survived Reset/Restore")
		}
		if _, err := m.Run(); err != nil {
			t.Fatal(err)
		}
		if m.SkippedCycles() != 0 {
			t.Fatalf("skipped %d cycles after disarm", m.SkippedCycles())
		}
		if err := m.Reset(); err != nil {
			t.Fatal(err)
		}
	}
}
