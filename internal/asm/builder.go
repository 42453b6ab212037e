// Package asm provides the assembly layer between the mini-C compiler and
// the virtual machine: a symbolic program builder with label resolution, a
// two-pass textual assembler, and a disassembler that renders the listings
// shown in the paper's Figures 3–6.
package asm

import (
	"fmt"
	"sort"

	"repro/internal/vm"
)

// item is one pending instruction, possibly carrying an unresolved label or
// data-symbol fixup.
type item struct {
	inst    vm.Inst
	target  string // non-empty for label-relative branches
	dataSym string // non-empty for data-address fixups
	hi      bool   // fixup applies the high half of the address
}

// Symbol is one entry of the symbol table the loader exposes; the paper's
// manual fault definition relies on exactly this information ("the loader
// provides this information").
type Symbol struct {
	Name string
	Addr uint32
	Kind SymKind
}

// SymKind distinguishes code labels from data objects.
type SymKind int

// Symbol kinds.
const (
	SymText SymKind = iota + 1
	SymData
)

// Builder accumulates instructions and data, then assembles them into a
// loadable image plus symbol table.
type Builder struct {
	items     []item
	textSyms  map[string]int // label -> instruction index
	textOrder []string
	data      []byte
	dataSyms  map[string]uint32 // name -> offset within data segment
	dataOrder []string
}

// NewBuilder returns an empty builder.
func NewBuilder() *Builder {
	return &Builder{
		textSyms: make(map[string]int),
		dataSyms: make(map[string]uint32),
	}
}

// Label defines a code label at the current instruction position.
func (b *Builder) Label(name string) error {
	if _, dup := b.textSyms[name]; dup {
		return fmt.Errorf("asm: duplicate label %q", name)
	}
	b.textSyms[name] = len(b.items)
	b.textOrder = append(b.textOrder, name)
	return nil
}

// MustLabel is Label for programmatically generated, collision-free names.
func (b *Builder) MustLabel(name string) {
	if err := b.Label(name); err != nil {
		panic(err)
	}
}

// Emit appends a fully resolved instruction.
func (b *Builder) Emit(in vm.Inst) {
	b.items = append(b.items, item{inst: in})
}

// EmitBranch appends a branch to a label (OpB, OpBl or OpBc); the offset is
// resolved at assembly time.
func (b *Builder) EmitBranch(in vm.Inst, target string) {
	b.items = append(b.items, item{inst: in, target: target})
}

// Len returns the number of instructions emitted so far.
func (b *Builder) Len() int { return len(b.items) }

// EmitLoadAddr emits the two-instruction sequence that materialises the
// absolute address of data symbol name into rd (addis+ori). The address is
// fixed up at assembly time, when the data base is known.
func (b *Builder) EmitLoadAddr(rd uint8, name string) {
	b.items = append(b.items,
		item{inst: vm.Inst{Op: vm.OpAddis, RD: rd, RA: vm.RegZero}, dataSym: name, hi: true},
		item{inst: vm.Inst{Op: vm.OpOri, RD: rd, RA: rd}, dataSym: name},
	)
}

// EmitLoadImm32 emits the shortest sequence that loads the 32-bit constant v
// into rd: a single addi when v fits in a signed 16-bit immediate, otherwise
// addis+ori.
func (b *Builder) EmitLoadImm32(rd uint8, v int32) {
	if v >= -32768 && v <= 32767 {
		b.Emit(vm.Inst{Op: vm.OpAddi, RD: rd, RA: vm.RegZero, Imm: v})
		return
	}
	u := uint32(v)
	lo := u & 0xffff
	hi := u >> 16
	// addis sign-extends its immediate, but the shift and 32-bit wrap-around
	// make (hi<<16)|lo exact for every uint32 value.
	b.Emit(vm.Inst{Op: vm.OpAddis, RD: rd, RA: vm.RegZero, Imm: int32(int16(uint16(hi)))})
	b.Emit(vm.Inst{Op: vm.OpOri, RD: rd, RA: rd, Imm: int32(lo)})
}

// Word appends a 32-bit big-endian word to the data segment and returns its
// offset.
func (b *Builder) Word(v uint32) uint32 {
	off := uint32(len(b.data))
	b.data = append(b.data, byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
	return off
}

// Space reserves n zero bytes in the data segment and returns the offset.
func (b *Builder) Space(n uint32) uint32 {
	off := uint32(len(b.data))
	b.data = append(b.data, make([]byte, n)...)
	return off
}

// Bytes appends raw bytes to the data segment and returns the offset.
func (b *Builder) Bytes(p []byte) uint32 {
	off := uint32(len(b.data))
	b.data = append(b.data, p...)
	return off
}

// DataLabel names the current end of the data segment.
func (b *Builder) DataLabel(name string) error {
	if _, dup := b.dataSyms[name]; dup {
		return fmt.Errorf("asm: duplicate data symbol %q", name)
	}
	b.dataSyms[name] = uint32(len(b.data))
	b.dataOrder = append(b.dataOrder, name)
	return nil
}

// AlignData pads the data segment to a multiple of vm.WordSize.
func (b *Builder) AlignData() {
	for len(b.data)%vm.WordSize != 0 {
		b.data = append(b.data, 0)
	}
}

// Program is an assembled, loadable program with its symbol table.
type Program struct {
	Image     vm.Image
	Symbols   []Symbol
	symByName map[string]Symbol
}

// Lookup finds a symbol by name.
func (p *Program) Lookup(name string) (Symbol, bool) {
	s, ok := p.symByName[name]
	return s, ok
}

// TextAddr returns the absolute address of instruction index i.
func TextAddr(i int) uint32 { return vm.TextBase + uint32(i)*vm.WordSize }

// ReadTextWord returns the instruction word at an absolute text address.
func (p *Program) ReadTextWord(addr uint32) (uint32, error) {
	if addr < vm.TextBase || addr%vm.WordSize != 0 {
		return 0, fmt.Errorf("asm: bad text address %#x", addr)
	}
	i := int(addr-vm.TextBase) / vm.WordSize
	if i >= len(p.Image.Text) {
		return 0, fmt.Errorf("asm: text address %#x out of range", addr)
	}
	return p.Image.Text[i], nil
}

// Assemble resolves labels and produces the program. The entry point is the
// label named by entry.
func (b *Builder) Assemble(entry string) (*Program, error) {
	entryIdx, ok := b.textSyms[entry]
	if !ok {
		return nil, fmt.Errorf("asm: entry label %q not defined", entry)
	}
	dataBase := vm.TextBase + uint32(len(b.items))*vm.WordSize

	text := make([]uint32, len(b.items))
	for i, it := range b.items {
		in := it.inst
		if it.dataSym != "" {
			off, ok := b.dataSyms[it.dataSym]
			if !ok {
				return nil, fmt.Errorf("asm: undefined data symbol %q at instruction %d", it.dataSym, i)
			}
			addr := dataBase + off
			if it.hi {
				in.Imm = int32(int16(uint16(addr >> 16)))
			} else {
				in.Imm = int32(addr & 0xffff)
			}
		}
		if it.target != "" {
			ti, ok := b.textSyms[it.target]
			if !ok {
				return nil, fmt.Errorf("asm: undefined label %q at instruction %d", it.target, i)
			}
			off := int32(ti-i) * vm.WordSize
			switch in.Op {
			case vm.OpB, vm.OpBl:
				in.Off26 = off
			case vm.OpBc:
				if off > 32767 || off < -32768 {
					return nil, fmt.Errorf("asm: conditional branch to %q out of 16-bit range (%d)", it.target, off)
				}
				in.Imm = off
			default:
				return nil, fmt.Errorf("asm: instruction %s cannot take a label target", in.Op)
			}
		}
		text[i] = vm.Encode(in)
	}

	syms := make([]Symbol, 0, len(b.textSyms)+len(b.dataSyms))
	byName := make(map[string]Symbol, cap(syms))
	for _, name := range b.textOrder {
		s := Symbol{Name: name, Addr: TextAddr(b.textSyms[name]), Kind: SymText}
		syms = append(syms, s)
		byName[name] = s
	}
	for _, name := range b.dataOrder {
		s := Symbol{Name: name, Addr: dataBase + b.dataSyms[name], Kind: SymData}
		syms = append(syms, s)
		byName[name] = s
	}
	sort.Slice(syms, func(i, j int) bool { return syms[i].Addr < syms[j].Addr })

	return &Program{
		Image: vm.Image{
			Text:  text,
			Data:  append([]byte(nil), b.data...),
			Entry: TextAddr(entryIdx),
		},
		Symbols:   syms,
		symByName: byName,
	}, nil
}
