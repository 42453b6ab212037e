package cc

import (
	"fmt"

	"repro/internal/asm"
	"repro/internal/vm"
)

// Code generation model
//
// Expressions evaluate into a stack of scratch registers r14..r27 (depth 0
// maps to r14). The stack pointer is r1; locals live at fixed positive
// displacements from SP, exactly like the "stw r5,240(sp)" listings in the
// paper's Figure 4, so stack-shift faults manipulate these displacement
// operands. r12 is the prologue/epilogue temporary, r3..r10 carry arguments
// and results.
const (
	scratchBase = 14
	maxScratch  = 14
	regTmp      = 12
	spillBase   = 0              // spill area at SP+0
	spillBytes  = maxScratch * 4 // one slot per scratch register
	localsBase  = spillBase + spillBytes

	// imageLimit bounds what a default machine can hold: vm.(*Machine).Load
	// refuses an image whose text (loaded at vm.TextBase) and data reach
	// past the lower half of memory. No array may be larger either, which
	// also keeps every object size well inside int32.
	imageLimit = vm.DefaultMemSize / 2
)

// pendingCheck is a CheckInfo whose addresses are still instruction indices
// and label names; it is resolved after assembly.
type pendingCheck struct {
	fn       string
	line     int
	col      int
	op       string
	cmpIdx   int // -1 when absent
	bcIdx    int
	cond     vm.Cond
	altCond  vm.Cond
	negated  bool
	takenLbl string
	fallIdx  int // instruction index that follows the bc
	altLbl   string
	loads    []pendingLoad
}

type pendingLoad struct {
	idx      int
	elemSize int32
}

// pendingAssign mirrors AssignInfo pre-resolution.
type pendingAssign struct {
	fn         string
	line       int
	col        int
	lhs        string
	storeIdx   int
	storeByte  bool
	valueStart int
	inHeader   bool
}

type pendingFunc struct {
	name      string
	entryIdx  int
	endIdx    int
	frameSize int32
	locals    []LocalVar
	line      int
}

type pendingSpan struct {
	fn    string
	line  int
	start int
	end   int
}

// codegen holds per-compilation state.
type codegen struct {
	b       *asm.Builder
	file    *File
	nextLbl int

	checks  []pendingCheck
	assigns []pendingAssign
	funcs   []pendingFunc
	spans   []pendingSpan

	// per-function state
	fnName    string
	frameSize int32
	retLabel  string
	breakLbl  []string
	contLbl   []string
	inHeader  bool

	// array-element loads recorded since function start; relational
	// operators slice this list to attribute loads to their comparison.
	loads []pendingLoad

	strCount int
}

// Compiled is the output of Compile: a loadable program, its debug
// information, the checked AST and the original source.
type Compiled struct {
	Prog   *asm.Program
	Debug  *DebugInfo
	AST    *File
	Source string
}

// Compile parses, checks and compiles a mini-C translation unit.
func Compile(src string) (*Compiled, error) {
	f, err := Parse(src)
	if err != nil {
		return nil, err
	}
	if err := Check(f); err != nil {
		return nil, err
	}
	cg := &codegen{b: asm.NewBuilder(), file: f}
	if err := cg.genFile(); err != nil {
		return nil, err
	}
	prog, err := cg.b.Assemble("_start")
	if err != nil {
		return nil, fmt.Errorf("cc: internal assembly error: %w", err)
	}
	if n := vm.TextBase + vm.WordSize*len(prog.Image.Text) + len(prog.Image.Data); n > imageLimit {
		return nil, fmt.Errorf("cc: program image ends at byte %d, past the VM's %d-byte load limit", n, imageLimit)
	}
	dbg, err := cg.resolve(prog)
	if err != nil {
		return nil, err
	}
	return &Compiled{Prog: prog, Debug: dbg, AST: f, Source: src}, nil
}

func (cg *codegen) label() string {
	cg.nextLbl++
	return fmt.Sprintf(".L%d", cg.nextLbl)
}

func (cg *codegen) emit(in vm.Inst)                  { cg.b.Emit(in) }
func (cg *codegen) branch(in vm.Inst, target string) { cg.b.EmitBranch(in, target) }

// reg maps an expression-stack depth to its scratch register.
func reg(depth int) (uint8, error) {
	if depth >= maxScratch {
		return 0, fmt.Errorf("cc: expression too complex (scratch depth %d)", depth)
	}
	return uint8(scratchBase + depth), nil
}

// genFile compiles globals, the runtime entry stub and every function.
func (cg *codegen) genFile() error {
	// Entry stub: call main, exit with its return value.
	cg.b.MustLabel("_start")
	cg.branch(vm.Inst{Op: vm.OpBl}, "main")
	main := cg.findFunc("main")
	if main != nil && main.Ret.Kind == TypeVoid {
		cg.emit(vm.Inst{Op: vm.OpAddi, RD: vm.RegRet, RA: vm.RegZero, Imm: 0})
	}
	cg.emit(vm.Inst{Op: vm.OpAddi, RD: vm.RegSys, RA: vm.RegZero, Imm: vm.SysExit})
	cg.emit(vm.Inst{Op: vm.OpSc})

	// Globals go to the data segment; their symbols must exist before any
	// function references them.
	var dataBytes int
	for _, g := range cg.file.Globals {
		// Checked before Space allocates, so a source declaring many large
		// globals fails here instead of building a huge data segment.
		if dataBytes += int(g.Type.Size()); dataBytes > imageLimit {
			return fmt.Errorf("cc: globals exceed the VM's %d-byte load limit", imageLimit)
		}
		cg.b.AlignData()
		g.Sym = g.Name
		if err := cg.b.DataLabel(g.Sym); err != nil {
			return fmt.Errorf("cc: global %s: %w", g.Name, err)
		}
		if g.Init != nil {
			lit := g.Init.(*IntLit) // validated by sema
			switch g.Type.Kind {
			case TypeChar:
				cg.b.Bytes([]byte{byte(lit.Val)})
			default:
				cg.b.Word(uint32(lit.Val))
			}
		} else {
			cg.b.Space(uint32(g.Type.Size()))
		}
	}

	for _, fn := range cg.file.Funcs {
		if err := cg.genFunc(fn); err != nil {
			return err
		}
	}
	return nil
}

func (cg *codegen) findFunc(name string) *FuncDecl {
	for _, fn := range cg.file.Funcs {
		if fn.Name == name {
			return fn
		}
	}
	return nil
}

// layoutFrame assigns stack offsets to parameters and locals and returns the
// frame size and the LocalVar table.
func layoutFrame(fn *FuncDecl) (int32, []LocalVar) {
	cursor := int32(localsBase)
	var locals []LocalVar
	place := func(d *VarDecl) {
		size := d.Type.Size()
		align := int32(4)
		if d.Type.Kind == TypeChar {
			// Scalar chars are promoted to word slots (they are loaded and
			// stored with lwz/stw).
			size = 4
		}
		// char arrays keep byte granularity so that the [80] vs [81]
		// declaration difference shifts subsequent offsets, as in the
		// paper's Figure 4 fault; ints that follow are re-aligned to 4.
		if d.Type.Kind == TypeArray && d.Type.Elem.Size() == 1 {
			align = 1
		}
		for cursor%align != 0 {
			cursor++
		}
		d.Offset = cursor
		d.IsGlobal = false
		locals = append(locals, LocalVar{Name: d.Name, Offset: cursor, Size: size})
		cursor += size
	}
	for _, p := range fn.Params {
		place(p)
	}
	for _, l := range FuncLocals(fn)[len(fn.Params):] {
		place(l)
	}
	for cursor%4 != 0 {
		cursor++
	}
	frame := cursor + 4 // saved LR
	if frame%8 != 0 {
		frame += 4
	}
	return frame, locals
}

func (cg *codegen) genFunc(fn *FuncDecl) error {
	frame, locals := layoutFrame(fn)
	cg.fnName = fn.Name
	cg.frameSize = frame
	cg.retLabel = cg.label()
	cg.breakLbl = nil
	cg.contLbl = nil
	cg.loads = nil
	entryIdx := cg.b.Len()
	if err := cg.b.Label(fn.Name); err != nil {
		return fmt.Errorf("cc: function %s collides with another symbol: %w", fn.Name, err)
	}

	// Prologue.
	cg.emit(vm.Inst{Op: vm.OpMflr, RD: regTmp})
	cg.emit(vm.Inst{Op: vm.OpAddi, RD: vm.RegSP, RA: vm.RegSP, Imm: -frame})
	cg.emit(vm.Inst{Op: vm.OpStw, RD: regTmp, RA: vm.RegSP, Imm: frame - 4})
	for i, p := range fn.Params {
		cg.emit(vm.Inst{Op: vm.OpStw, RD: uint8(3 + i), RA: vm.RegSP, Imm: p.Offset})
	}

	if err := cg.genStmt(fn.Body, fn); err != nil {
		return err
	}

	// Fall off the end: void functions return, int functions return 0
	// (pre-ANSI C tolerance; several contest programs rely on it).
	if fn.Ret.Kind != TypeVoid {
		cg.emit(vm.Inst{Op: vm.OpAddi, RD: vm.RegRet, RA: vm.RegZero, Imm: 0})
	}
	cg.b.MustLabel(cg.retLabel)
	cg.emit(vm.Inst{Op: vm.OpLwz, RD: regTmp, RA: vm.RegSP, Imm: frame - 4})
	cg.emit(vm.Inst{Op: vm.OpMtlr, RD: regTmp})
	cg.emit(vm.Inst{Op: vm.OpAddi, RD: vm.RegSP, RA: vm.RegSP, Imm: frame})
	cg.emit(vm.Inst{Op: vm.OpBlr})

	cg.funcs = append(cg.funcs, pendingFunc{
		name: fn.Name, entryIdx: entryIdx, endIdx: cg.b.Len(),
		frameSize: frame, locals: locals, line: fn.Line,
	})
	return nil
}

// span records a statement span for line-to-address mapping.
func (cg *codegen) span(line, start int) {
	cg.spans = append(cg.spans, pendingSpan{fn: cg.fnName, line: line, start: start, end: cg.b.Len()})
}

func (cg *codegen) genStmt(s Stmt, fn *FuncDecl) error {
	switch st := s.(type) {
	case *Block:
		for _, sub := range st.Stmts {
			if err := cg.genStmt(sub, fn); err != nil {
				return err
			}
		}
		return nil
	case *DeclStmt:
		if st.Decl.Init == nil {
			return nil
		}
		start := cg.b.Len()
		if err := cg.genAssignTo(st.Decl, st.Decl.Init, st.Line); err != nil {
			return err
		}
		cg.span(st.Line, start)
		return nil
	case *ExprStmt:
		start := cg.b.Len()
		if _, err := cg.genExpr(st.E, 0); err != nil {
			return err
		}
		cg.span(st.Line, start)
		return nil
	case *If:
		start := cg.b.Len()
		lThen, lEnd := cg.label(), cg.label()
		lElse := lEnd
		if st.Else != nil {
			lElse = cg.label()
		}
		if err := cg.genCondTo(st.Cond, lThen, lElse, lThen); err != nil {
			return err
		}
		cg.span(st.Line, start)
		cg.b.MustLabel(lThen)
		if err := cg.genStmt(st.Then, fn); err != nil {
			return err
		}
		if st.Else != nil {
			cg.branch(vm.Inst{Op: vm.OpB}, lEnd)
			cg.b.MustLabel(lElse)
			if err := cg.genStmt(st.Else, fn); err != nil {
				return err
			}
		}
		cg.b.MustLabel(lEnd)
		return nil
	case *While:
		lCond, lBody, lEnd := cg.label(), cg.label(), cg.label()
		cg.b.MustLabel(lCond)
		start := cg.b.Len()
		if err := cg.genCondTo(st.Cond, lBody, lEnd, lBody); err != nil {
			return err
		}
		cg.span(st.Line, start)
		cg.b.MustLabel(lBody)
		cg.breakLbl = append(cg.breakLbl, lEnd)
		cg.contLbl = append(cg.contLbl, lCond)
		if err := cg.genStmt(st.Body, fn); err != nil {
			return err
		}
		cg.breakLbl = cg.breakLbl[:len(cg.breakLbl)-1]
		cg.contLbl = cg.contLbl[:len(cg.contLbl)-1]
		cg.branch(vm.Inst{Op: vm.OpB}, lCond)
		cg.b.MustLabel(lEnd)
		return nil
	case *For:
		lCond, lBody, lPost, lEnd := cg.label(), cg.label(), cg.label(), cg.label()
		if st.Init != nil {
			start := cg.b.Len()
			cg.inHeader = true
			err := cg.genStmt(st.Init, fn)
			cg.inHeader = false
			if err != nil {
				return err
			}
			cg.span(st.Line, start)
		}
		cg.b.MustLabel(lCond)
		if st.Cond != nil {
			start := cg.b.Len()
			if err := cg.genCondTo(st.Cond, lBody, lEnd, lBody); err != nil {
				return err
			}
			cg.span(st.Line, start)
		}
		cg.b.MustLabel(lBody)
		cg.breakLbl = append(cg.breakLbl, lEnd)
		cg.contLbl = append(cg.contLbl, lPost)
		if err := cg.genStmt(st.Body, fn); err != nil {
			return err
		}
		cg.breakLbl = cg.breakLbl[:len(cg.breakLbl)-1]
		cg.contLbl = cg.contLbl[:len(cg.contLbl)-1]
		cg.b.MustLabel(lPost)
		if st.Post != nil {
			start := cg.b.Len()
			cg.inHeader = true
			err := cg.genStmt(st.Post, fn)
			cg.inHeader = false
			if err != nil {
				return err
			}
			cg.span(st.Line, start)
		}
		cg.branch(vm.Inst{Op: vm.OpB}, lCond)
		cg.b.MustLabel(lEnd)
		return nil
	case *Return:
		start := cg.b.Len()
		if st.E != nil {
			r, err := cg.genExpr(st.E, 0)
			if err != nil {
				return err
			}
			cg.emit(vm.Inst{Op: vm.OpOr, RD: vm.RegRet, RA: r, RB: r})
		}
		cg.branch(vm.Inst{Op: vm.OpB}, cg.retLabel)
		cg.span(st.Line, start)
		return nil
	case *Break:
		cg.branch(vm.Inst{Op: vm.OpB}, cg.breakLbl[len(cg.breakLbl)-1])
		return nil
	case *Continue:
		cg.branch(vm.Inst{Op: vm.OpB}, cg.contLbl[len(cg.contLbl)-1])
		return nil
	}
	return fmt.Errorf("cc: cannot compile statement %T", s)
}

// genAssignTo compiles "decl = init" for declaration initialisers.
func (cg *codegen) genAssignTo(d *VarDecl, init Expr, line int) error {
	valueStart := cg.b.Len()
	r, err := cg.genExpr(init, 0)
	if err != nil {
		return err
	}
	storeIdx := cg.b.Len()
	cg.emit(vm.Inst{Op: vm.OpStw, RD: r, RA: vm.RegSP, Imm: d.Offset})
	cg.assigns = append(cg.assigns, pendingAssign{
		fn: cg.fnName, line: line, lhs: d.Name,
		storeIdx: storeIdx, valueStart: valueStart,
		inHeader: cg.inHeader,
	})
	return nil
}

// genExpr evaluates e into the scratch register for depth and returns that
// register.
func (cg *codegen) genExpr(e Expr, depth int) (uint8, error) {
	rd, err := reg(depth)
	if err != nil {
		return 0, err
	}
	switch ex := e.(type) {
	case *IntLit:
		cg.b.EmitLoadImm32(rd, ex.Val)
		return rd, nil
	case *StrLit:
		sym := cg.internString(ex.Val)
		cg.b.EmitLoadAddr(rd, sym)
		return rd, nil
	case *Ident:
		d := ex.Decl
		if d.Type.Kind == TypeArray {
			// Array-to-pointer decay: the value is the address.
			return rd, cg.emitVarAddr(d, rd)
		}
		if d.IsGlobal {
			if err := cg.emitVarAddr(d, rd); err != nil {
				return 0, err
			}
			if d.Type.Kind == TypeChar {
				cg.emit(vm.Inst{Op: vm.OpLbz, RD: rd, RA: rd, Imm: 0})
			} else {
				cg.emit(vm.Inst{Op: vm.OpLwz, RD: rd, RA: rd, Imm: 0})
			}
			return rd, nil
		}
		cg.emit(vm.Inst{Op: vm.OpLwz, RD: rd, RA: vm.RegSP, Imm: d.Offset})
		return rd, nil
	case *Unary:
		return cg.genUnary(ex, depth)
	case *Binary:
		switch ex.Op {
		case "==", "!=", "<", "<=", ">", ">=", "&&", "||":
			return cg.materializeCond(ex, depth)
		}
		return cg.genArith(ex, depth)
	case *Assign:
		return cg.genAssign(ex, depth)
	case *CondExpr:
		lT, lF, lEnd := cg.label(), cg.label(), cg.label()
		if err := cg.genCondTo(ex.C, lT, lF, lT); err != nil {
			return 0, err
		}
		cg.b.MustLabel(lT)
		if _, err := cg.genExpr(ex.T, depth); err != nil {
			return 0, err
		}
		cg.branch(vm.Inst{Op: vm.OpB}, lEnd)
		cg.b.MustLabel(lF)
		if _, err := cg.genExpr(ex.F, depth); err != nil {
			return 0, err
		}
		cg.b.MustLabel(lEnd)
		return rd, nil
	case *Call:
		return cg.genCall(ex, depth)
	case *Index:
		if ex.Typ.Kind == TypeArray {
			// Row of a multi-dimensional array: value is the address.
			return rd, cg.genAddr(ex, depth)
		}
		if err := cg.genAddr(ex, depth); err != nil {
			return 0, err
		}
		loadIdx := cg.b.Len()
		if ex.Typ.Size() == 1 {
			cg.emit(vm.Inst{Op: vm.OpLbz, RD: rd, RA: rd, Imm: 0})
		} else {
			cg.emit(vm.Inst{Op: vm.OpLwz, RD: rd, RA: rd, Imm: 0})
		}
		cg.loads = append(cg.loads, pendingLoad{idx: loadIdx, elemSize: ex.Typ.Size()})
		return rd, nil
	}
	return 0, fmt.Errorf("cc: cannot compile expression %T", e)
}

// emitVarAddr materialises the address of a variable into rd.
func (cg *codegen) emitVarAddr(d *VarDecl, rd uint8) error {
	if d.IsGlobal {
		cg.b.EmitLoadAddr(rd, d.Sym)
		return nil
	}
	cg.emit(vm.Inst{Op: vm.OpAddi, RD: rd, RA: vm.RegSP, Imm: d.Offset})
	return nil
}

func (cg *codegen) genUnary(ex *Unary, depth int) (uint8, error) {
	rd, err := reg(depth)
	if err != nil {
		return 0, err
	}
	switch ex.Op {
	case "-":
		if _, err := cg.genExpr(ex.X, depth); err != nil {
			return 0, err
		}
		cg.emit(vm.Inst{Op: vm.OpNeg, RD: rd, RA: rd})
		return rd, nil
	case "!":
		return cg.materializeCond(ex, depth)
	case "*":
		if _, err := cg.genExpr(ex.X, depth); err != nil {
			return 0, err
		}
		if ex.Typ.Size() == 1 {
			cg.emit(vm.Inst{Op: vm.OpLbz, RD: rd, RA: rd, Imm: 0})
		} else if ex.Typ.IsScalar() {
			cg.emit(vm.Inst{Op: vm.OpLwz, RD: rd, RA: rd, Imm: 0})
		}
		return rd, nil
	case "&":
		return rd, cg.genAddr(ex.X, depth)
	}
	return 0, fmt.Errorf("cc: unary %s", ex.Op)
}

func (cg *codegen) genArith(ex *Binary, depth int) (uint8, error) {
	rd, err := reg(depth)
	if err != nil {
		return 0, err
	}
	if _, err := cg.genExpr(ex.X, depth); err != nil {
		return 0, err
	}
	ry, err := reg(depth + 1)
	if err != nil {
		return 0, err
	}
	if _, err := cg.genExpr(ex.Y, depth+1); err != nil {
		return 0, err
	}
	xt := ex.X.TypeOf()
	yt := ex.Y.TypeOf()
	// Pointer arithmetic scaling.
	if ex.Op == "+" || ex.Op == "-" {
		if xt.Kind == TypePointer && yt.Kind != TypePointer {
			if sz := xt.Elem.Size(); sz > 1 {
				cg.emit(vm.Inst{Op: vm.OpMulli, RD: ry, RA: ry, Imm: sz})
			}
		} else if yt.Kind == TypePointer && xt.Kind != TypePointer && ex.Op == "+" {
			if sz := yt.Elem.Size(); sz > 1 {
				cg.emit(vm.Inst{Op: vm.OpMulli, RD: rd, RA: rd, Imm: sz})
			}
		}
	}
	switch ex.Op {
	case "+":
		cg.emit(vm.Inst{Op: vm.OpAdd, RD: rd, RA: rd, RB: ry})
	case "-":
		cg.emit(vm.Inst{Op: vm.OpSubf, RD: rd, RA: ry, RB: rd})
	case "*":
		cg.emit(vm.Inst{Op: vm.OpMullw, RD: rd, RA: rd, RB: ry})
	case "/":
		cg.emit(vm.Inst{Op: vm.OpDivw, RD: rd, RA: rd, RB: ry})
	case "%":
		cg.emit(vm.Inst{Op: vm.OpMod, RD: rd, RA: rd, RB: ry})
	default:
		return 0, fmt.Errorf("cc: arith %s", ex.Op)
	}
	return rd, nil
}

// genAddr computes the address of an lvalue into the scratch register for
// depth.
func (cg *codegen) genAddr(e Expr, depth int) error {
	rd, err := reg(depth)
	if err != nil {
		return err
	}
	switch ex := e.(type) {
	case *Ident:
		return cg.emitVarAddr(ex.Decl, rd)
	case *Unary:
		if ex.Op != "*" {
			return fmt.Errorf("cc: cannot take address of unary %s", ex.Op)
		}
		_, err := cg.genExpr(ex.X, depth)
		return err
	case *Index:
		// Base address.
		if err := cg.genAddr(ex.X, depth); err != nil {
			// X is not an lvalue with an address (e.g. pointer-valued
			// expression); evaluate it as a value instead.
			if _, verr := cg.genExpr(ex.X, depth); verr != nil {
				return verr
			}
		} else if xt := ex.X.TypeOf(); xt.Kind == TypePointer && !isArrayObject(ex.X) {
			// The lvalue holds a pointer; load it to get the base.
			cg.emit(vm.Inst{Op: vm.OpLwz, RD: rd, RA: rd, Imm: 0})
		}
		ri, err := reg(depth + 1)
		if err != nil {
			return err
		}
		if _, err := cg.genExpr(ex.Idx, depth+1); err != nil {
			return err
		}
		if sz := ex.Typ.Size(); sz > 1 {
			cg.emit(vm.Inst{Op: vm.OpMulli, RD: ri, RA: ri, Imm: sz})
		}
		cg.emit(vm.Inst{Op: vm.OpAdd, RD: rd, RA: rd, RB: ri})
		return nil
	}
	return fmt.Errorf("cc: not an lvalue: %T", e)
}

// isArrayObject reports whether e directly designates an array object (so
// its "address" is the array base, with no pointer load needed).
func isArrayObject(e Expr) bool {
	switch ex := e.(type) {
	case *Ident:
		return ex.Decl.Type.Kind == TypeArray
	case *Index:
		return ex.Typ.Kind == TypeArray
	}
	return false
}

// lhsString renders an assignment target for debug records.
func lhsString(e Expr) string {
	switch ex := e.(type) {
	case *Ident:
		return ex.Name
	case *Index:
		return lhsString(ex.X) + "[]"
	case *Unary:
		if ex.Op == "*" {
			return "*" + lhsString(ex.X)
		}
	}
	return "?"
}

// genAssign compiles an assignment expression, recording its AssignInfo
// fault location. The assigned value remains in the depth register.
func (cg *codegen) genAssign(ex *Assign, depth int) (uint8, error) {
	rv, err := reg(depth)
	if err != nil {
		return 0, err
	}
	valueStart := cg.b.Len()
	if _, err := cg.genExpr(ex.RHS, depth); err != nil {
		return 0, err
	}
	line, col := ex.Pos()

	// Direct store for scalar locals and globals; indirect for the rest.
	var storeIdx int
	var byteStore bool
	switch lhs := ex.LHS.(type) {
	case *Ident:
		d := lhs.Decl
		if d.IsGlobal {
			ra, err := reg(depth + 1)
			if err != nil {
				return 0, err
			}
			cg.b.EmitLoadAddr(ra, d.Sym)
			storeIdx = cg.b.Len()
			if d.Type.Kind == TypeChar {
				byteStore = true
				cg.emit(vm.Inst{Op: vm.OpStb, RD: rv, RA: ra, Imm: 0})
			} else {
				cg.emit(vm.Inst{Op: vm.OpStw, RD: rv, RA: ra, Imm: 0})
			}
		} else {
			storeIdx = cg.b.Len()
			cg.emit(vm.Inst{Op: vm.OpStw, RD: rv, RA: vm.RegSP, Imm: d.Offset})
		}
	default:
		ra, err := reg(depth + 1)
		if err != nil {
			return 0, err
		}
		if err := cg.genAddr(ex.LHS, depth+1); err != nil {
			return 0, err
		}
		storeIdx = cg.b.Len()
		if ex.Typ.Size() == 1 {
			byteStore = true
			cg.emit(vm.Inst{Op: vm.OpStb, RD: rv, RA: ra, Imm: 0})
		} else {
			cg.emit(vm.Inst{Op: vm.OpStw, RD: rv, RA: ra, Imm: 0})
		}
	}
	cg.assigns = append(cg.assigns, pendingAssign{
		fn: cg.fnName, line: line, col: col, lhs: lhsString(ex.LHS),
		storeIdx: storeIdx, storeByte: byteStore, valueStart: valueStart,
		inHeader: cg.inHeader,
	})
	return rv, nil
}

// internString places a string literal in the data segment.
func (cg *codegen) internString(s string) string {
	cg.strCount++
	sym := fmt.Sprintf(".str%d", cg.strCount)
	cg.b.AlignData()
	if err := cg.b.DataLabel(sym); err != nil {
		panic(err) // generated names cannot collide
	}
	cg.b.Bytes(append([]byte(s), 0))
	return sym
}

// condForOp returns the branch condition testing "op holds" and, negated,
// the condition testing "op does not hold".
func condForOp(op string, negated bool) (vm.Cond, bool) {
	var pos, neg vm.Cond
	switch op {
	case "<":
		pos, neg = vm.CondLT, vm.CondGE
	case "<=":
		pos, neg = vm.CondLE, vm.CondGT
	case ">":
		pos, neg = vm.CondGT, vm.CondLE
	case ">=":
		pos, neg = vm.CondGE, vm.CondLT
	case "==":
		pos, neg = vm.CondEQ, vm.CondNE
	case "!=":
		pos, neg = vm.CondNE, vm.CondEQ
	default:
		return 0, false
	}
	if negated {
		return neg, true
	}
	return pos, true
}

// connectiveAlt returns the branch condition X's bc acquires under the
// and<->or mutation: the un-negated form of X's test. Truth tests invert
// between eq and ne directly.
func (cg *codegen) connectiveAlt(x pendingCheck) (vm.Cond, bool) {
	if x.op == "truth" {
		if x.cond == vm.CondEQ {
			return vm.CondNE, true
		}
		return vm.CondEQ, true
	}
	return condForOp(x.op, !x.negated)
}

// genCondTo compiles e as a branch: control reaches label tL when e is true
// and fL when false. next names whichever of the two labels is emitted
// immediately after this code, so only one branch is needed for simple
// comparisons. It records CheckInfo fault locations for every comparison and
// connective.
func (cg *codegen) genCondTo(e Expr, tL, fL, next string) error {
	_, err := cg.genCond(e, tL, fL, next, 0)
	return err
}

// genCond is genCondTo at a given scratch depth. It returns the index into
// cg.checks of the single comparison it emitted, or -1 when the condition is
// compound or constant (used by the and/or mutation bookkeeping).
func (cg *codegen) genCond(e Expr, tL, fL, next string, depth int) (int, error) {
	switch ex := e.(type) {
	case *Binary:
		switch ex.Op {
		case "<", "<=", ">", ">=", "==", "!=":
			return cg.genRelational(ex, tL, fL, next, depth)
		case "&&":
			lMid := cg.label()
			xi, err := cg.genCond(ex.X, lMid, fL, lMid, depth)
			if err != nil {
				return -1, err
			}
			cg.b.MustLabel(lMid)
			if xi >= 0 {
				// Record the connective: mutating && to || rewrites X's
				// branch to jump to tL when X holds.
				x := cg.checks[xi]
				if altCond, ok := cg.connectiveAlt(x); ok {
					line, col := ex.Pos()
					cg.checks = append(cg.checks, pendingCheck{
						fn: cg.fnName, line: line, col: col, op: "&&",
						cmpIdx: x.cmpIdx, bcIdx: x.bcIdx, cond: x.cond, altCond: altCond,
						negated: x.negated, takenLbl: x.takenLbl, fallIdx: x.fallIdx,
						altLbl: tL,
					})
				}
			}
			if _, err := cg.genCond(ex.Y, tL, fL, next, depth); err != nil {
				return -1, err
			}
			return -1, nil
		case "||":
			lMid := cg.label()
			xi, err := cg.genCond(ex.X, tL, lMid, lMid, depth)
			if err != nil {
				return -1, err
			}
			cg.b.MustLabel(lMid)
			if xi >= 0 {
				x := cg.checks[xi]
				if altCond, ok := cg.connectiveAlt(x); ok {
					line, col := ex.Pos()
					cg.checks = append(cg.checks, pendingCheck{
						fn: cg.fnName, line: line, col: col, op: "||",
						cmpIdx: x.cmpIdx, bcIdx: x.bcIdx, cond: x.cond, altCond: altCond,
						negated: x.negated, takenLbl: x.takenLbl, fallIdx: x.fallIdx,
						altLbl: fL,
					})
				}
			}
			if _, err := cg.genCond(ex.Y, tL, fL, next, depth); err != nil {
				return -1, err
			}
			return -1, nil
		}
	case *Unary:
		if ex.Op == "!" {
			// Swap the true/false targets; next still names the same
			// physical label.
			return cg.genCond(ex.X, fL, tL, next, depth)
		}
	case *IntLit:
		// Constant condition: unconditional control flow, no check exists
		// at machine level.
		if ex.Val != 0 {
			if next != tL {
				cg.branch(vm.Inst{Op: vm.OpB}, tL)
			}
		} else {
			if next != fL {
				cg.branch(vm.Inst{Op: vm.OpB}, fL)
			}
		}
		return -1, nil
	}
	// Generic truth test: e != 0.
	rv, err := cg.genExpr(e, depth)
	if err != nil {
		return -1, err
	}
	line, col := e.Pos()
	cmpIdx := cg.b.Len()
	cg.emit(vm.Inst{Op: vm.OpCmpwi, RD: 0, RA: rv, Imm: 0})
	bcIdx := cg.b.Len()
	var cond vm.Cond
	var taken string
	negated := false
	if next == fL {
		cond, taken = vm.CondNE, tL
	} else {
		cond, taken, negated = vm.CondEQ, fL, true
	}
	cg.branch(vm.Inst{Op: vm.OpBc, RD: uint8(cond)}, taken)
	ci := len(cg.checks)
	cg.checks = append(cg.checks, pendingCheck{
		fn: cg.fnName, line: line, col: col, op: "truth",
		cmpIdx: cmpIdx, bcIdx: bcIdx, cond: cond, negated: negated,
		takenLbl: taken, fallIdx: cg.b.Len(),
	})
	return ci, nil
}

// genRelational emits cmp + bc for a comparison and records its CheckInfo.
func (cg *codegen) genRelational(ex *Binary, tL, fL, next string, depth int) (int, error) {
	loadLo := len(cg.loads)
	rx, err := reg(depth)
	if err != nil {
		return -1, err
	}
	if _, err := cg.genExpr(ex.X, depth); err != nil {
		return -1, err
	}
	ry, err := reg(depth + 1)
	if err != nil {
		return -1, err
	}
	if _, err := cg.genExpr(ex.Y, depth+1); err != nil {
		return -1, err
	}
	loadHi := len(cg.loads)
	line, col := ex.Pos()
	cmpIdx := cg.b.Len()
	cg.emit(vm.Inst{Op: vm.OpCmpw, RD: 0, RA: rx, RB: ry})
	bcIdx := cg.b.Len()
	negated := next == tL
	var taken string
	if negated {
		taken = fL
	} else {
		taken = tL
	}
	cond, _ := condForOp(ex.Op, negated)
	cg.branch(vm.Inst{Op: vm.OpBc, RD: uint8(cond)}, taken)
	ci := len(cg.checks)
	cg.checks = append(cg.checks, pendingCheck{
		fn: cg.fnName, line: line, col: col, op: ex.Op,
		cmpIdx: cmpIdx, bcIdx: bcIdx, cond: cond, negated: negated,
		takenLbl: taken, fallIdx: cg.b.Len(),
		loads: append([]pendingLoad(nil), cg.loads[loadLo:loadHi]...),
	})
	return ci, nil
}

// materializeCond evaluates a boolean expression to 0/1 in the depth
// register.
func (cg *codegen) materializeCond(e Expr, depth int) (uint8, error) {
	rd, err := reg(depth)
	if err != nil {
		return 0, err
	}
	lT, lF, lEnd := cg.label(), cg.label(), cg.label()
	if _, err := cg.genCond(e, lT, lF, lT, depth); err != nil {
		return 0, err
	}
	cg.b.MustLabel(lT)
	cg.emit(vm.Inst{Op: vm.OpAddi, RD: rd, RA: vm.RegZero, Imm: 1})
	cg.branch(vm.Inst{Op: vm.OpB}, lEnd)
	cg.b.MustLabel(lF)
	cg.emit(vm.Inst{Op: vm.OpAddi, RD: rd, RA: vm.RegZero, Imm: 0})
	cg.b.MustLabel(lEnd)
	return rd, nil
}

// genCall compiles a call to a user function or builtin.
func (cg *codegen) genCall(ex *Call, depth int) (uint8, error) {
	rd, err := reg(depth)
	if err != nil {
		return 0, err
	}
	if _, ok := builtins[ex.Name]; ok {
		return cg.genBuiltin(ex, depth)
	}
	// Evaluate arguments at depth, depth+1, ...
	for i, a := range ex.Args {
		if _, err := cg.genExpr(a, depth+i); err != nil {
			return 0, err
		}
	}
	// Spill live scratch registers below depth.
	for i := 0; i < depth; i++ {
		cg.emit(vm.Inst{Op: vm.OpStw, RD: uint8(scratchBase + i), RA: vm.RegSP, Imm: int32(spillBase + i*4)})
	}
	// Move arguments into r3..; scratch and argument ranges are disjoint.
	for i := range ex.Args {
		ra := uint8(scratchBase + depth + i)
		cg.emit(vm.Inst{Op: vm.OpOr, RD: uint8(3 + i), RA: ra, RB: ra})
	}
	cg.branch(vm.Inst{Op: vm.OpBl}, ex.Name)
	cg.emit(vm.Inst{Op: vm.OpOr, RD: rd, RA: vm.RegRet, RB: vm.RegRet})
	for i := 0; i < depth; i++ {
		cg.emit(vm.Inst{Op: vm.OpLwz, RD: uint8(scratchBase + i), RA: vm.RegSP, Imm: int32(spillBase + i*4)})
	}
	return rd, nil
}

func (cg *codegen) genBuiltin(ex *Call, depth int) (uint8, error) {
	rd, err := reg(depth)
	if err != nil {
		return 0, err
	}
	emitSc := func(n int32) {
		cg.emit(vm.Inst{Op: vm.OpAddi, RD: vm.RegSys, RA: vm.RegZero, Imm: n})
		cg.emit(vm.Inst{Op: vm.OpSc})
	}
	switch ex.Name {
	case "read_int":
		emitSc(vm.SysReadInt)
		cg.emit(vm.Inst{Op: vm.OpOr, RD: rd, RA: vm.RegRet, RB: vm.RegRet})
	case "read_char":
		emitSc(vm.SysReadChar)
		cg.emit(vm.Inst{Op: vm.OpOr, RD: rd, RA: vm.RegRet, RB: vm.RegRet})
	case "print_int", "print_char", "exit", "malloc":
		if _, err := cg.genExpr(ex.Args[0], depth); err != nil {
			return 0, err
		}
		cg.emit(vm.Inst{Op: vm.OpOr, RD: vm.RegRet, RA: rd, RB: rd})
		switch ex.Name {
		case "print_int":
			emitSc(vm.SysWriteInt)
		case "print_char":
			emitSc(vm.SysWriteChar)
		case "exit":
			emitSc(vm.SysExit)
		case "malloc":
			emitSc(vm.SysBrk)
			cg.emit(vm.Inst{Op: vm.OpOr, RD: rd, RA: vm.RegRet, RB: vm.RegRet})
		}
	case "free":
		// Evaluate the argument for effect; the bump allocator never
		// reclaims (documented substitution).
		if _, err := cg.genExpr(ex.Args[0], depth); err != nil {
			return 0, err
		}
	default:
		return 0, fmt.Errorf("cc: unknown builtin %s", ex.Name)
	}
	return rd, nil
}

// resolve converts pending debug records into address-based DebugInfo.
func (cg *codegen) resolve(prog *asm.Program) (*DebugInfo, error) {
	lookup := func(lbl string) (uint32, error) {
		if lbl == "" {
			return 0, nil
		}
		s, ok := prog.Lookup(lbl)
		if !ok {
			return 0, fmt.Errorf("cc: internal: unresolved debug label %q", lbl)
		}
		return s.Addr, nil
	}
	d := &DebugInfo{}
	for _, a := range cg.assigns {
		d.Assigns = append(d.Assigns, AssignInfo{
			Func: a.fn, Line: a.line, Col: a.col, LHS: a.lhs,
			StoreAddr: asm.TextAddr(a.storeIdx), StoreByte: a.storeByte,
			ValueStart:   asm.TextAddr(a.valueStart),
			InLoopHeader: a.inHeader,
		})
	}
	for _, c := range cg.checks {
		taken, err := lookup(c.takenLbl)
		if err != nil {
			return nil, err
		}
		alt, err := lookup(c.altLbl)
		if err != nil {
			return nil, err
		}
		ci := CheckInfo{
			Func: c.fn, Line: c.line, Col: c.col, Op: c.op,
			BcAddr: asm.TextAddr(c.bcIdx), BcCond: c.cond, Negated: c.negated,
			TakenAddr: taken, FallAddr: asm.TextAddr(c.fallIdx),
			AltAddr: alt, AltCond: c.altCond,
		}
		if c.cmpIdx >= 0 {
			ci.CmpAddr = asm.TextAddr(c.cmpIdx)
		}
		for _, l := range c.loads {
			ci.ArrayLoads = append(ci.ArrayLoads, ArrayLoad{Addr: asm.TextAddr(l.idx), ElemSize: l.elemSize})
		}
		d.Checks = append(d.Checks, ci)
	}
	for _, f := range cg.funcs {
		d.Funcs = append(d.Funcs, FuncInfo{
			Name: f.name, Entry: asm.TextAddr(f.entryIdx), End: asm.TextAddr(f.endIdx),
			FrameSize: f.frameSize, Locals: f.locals, Line: f.line,
		})
	}
	for _, s := range cg.spans {
		d.Spans = append(d.Spans, StmtSpan{
			Func: s.fn, Line: s.line,
			Start: asm.TextAddr(s.start), End: asm.TextAddr(s.end),
		})
	}
	return d, nil
}

// CondFor exposes the branch-condition encoding used by the code generator:
// it returns the vm condition that tests "op holds" (negated=false) or "op
// does not hold" (negated=true). The fault locator uses it to build mutated
// branch instructions for the checking error types.
func CondFor(op string, negated bool) (vm.Cond, bool) {
	return condForOp(op, negated)
}
