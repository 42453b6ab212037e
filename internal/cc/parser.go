package cc

// parser implements recursive-descent parsing with precedence climbing for
// expressions.
type parser struct {
	toks []token
	pos  int
}

// Parse parses a translation unit.
func Parse(src string) (*File, error) {
	toks, err := lexAll(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	f := &File{}
	for p.peek().kind != tokEOF {
		if err := p.parseTopLevel(f); err != nil {
			return nil, err
		}
	}
	return f, nil
}

func (p *parser) peek() token { return p.toks[p.pos] }
func (p *parser) peek2() token {
	if p.pos+1 < len(p.toks) {
		return p.toks[p.pos+1]
	}
	return p.toks[len(p.toks)-1]
}

func (p *parser) advance() token {
	t := p.toks[p.pos]
	if p.pos+1 < len(p.toks) {
		p.pos++
	}
	return t
}

func (p *parser) expect(k tokKind) (token, error) {
	t := p.peek()
	if t.kind != k {
		return t, errf(t.line, t.col, "expected %s, found %s", k, describe(t))
	}
	return p.advance(), nil
}

func describe(t token) string {
	switch t.kind {
	case tokIdent:
		return "identifier " + t.text
	case tokNumber:
		return "number " + t.text
	default:
		return t.kind.String()
	}
}

func (p *parser) accept(k tokKind) bool {
	if p.peek().kind == k {
		p.advance()
		return true
	}
	return false
}

// parseBaseType parses int/char/void plus pointer stars.
func (p *parser) parseBaseType() (*Type, error) {
	t := p.peek()
	var base *Type
	switch t.kind {
	case tokInt:
		base = IntType
	case tokChar_:
		base = CharType
	case tokVoid:
		base = VoidType
	default:
		return nil, errf(t.line, t.col, "expected type, found %s", describe(t))
	}
	p.advance()
	for p.accept(tokStar) {
		base = &Type{Kind: TypePointer, Elem: base}
	}
	return base, nil
}

func isTypeStart(k tokKind) bool {
	return k == tokInt || k == tokChar_ || k == tokVoid
}

// parseTopLevel parses one global declaration or function definition.
func (p *parser) parseTopLevel(f *File) error {
	start := p.peek()
	typ, err := p.parseBaseType()
	if err != nil {
		return err
	}
	name, err := p.expect(tokIdent)
	if err != nil {
		return err
	}
	if p.peek().kind == tokLParen {
		fn, err := p.parseFuncRest(typ, name)
		if err != nil {
			return err
		}
		f.Funcs = append(f.Funcs, fn)
		return nil
	}
	// Global variable(s).
	if typ.Kind == TypeVoid {
		return errf(start.line, start.col, "variable %s has void type", name.text)
	}
	for {
		decl, err := p.parseDeclRest(typ, name, true)
		if err != nil {
			return err
		}
		decl.IsGlobal = true
		f.Globals = append(f.Globals, decl)
		if p.accept(tokComma) {
			name, err = p.expect(tokIdent)
			if err != nil {
				return err
			}
			continue
		}
		_, err = p.expect(tokSemi)
		return err
	}
}

// parseDeclRest parses the array suffix and initialiser of a declaration
// whose base type and name have been consumed.
func (p *parser) parseDeclRest(base *Type, name token, global bool) (*VarDecl, error) {
	typ := base
	var dims []int32
	for p.accept(tokLBracket) {
		n, err := p.expect(tokNumber)
		if err != nil {
			return nil, err
		}
		if n.val <= 0 {
			return nil, errf(n.line, n.col, "array dimension must be positive")
		}
		dims = append(dims, n.val)
		if _, err := p.expect(tokRBracket); err != nil {
			return nil, err
		}
	}
	size := int64(base.Size())
	for _, n := range dims {
		if size *= int64(n); size > imageLimit {
			return nil, errf(name.line, name.col, "array %s is larger than the VM's %d-byte load limit", name.text, imageLimit)
		}
	}
	for i := len(dims) - 1; i >= 0; i-- {
		typ = &Type{Kind: TypeArray, Elem: typ, Len: dims[i]}
	}
	d := &VarDecl{Name: name.text, Type: typ, Line: name.line}
	if p.accept(tokAssign) {
		if typ.Kind == TypeArray {
			return nil, errf(name.line, name.col, "array initialisers are not supported")
		}
		e, err := p.parseAssignExpr()
		if err != nil {
			return nil, err
		}
		d.Init = e
	}
	return d, nil
}

// parseFuncRest parses a function definition after its return type and name.
func (p *parser) parseFuncRest(ret *Type, name token) (*FuncDecl, error) {
	if _, err := p.expect(tokLParen); err != nil {
		return nil, err
	}
	fn := &FuncDecl{Name: name.text, Ret: ret, Line: name.line}
	if !p.accept(tokRParen) {
		if p.peek().kind == tokVoid && p.peek2().kind == tokRParen {
			p.advance()
			p.advance()
		} else {
			for {
				ptype, err := p.parseBaseType()
				if err != nil {
					return nil, err
				}
				pname, err := p.expect(tokIdent)
				if err != nil {
					return nil, err
				}
				if ptype.Kind == TypeVoid {
					return nil, errf(pname.line, pname.col, "parameter %s has void type", pname.text)
				}
				// Array parameters decay to pointers.
				for p.accept(tokLBracket) {
					if p.peek().kind == tokNumber {
						p.advance()
					}
					if _, err := p.expect(tokRBracket); err != nil {
						return nil, err
					}
					ptype = &Type{Kind: TypePointer, Elem: ptype}
				}
				fn.Params = append(fn.Params, &VarDecl{Name: pname.text, Type: ptype, Line: pname.line})
				if !p.accept(tokComma) {
					break
				}
			}
			if _, err := p.expect(tokRParen); err != nil {
				return nil, err
			}
		}
	}
	body, err := p.parseBlock()
	if err != nil {
		return nil, err
	}
	fn.Body = body
	return fn, nil
}

func (p *parser) parseBlock() (*Block, error) {
	lb, err := p.expect(tokLBrace)
	if err != nil {
		return nil, err
	}
	b := &Block{Line: lb.line}
	for !p.accept(tokRBrace) {
		if p.peek().kind == tokEOF {
			return nil, errf(lb.line, lb.col, "unterminated block")
		}
		s, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		b.Stmts = append(b.Stmts, s)
	}
	return b, nil
}

func (p *parser) parseStmt() (Stmt, error) {
	t := p.peek()
	switch t.kind {
	case tokLBrace:
		return p.parseBlock()
	case tokIf:
		p.advance()
		if _, err := p.expect(tokLParen); err != nil {
			return nil, err
		}
		cond, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokRParen); err != nil {
			return nil, err
		}
		then, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		var els Stmt
		if p.accept(tokElse) {
			els, err = p.parseStmt()
			if err != nil {
				return nil, err
			}
		}
		return &If{Cond: cond, Then: then, Else: els, Line: t.line}, nil
	case tokWhile:
		p.advance()
		if _, err := p.expect(tokLParen); err != nil {
			return nil, err
		}
		cond, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokRParen); err != nil {
			return nil, err
		}
		body, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		return &While{Cond: cond, Body: body, Line: t.line}, nil
	case tokFor:
		p.advance()
		if _, err := p.expect(tokLParen); err != nil {
			return nil, err
		}
		f := &For{Line: t.line}
		if !p.accept(tokSemi) {
			init, err := p.parseSimpleStmt()
			if err != nil {
				return nil, err
			}
			f.Init = init
			if _, err := p.expect(tokSemi); err != nil {
				return nil, err
			}
		}
		if !p.accept(tokSemi) {
			cond, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			f.Cond = cond
			if _, err := p.expect(tokSemi); err != nil {
				return nil, err
			}
		}
		if p.peek().kind != tokRParen {
			post, err := p.parseSimpleStmt()
			if err != nil {
				return nil, err
			}
			f.Post = post
		}
		if _, err := p.expect(tokRParen); err != nil {
			return nil, err
		}
		body, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		f.Body = body
		return f, nil
	case tokReturn:
		p.advance()
		r := &Return{Line: t.line}
		if !p.accept(tokSemi) {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			r.E = e
			if _, err := p.expect(tokSemi); err != nil {
				return nil, err
			}
		}
		return r, nil
	case tokBreak:
		p.advance()
		if _, err := p.expect(tokSemi); err != nil {
			return nil, err
		}
		return &Break{Line: t.line}, nil
	case tokContinue:
		p.advance()
		if _, err := p.expect(tokSemi); err != nil {
			return nil, err
		}
		return &Continue{Line: t.line}, nil
	case tokSemi:
		p.advance()
		return &Block{Line: t.line}, nil
	}
	if isTypeStart(t.kind) {
		typ, err := p.parseBaseType()
		if err != nil {
			return nil, err
		}
		if typ.Kind == TypeVoid {
			return nil, errf(t.line, t.col, "variable has void type")
		}
		name, err := p.expect(tokIdent)
		if err != nil {
			return nil, err
		}
		// Multiple declarators per line are split into one DeclStmt each
		// wrapped in a synthetic scope-transparent block.
		blk := &Block{Line: t.line, NoScope: true}
		for {
			d, err := p.parseDeclRest(typ, name, false)
			if err != nil {
				return nil, err
			}
			blk.Stmts = append(blk.Stmts, &DeclStmt{Decl: d, Line: d.Line})
			if p.accept(tokComma) {
				name, err = p.expect(tokIdent)
				if err != nil {
					return nil, err
				}
				continue
			}
			break
		}
		if _, err := p.expect(tokSemi); err != nil {
			return nil, err
		}
		if len(blk.Stmts) == 1 {
			return blk.Stmts[0], nil
		}
		return blk, nil
	}
	s, err := p.parseSimpleStmt()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tokSemi); err != nil {
		return nil, err
	}
	return s, nil
}

// parseSimpleStmt parses an expression statement (used bare and in for
// clauses).
func (p *parser) parseSimpleStmt() (Stmt, error) {
	t := p.peek()
	e, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	return &ExprStmt{E: e, Line: t.line}, nil
}

// Expression grammar, lowest to highest precedence:
//
//	assign:  unary (= | += | -=) assign | ternary
//	ternary: or (? expr : ternary)?
//	or:      and (|| and)*
//	and:     eq (&& eq)*
//	eq:      rel ((==|!=) rel)*
//	rel:     add ((<|<=|>|>=) add)*
//	add:     mul ((+|-) mul)*
//	mul:     unary ((*|/|%) unary)*
//	unary:   (-|!|*|&) unary | postfix (++|--)? ...
func (p *parser) parseExpr() (Expr, error) { return p.parseAssignExpr() }

func (p *parser) parseAssignExpr() (Expr, error) {
	lhs, err := p.parseTernary()
	if err != nil {
		return nil, err
	}
	t := p.peek()
	switch t.kind {
	case tokAssign:
		p.advance()
		rhs, err := p.parseAssignExpr()
		if err != nil {
			return nil, err
		}
		return &Assign{exprBase: exprBase{Line: t.line, Col: t.col}, LHS: lhs, RHS: rhs}, nil
	case tokPlusEq, tokMinusEq:
		p.advance()
		rhs, err := p.parseAssignExpr()
		if err != nil {
			return nil, err
		}
		op := "+"
		if t.kind == tokMinusEq {
			op = "-"
		}
		sum := &Binary{exprBase: exprBase{Line: t.line, Col: t.col}, Op: op, X: lhs, Y: rhs}
		return &Assign{exprBase: exprBase{Line: t.line, Col: t.col}, LHS: lhs, RHS: sum}, nil
	}
	return lhs, nil
}

func (p *parser) parseTernary() (Expr, error) {
	c, err := p.parseBinary(0)
	if err != nil {
		return nil, err
	}
	if t := p.peek(); t.kind == tokQuestion {
		p.advance()
		tv, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokColon); err != nil {
			return nil, err
		}
		fv, err := p.parseTernary()
		if err != nil {
			return nil, err
		}
		return &CondExpr{exprBase: exprBase{Line: t.line, Col: t.col}, C: c, T: tv, F: fv}, nil
	}
	return c, nil
}

// binOpLevels lists binary operators by ascending precedence level.
var binOpLevels = [][]struct {
	k  tokKind
	op string
}{
	{{tokOrOr, "||"}},
	{{tokAndAnd, "&&"}},
	{{tokEq, "=="}, {tokNe, "!="}},
	{{tokLt, "<"}, {tokLe, "<="}, {tokGt, ">"}, {tokGe, ">="}},
	{{tokPlus, "+"}, {tokMinus, "-"}},
	{{tokStar, "*"}, {tokSlash, "/"}, {tokPercent, "%"}},
}

func (p *parser) parseBinary(level int) (Expr, error) {
	if level >= len(binOpLevels) {
		return p.parseUnary()
	}
	lhs, err := p.parseBinary(level + 1)
	if err != nil {
		return nil, err
	}
	for {
		t := p.peek()
		matched := ""
		for _, cand := range binOpLevels[level] {
			if t.kind == cand.k {
				matched = cand.op
				break
			}
		}
		if matched == "" {
			return lhs, nil
		}
		p.advance()
		rhs, err := p.parseBinary(level + 1)
		if err != nil {
			return nil, err
		}
		lhs = &Binary{exprBase: exprBase{Line: t.line, Col: t.col}, Op: matched, X: lhs, Y: rhs}
	}
}

func (p *parser) parseUnary() (Expr, error) {
	t := p.peek()
	switch t.kind {
	case tokMinus:
		p.advance()
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &Unary{exprBase: exprBase{Line: t.line, Col: t.col}, Op: "-", X: x}, nil
	case tokNot:
		p.advance()
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &Unary{exprBase: exprBase{Line: t.line, Col: t.col}, Op: "!", X: x}, nil
	case tokStar:
		p.advance()
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &Unary{exprBase: exprBase{Line: t.line, Col: t.col}, Op: "*", X: x}, nil
	case tokAmp:
		p.advance()
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &Unary{exprBase: exprBase{Line: t.line, Col: t.col}, Op: "&", X: x}, nil
	case tokPlusPlus, tokMinusMinus:
		// Prefix ++x / --x desugar to x = x +/- 1.
		p.advance()
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return incDec(x, t), nil
	}
	return p.parsePostfix()
}

// incDec builds the x = x ± 1 desugaring of ++/--.
func incDec(x Expr, t token) Expr {
	op := "+"
	if t.kind == tokMinusMinus {
		op = "-"
	}
	one := &IntLit{exprBase: exprBase{Line: t.line, Col: t.col}, Val: 1}
	sum := &Binary{exprBase: exprBase{Line: t.line, Col: t.col}, Op: op, X: x, Y: one}
	return &Assign{exprBase: exprBase{Line: t.line, Col: t.col}, LHS: x, RHS: sum}
}

func (p *parser) parsePostfix() (Expr, error) {
	e, err := p.parsePrimary()
	if err != nil {
		return nil, err
	}
	for {
		t := p.peek()
		switch t.kind {
		case tokLBracket:
			p.advance()
			idx, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(tokRBracket); err != nil {
				return nil, err
			}
			e = &Index{exprBase: exprBase{Line: t.line, Col: t.col}, X: e, Idx: idx}
		case tokPlusPlus, tokMinusMinus:
			// Postfix ++/-- is only supported in statement position, where
			// its value is discarded, so the prefix desugaring is
			// equivalent. Sema rejects value uses.
			p.advance()
			e = incDec(e, t)
		default:
			return e, nil
		}
	}
}

func (p *parser) parsePrimary() (Expr, error) {
	t := p.peek()
	switch t.kind {
	case tokNumber, tokChar:
		p.advance()
		return &IntLit{exprBase: exprBase{Line: t.line, Col: t.col}, Val: t.val}, nil
	case tokString:
		p.advance()
		return &StrLit{exprBase: exprBase{Line: t.line, Col: t.col}, Val: t.str}, nil
	case tokLParen:
		p.advance()
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokRParen); err != nil {
			return nil, err
		}
		return e, nil
	case tokIdent:
		p.advance()
		if p.peek().kind == tokLParen {
			p.advance()
			call := &Call{exprBase: exprBase{Line: t.line, Col: t.col}, Name: t.text}
			if !p.accept(tokRParen) {
				for {
					a, err := p.parseAssignExpr()
					if err != nil {
						return nil, err
					}
					call.Args = append(call.Args, a)
					if !p.accept(tokComma) {
						break
					}
				}
				if _, err := p.expect(tokRParen); err != nil {
					return nil, err
				}
			}
			return call, nil
		}
		return &Ident{exprBase: exprBase{Line: t.line, Col: t.col}, Name: t.text}, nil
	}
	return nil, errf(t.line, t.col, "expected expression, found %s", describe(t))
}
