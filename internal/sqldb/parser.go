package sqldb

import (
	"fmt"
	"strconv"
	"strings"
)

// parser is a recursive-descent parser over the token stream.
type parser struct {
	toks []token
	pos  int
	src  string
	// vals, when set, are the statement's literal values by slot, and the
	// parser lifts the literals it may into Params: the literal in slot i
	// becomes Param i, and the n-th `?` Param len(vals)+n. lift is off
	// inside scalar and IN subqueries; lifted marks the slots a Param
	// holds, neg those a unary minus negates. nuser counts the `?`s.
	vals        []Datum
	lift        bool
	lifted, neg []bool
	nuser       int
}

// Parse parses a single SQL statement.
func Parse(src string) (Stmt, error) {
	stmts, err := ParseMulti(src)
	if err != nil {
		return nil, err
	}
	if len(stmts) != 1 {
		return nil, fmt.Errorf("sqldb: expected one statement, got %d", len(stmts))
	}
	return stmts[0], nil
}

// ParseMulti parses a semicolon-separated statement list.
func ParseMulti(src string) ([]Stmt, error) {
	_, stmts, err := parse(src, nil)
	return stmts, err
}

// parseTemplate parses the one statement in src into a template. With
// vals, the values of src's literals by slot, it lifts each literal that
// shapes neither the plan nor a column's name into a Param (cache.go).
func parseTemplate(src string, vals []Datum) (*template, error) {
	p, stmts, err := parse(src, vals)
	if err != nil {
		return nil, err
	}
	if len(stmts) != 1 {
		return nil, fmt.Errorf("sqldb: expected one statement, got %d", len(stmts))
	}
	return newTemplate(stmts[0], p), nil
}

func parse(src string, vals []Datum) (*parser, []Stmt, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, nil, err
	}
	p := &parser{toks: toks, src: src, vals: vals, lift: vals != nil, lifted: make([]bool, len(vals)), neg: make([]bool, len(vals))}
	var out []Stmt
	for {
		for p.isOp(";") {
			p.pos++
		}
		if p.cur().kind == tokEOF {
			break
		}
		s, err := p.parseStmt()
		if err != nil {
			return nil, nil, err
		}
		out = append(out, s)
		if !p.isOp(";") && p.cur().kind != tokEOF {
			return nil, nil, p.errf("expected ';' or end of input, got %q", p.cur())
		}
	}
	if len(out) == 0 {
		return nil, nil, fmt.Errorf("sqldb: empty statement")
	}
	return p, out, nil
}

// fix turns the lifted literals in e back into literals, which another text
// must match: e's text names a column, or e is a position.
func (p *parser) fix(e Expr) Expr {
	if p.vals == nil {
		return e
	}
	out, _ := Rewrite(e, bindParams(func(i int) (Datum, bool) {
		if i >= len(p.vals) {
			return Datum{}, false
		}
		p.lifted[i] = false
		return signed(p.vals[i], p.neg[i]), true
	}))
	return out
}

// parseSubquery parses the SELECT of a scalar or IN subquery. Its literals
// stay: the planner folds the subquery into values before the plan exists.
func (p *parser) parseSubquery() (*SelectStmt, error) {
	lift := p.lift
	p.lift = false
	sel, err := p.parseSelect()
	p.lift = lift
	return sel, err
}

func (p *parser) cur() token { return p.toks[p.pos] }
func (p *parser) peek() token {
	if p.pos+1 < len(p.toks) {
		return p.toks[p.pos+1]
	}
	return token{kind: tokEOF}
}

func (p *parser) errf(format string, args ...any) error {
	return fmt.Errorf("sqldb: parse error near position %d: %s", p.cur().pos, fmt.Sprintf(format, args...))
}

// isKw reports whether the current token is the given keyword
// (case-insensitive), without consuming it.
func (p *parser) isKw(kw string) bool { return p.cur().is(kw) }

func (p *parser) eatKw(kw string) bool {
	if p.isKw(kw) {
		p.pos++
		return true
	}
	return false
}

func (p *parser) expectKw(kw string) error {
	if !p.eatKw(kw) {
		return p.errf("expected %s, got %q", strings.ToUpper(kw), p.cur())
	}
	return nil
}

func (p *parser) isOp(op string) bool {
	t := p.cur()
	return t.kind == tokOp && t.text == op
}

func (p *parser) eatOp(op string) bool {
	if p.isOp(op) {
		p.pos++
		return true
	}
	return false
}

func (p *parser) expectOp(op string) error {
	if !p.eatOp(op) {
		return p.errf("expected %q, got %q", op, p.cur())
	}
	return nil
}

func (p *parser) ident() (string, error) {
	t := p.cur()
	if t.kind != tokIdent {
		return "", p.errf("expected identifier, got %q", t)
	}
	p.pos++
	return t.text, nil
}

func (p *parser) parseStmt() (Stmt, error) {
	switch {
	case p.isKw("select"):
		return p.parseSelect()
	case p.isKw("create"):
		return p.parseCreate()
	case p.isKw("insert"):
		return p.parseInsert()
	case p.isKw("update"):
		return p.parseUpdate()
	case p.isKw("delete"):
		return p.parseDelete()
	case p.isKw("drop"):
		return p.parseDrop()
	case p.isKw("explain"):
		p.pos++
		analyze := p.eatKw("analyze")
		sel, err := p.parseSelect()
		if err != nil {
			return nil, err
		}
		return &ExplainStmt{Query: sel, Analyze: analyze}, nil
	}
	return nil, p.errf("unexpected statement start %q", p.cur())
}

func (p *parser) parseCreate() (Stmt, error) {
	p.pos++ // CREATE
	orReplace := false
	if p.eatKw("or") {
		if err := p.expectKw("replace"); err != nil {
			return nil, err
		}
		orReplace = true
	}
	temp := p.eatKw("temp") || p.eatKw("temporary")
	switch {
	case p.eatKw("table"):
		st := &CreateTableStmt{Temp: temp}
		if p.eatKw("if") {
			if err := p.expectKw("not"); err != nil {
				return nil, err
			}
			if err := p.expectKw("exists"); err != nil {
				return nil, err
			}
			st.IfNotExists = true
		}
		name, err := p.ident()
		if err != nil {
			return nil, err
		}
		st.Name = name
		switch {
		case p.eatKw("as"):
			sel, err := p.parseSelectMaybeParen()
			if err != nil {
				return nil, err
			}
			st.As = sel
		case p.isOp("("):
			// Either a column list or the paper's `CREATE TEMP TABLE t(SELECT ...)`.
			p.pos++
			if p.isKw("select") {
				sel, err := p.parseSelect()
				if err != nil {
					return nil, err
				}
				st.As = sel
				if err := p.expectOp(")"); err != nil {
					return nil, err
				}
			} else {
				for {
					cn, err := p.ident()
					if err != nil {
						return nil, err
					}
					tn, err := p.ident()
					if err != nil {
						return nil, err
					}
					ct, err := ParseType(tn)
					if err != nil {
						return nil, err
					}
					st.Cols = append(st.Cols, ColumnDef{Name: cn, Type: ct})
					if !p.eatOp(",") {
						break
					}
				}
				if err := p.expectOp(")"); err != nil {
					return nil, err
				}
				// Optional trailing AS SELECT even with explicit columns.
				if p.eatKw("as") {
					sel, err := p.parseSelectMaybeParen()
					if err != nil {
						return nil, err
					}
					st.As = sel
				}
			}
		default:
			return nil, p.errf("expected column list or AS SELECT after table name")
		}
		return st, nil
	case p.eatKw("view"):
		name, err := p.ident()
		if err != nil {
			return nil, err
		}
		st := &CreateViewStmt{Name: name, OrReplace: orReplace}
		switch {
		case p.eatKw("as"):
			sel, err := p.parseSelectMaybeParen()
			if err != nil {
				return nil, err
			}
			st.As = sel
		case p.isOp("("):
			p.pos++
			sel, err := p.parseSelect()
			if err != nil {
				return nil, err
			}
			st.As = sel
			if err := p.expectOp(")"); err != nil {
				return nil, err
			}
		default:
			return nil, p.errf("expected AS SELECT after view name")
		}
		return st, nil
	}
	return nil, p.errf("expected TABLE or VIEW after CREATE")
}

// parseSelectMaybeParen parses `SELECT ...` or `(SELECT ...)`.
func (p *parser) parseSelectMaybeParen() (*SelectStmt, error) {
	if p.eatOp("(") {
		sel, err := p.parseSelect()
		if err != nil {
			return nil, err
		}
		if err := p.expectOp(")"); err != nil {
			return nil, err
		}
		return sel, nil
	}
	return p.parseSelect()
}

func (p *parser) parseSelect() (*SelectStmt, error) {
	if err := p.expectKw("select"); err != nil {
		return nil, err
	}
	st := &SelectStmt{Limit: -1}
	st.Distinct = p.eatKw("distinct")
	for {
		if p.isOp("*") {
			p.pos++
			st.Items = append(st.Items, SelectItem{Star: true})
		} else {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			item := SelectItem{Expr: e}
			if p.eatKw("as") {
				a, err := p.ident()
				if err != nil {
					return nil, err
				}
				item.Alias = a
			} else if p.cur().kind == tokIdent && !p.isSelectTerminator() {
				// bare alias
				item.Alias = p.cur().text
				p.pos++
			}
			if item.Alias == "" {
				item.Expr = p.fix(item.Expr) // the column is named by its text
			}
			st.Items = append(st.Items, item)
		}
		if !p.eatOp(",") {
			break
		}
	}
	if p.eatKw("from") {
		from, err := p.parseFrom()
		if err != nil {
			return nil, err
		}
		st.From = from
	}
	if p.eatKw("where") {
		w, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		st.Where = w
	}
	if p.eatKw("group") {
		if err := p.expectKw("by"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseOrdinal()
			if err != nil {
				return nil, err
			}
			st.GroupBy = append(st.GroupBy, e)
			if !p.eatOp(",") {
				break
			}
		}
	}
	if p.eatKw("having") {
		h, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		st.Having = h
	}
	if p.eatKw("order") {
		if err := p.expectKw("by"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseOrdinal()
			if err != nil {
				return nil, err
			}
			item := OrderItem{Expr: e}
			if p.eatKw("desc") {
				item.Desc = true
			} else {
				p.eatKw("asc")
			}
			st.OrderBy = append(st.OrderBy, item)
			if !p.eatOp(",") {
				break
			}
		}
	}
	if p.eatKw("limit") {
		n, err := p.intLit()
		if err != nil {
			return nil, err
		}
		st.Limit = n
	}
	if p.eatKw("offset") {
		n, err := p.intLit()
		if err != nil {
			return nil, err
		}
		st.Offset = n
	}
	for p.isKw("union") {
		p.pos++
		if err := p.expectKw("all"); err != nil {
			return nil, fmt.Errorf("%w (only UNION ALL is supported)", err)
		}
		next, err := p.parseSelect()
		if err != nil {
			return nil, err
		}
		// Flatten right-nested unions onto this statement.
		st.UnionAll = append(st.UnionAll, next)
		st.UnionAll = append(st.UnionAll, next.UnionAll...)
		next.UnionAll = nil
	}
	return st, nil
}

// parseOrdinal parses an ORDER BY or GROUP BY key. A literal key stays a
// literal: an integer one is a position in the SELECT list.
func (p *parser) parseOrdinal() (Expr, error) {
	e, err := p.parseExpr()
	if _, ok := e.(*Param); ok {
		e = p.fix(e)
	}
	return e, err
}

// isSelectTerminator reports whether the current identifier is a clause
// keyword rather than a bare alias.
func (p *parser) isSelectTerminator() bool {
	for _, kw := range []string{"from", "where", "group", "having", "order", "limit", "offset", "as", "inner", "left", "outer", "join", "on", "union"} {
		if p.isKw(kw) {
			return true
		}
	}
	return false
}

func (p *parser) intLit() (int, error) {
	t := p.cur()
	if t.kind != tokNumber {
		return 0, p.errf("expected integer, got %q", t)
	}
	n, err := strconv.Atoi(t.text)
	if err != nil {
		return 0, p.errf("bad integer %q", t.text)
	}
	p.pos++
	return n, nil
}

func (p *parser) parseFrom() (*TableRef, error) {
	left, err := p.parseTableAtom()
	if err != nil {
		return nil, err
	}
	for {
		switch {
		case p.eatOp(","):
			right, err := p.parseTableAtom()
			if err != nil {
				return nil, err
			}
			left = &TableRef{Join: &JoinRef{L: left, R: right}}
		case p.isKw("inner") || p.isKw("join") || p.isKw("left"):
			isLeft := p.eatKw("left")
			if isLeft {
				p.eatKw("outer")
			} else {
				p.eatKw("inner")
			}
			if err := p.expectKw("join"); err != nil {
				return nil, err
			}
			right, err := p.parseTableAtom()
			if err != nil {
				return nil, err
			}
			var cond Expr
			if p.eatKw("on") {
				cond, err = p.parseExpr()
				if err != nil {
					return nil, err
				}
			}
			left = &TableRef{Join: &JoinRef{L: left, R: right, Cond: cond, Left: isLeft}}
		default:
			return left, nil
		}
	}
}

func (p *parser) parseTableAtom() (*TableRef, error) {
	if p.eatOp("(") {
		sel, err := p.parseSelect()
		if err != nil {
			return nil, err
		}
		if err := p.expectOp(")"); err != nil {
			return nil, err
		}
		ref := &TableRef{Sub: sel}
		p.eatKw("as")
		if p.cur().kind == tokIdent && !p.isFromTerminator() {
			ref.Alias = p.cur().text
			p.pos++
		}
		return ref, nil
	}
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	alias := name
	if p.eatOp(".") {
		// Dotted table name (catalog-qualified, e.g. sys.queries). The full
		// dotted string is the table name; the default alias is the last
		// segment so `SELECT queries.sql FROM sys.queries` resolves.
		part, err := p.ident()
		if err != nil {
			return nil, err
		}
		name = name + "." + part
		alias = part
	}
	ref := &TableRef{Table: name, Alias: alias}
	if p.eatKw("as") {
		a, err := p.ident()
		if err != nil {
			return nil, err
		}
		ref.Alias = a
	} else if p.cur().kind == tokIdent && !p.isFromTerminator() {
		ref.Alias = p.cur().text
		p.pos++
	}
	return ref, nil
}

func (p *parser) isFromTerminator() bool {
	for _, kw := range []string{"where", "group", "having", "order", "limit", "offset", "inner", "left", "outer", "join", "on", "union"} {
		if p.isKw(kw) {
			return true
		}
	}
	return false
}

func (p *parser) parseInsert() (Stmt, error) {
	p.pos++ // INSERT
	if err := p.expectKw("into"); err != nil {
		return nil, err
	}
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	st := &InsertStmt{Table: name}
	if p.isOp("(") {
		// Could be a column list or `INSERT INTO t (SELECT ...)`.
		save := p.pos
		p.pos++
		if p.isKw("select") {
			sel, err := p.parseSelect()
			if err != nil {
				return nil, err
			}
			if err := p.expectOp(")"); err != nil {
				return nil, err
			}
			st.Query = sel
			return st, nil
		}
		p.pos = save
		p.pos++ // consume '('
		for {
			c, err := p.ident()
			if err != nil {
				return nil, err
			}
			st.Cols = append(st.Cols, c)
			if !p.eatOp(",") {
				break
			}
		}
		if err := p.expectOp(")"); err != nil {
			return nil, err
		}
	}
	switch {
	case p.eatKw("values"):
		for {
			if err := p.expectOp("("); err != nil {
				return nil, err
			}
			var row []Expr
			for {
				e, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				row = append(row, e)
				if !p.eatOp(",") {
					break
				}
			}
			if err := p.expectOp(")"); err != nil {
				return nil, err
			}
			st.Values = append(st.Values, row)
			if !p.eatOp(",") {
				break
			}
		}
	case p.isKw("select"):
		sel, err := p.parseSelect()
		if err != nil {
			return nil, err
		}
		st.Query = sel
	default:
		return nil, p.errf("expected VALUES or SELECT in INSERT")
	}
	return st, nil
}

func (p *parser) parseUpdate() (Stmt, error) {
	p.pos++ // UPDATE
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	if err := p.expectKw("set"); err != nil {
		return nil, err
	}
	st := &UpdateStmt{Table: name, Set: map[string]Expr{}}
	for {
		col, err := p.ident()
		if err != nil {
			return nil, err
		}
		if err := p.expectOp("="); err != nil {
			return nil, err
		}
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		st.Set[strings.ToLower(col)] = e
		if !p.eatOp(",") {
			break
		}
	}
	if p.eatKw("where") {
		w, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		st.Where = w
	}
	return st, nil
}

func (p *parser) parseDelete() (Stmt, error) {
	p.pos++ // DELETE
	if err := p.expectKw("from"); err != nil {
		return nil, err
	}
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	st := &DeleteStmt{Table: name}
	if p.eatKw("where") {
		w, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		st.Where = w
	}
	return st, nil
}

func (p *parser) parseDrop() (Stmt, error) {
	p.pos++ // DROP
	st := &DropStmt{}
	switch {
	case p.eatKw("table"):
	case p.eatKw("view"):
		st.View = true
	default:
		return nil, p.errf("expected TABLE or VIEW after DROP")
	}
	if p.eatKw("if") {
		if err := p.expectKw("exists"); err != nil {
			return nil, err
		}
		st.IfExists = true
	}
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	st.Name = name
	return st, nil
}

// ---- Expression parsing (precedence climbing) ----

func (p *parser) parseExpr() (Expr, error) { return p.parseOr() }

func (p *parser) parseOr() (Expr, error) {
	l, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.eatKw("or") {
		r, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		l = &BinExpr{Op: "or", L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseAnd() (Expr, error) {
	l, err := p.parseNot()
	if err != nil {
		return nil, err
	}
	for p.eatKw("and") {
		r, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		l = &BinExpr{Op: "and", L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseNot() (Expr, error) {
	if p.eatKw("not") {
		e, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		return &UnaryExpr{Op: "not", E: e}, nil
	}
	return p.parseComparison()
}

func (p *parser) parseComparison() (Expr, error) {
	l, err := p.parseAdditive()
	if err != nil {
		return nil, err
	}
	// IS [NOT] NULL
	if p.eatKw("is") {
		not := p.eatKw("not")
		if err := p.expectKw("null"); err != nil {
			return nil, err
		}
		return &IsNullExpr{E: l, Not: not}, nil
	}
	// [NOT] IN / BETWEEN
	not := false
	if p.isKw("not") && (strings.EqualFold(p.peek().text, "in") || strings.EqualFold(p.peek().text, "between")) {
		p.pos++
		not = true
	}
	if p.eatKw("in") {
		if err := p.expectOp("("); err != nil {
			return nil, err
		}
		if p.isKw("select") {
			sub, err := p.parseSubquery()
			if err != nil {
				return nil, err
			}
			if err := p.expectOp(")"); err != nil {
				return nil, err
			}
			return &InExpr{E: l, Sub: sub, Not: not}, nil
		}
		var list []Expr
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			list = append(list, e)
			if !p.eatOp(",") {
				break
			}
		}
		if err := p.expectOp(")"); err != nil {
			return nil, err
		}
		return &InExpr{E: l, List: list, Not: not}, nil
	}
	if p.eatKw("between") {
		lo, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		if err := p.expectKw("and"); err != nil {
			return nil, err
		}
		hi, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		return &BetweenExpr{E: l, Lo: lo, Hi: hi, Not: not}, nil
	}
	for _, op := range []string{"=", "!=", "<>", "<=", ">=", "<", ">"} {
		if p.isOp(op) {
			p.pos++
			r, err := p.parseAdditive()
			if err != nil {
				return nil, err
			}
			canon := op
			if canon == "<>" {
				canon = "!="
			}
			return &BinExpr{Op: canon, L: l, R: r}, nil
		}
	}
	return l, nil
}

func (p *parser) parseAdditive() (Expr, error) {
	l, err := p.parseMultiplicative()
	if err != nil {
		return nil, err
	}
	for {
		var op string
		switch {
		case p.isOp("+"):
			op = "+"
		case p.isOp("-"):
			op = "-"
		case p.isOp("||"):
			op = "||"
		default:
			return l, nil
		}
		p.pos++
		r, err := p.parseMultiplicative()
		if err != nil {
			return nil, err
		}
		l = &BinExpr{Op: op, L: l, R: r}
	}
}

func (p *parser) parseMultiplicative() (Expr, error) {
	l, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		var op string
		switch {
		case p.isOp("*"):
			op = "*"
		case p.isOp("/"):
			op = "/"
		case p.isOp("%"):
			op = "%"
		default:
			return l, nil
		}
		p.pos++
		r, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		l = &BinExpr{Op: op, L: l, R: r}
	}
}

func (p *parser) parseUnary() (Expr, error) {
	if p.eatOp("-") {
		e, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		switch t := e.(type) {
		case *Lit:
			switch t.Val.T {
			case TInt:
				return &Lit{Val: Int(-t.Val.I)}, nil
			case TFloat:
				return &Lit{Val: Float(-t.Val.F)}, nil
			}
		case *Param:
			// A lifted number stays one negative literal.
			if t.Idx < len(p.vals) && (p.vals[t.Idx].T == TInt || p.vals[t.Idx].T == TFloat) {
				p.neg[t.Idx] = !p.neg[t.Idx]
				return t, nil
			}
		}
		return &UnaryExpr{Op: "-", E: e}, nil
	}
	if p.eatOp("+") {
		return p.parseUnary()
	}
	return p.parsePrimary()
}

func (p *parser) parsePrimary() (Expr, error) {
	t := p.cur()
	switch t.kind {
	case tokNumber, tokString:
		p.pos++
		if p.lift {
			p.lifted[t.slot] = true
			return &Param{Idx: int(t.slot)}, nil
		}
		v, err := litValue(t)
		if err != nil {
			return nil, p.errf("%v", err)
		}
		return &Lit{Val: v}, nil
	case tokParam:
		p.pos++
		p.nuser++
		return &Param{Idx: len(p.vals) + p.nuser - 1}, nil
	case tokOp:
		if t.text == "(" {
			p.pos++
			if p.isKw("select") {
				sel, err := p.parseSubquery()
				if err != nil {
					return nil, err
				}
				if err := p.expectOp(")"); err != nil {
					return nil, err
				}
				return &SubqueryExpr{Query: sel}, nil
			}
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if err := p.expectOp(")"); err != nil {
				return nil, err
			}
			return e, nil
		}
		return nil, p.errf("unexpected token %q", t)
	case tokIdent:
		// SELECT cannot serve as a column, table, or function name: after
		// "(" the parser dispatches on the keyword to the subquery path, so
		// an identifier "select" would render to SQL that re-parses
		// differently (found by FuzzParse).
		if strings.EqualFold(t.text, "select") {
			return nil, p.errf("unexpected keyword %q in expression", t.text)
		}
		switch {
		case strings.EqualFold(t.text, "true"):
			p.pos++
			return &Lit{Val: Bool(true)}, nil
		case strings.EqualFold(t.text, "false"):
			p.pos++
			return &Lit{Val: Bool(false)}, nil
		case strings.EqualFold(t.text, "null"):
			p.pos++
			return &Lit{Val: Null()}, nil
		case strings.EqualFold(t.text, "case"):
			return p.parseCase()
		}
		// function call?
		if p.peek().kind == tokOp && p.peek().text == "(" {
			name := t.text
			p.pos += 2 // ident + '('
			fc := &FuncCall{Name: strings.ToLower(name)}
			if p.isOp("*") {
				p.pos++
				fc.Star = true
			} else if !p.isOp(")") {
				fc.Distinct = p.eatKw("distinct")
				for {
					e, err := p.parseExpr()
					if err != nil {
						return nil, err
					}
					fc.Args = append(fc.Args, e)
					if !p.eatOp(",") {
						break
					}
				}
			}
			if err := p.expectOp(")"); err != nil {
				return nil, err
			}
			return fc, nil
		}
		// column ref, possibly qualified
		p.pos++
		if p.isOp(".") {
			p.pos++
			col, err := p.ident()
			if err != nil {
				return nil, err
			}
			return &ColRef{Table: t.text, Name: col}, nil
		}
		return &ColRef{Name: t.text}, nil
	}
	return nil, p.errf("unexpected token %q", t)
}

func (p *parser) parseCase() (Expr, error) {
	p.pos++ // CASE
	ce := &CaseExpr{}
	for p.eatKw("when") {
		cond, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expectKw("then"); err != nil {
			return nil, err
		}
		then, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		ce.Whens = append(ce.Whens, WhenClause{Cond: cond, Then: then})
	}
	if len(ce.Whens) == 0 {
		return nil, p.errf("CASE requires at least one WHEN")
	}
	if p.eatKw("else") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		ce.Else = e
	}
	if err := p.expectKw("end"); err != nil {
		return nil, err
	}
	return ce, nil
}
