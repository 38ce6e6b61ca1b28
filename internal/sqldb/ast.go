package sqldb

import (
	"fmt"
	"strconv"
	"strings"
)

// ---- Expressions ----

// Expr is a parsed SQL expression node.
type Expr interface {
	exprNode()
	String() string
}

// ColRef references a column, optionally qualified by a table alias.
type ColRef struct {
	Table string // optional qualifier
	Name  string
}

// Lit is a literal constant.
type Lit struct{ Val Datum }

// Param is a value bound at execution: a `?` placeholder, or a literal the
// statement store lifted out of a text (cache.go). Idx indexes the
// execution's arguments, which the vector compiler reads, so one kept plan
// serves every binding.
type Param struct{ Idx int }

// BinExpr is a binary operation: arithmetic, comparison, AND/OR, string ||.
type BinExpr struct {
	Op   string
	L, R Expr
}

// UnaryExpr is NOT or unary minus.
type UnaryExpr struct {
	Op string
	E  Expr
}

// FuncCall is a scalar or aggregate function invocation; Distinct is set for
// COUNT(DISTINCT x). Star marks COUNT(*).
type FuncCall struct {
	Name     string
	Args     []Expr
	Distinct bool
	Star     bool
}

// CaseExpr is CASE WHEN ... THEN ... [ELSE ...] END.
type CaseExpr struct {
	Whens []WhenClause
	Else  Expr
}

// WhenClause is one WHEN/THEN branch of a CASE.
type WhenClause struct {
	Cond Expr
	Then Expr
}

// InExpr is `x IN (a, b, c)`, `x NOT IN (...)`, or `x IN (SELECT ...)`
// (Sub set, List nil; the planner materializes the uncorrelated subquery).
type InExpr struct {
	E    Expr
	List []Expr
	Sub  *SelectStmt
	Not  bool
}

// BetweenExpr is `x BETWEEN lo AND hi`.
type BetweenExpr struct {
	E, Lo, Hi Expr
	Not       bool
}

// SubqueryExpr is a scalar subquery used as a value.
type SubqueryExpr struct{ Query *SelectStmt }

// IsNullExpr is `x IS [NOT] NULL`.
type IsNullExpr struct {
	E   Expr
	Not bool
}

func (*ColRef) exprNode()       {}
func (*Lit) exprNode()          {}
func (*Param) exprNode()        {}
func (*BinExpr) exprNode()      {}
func (*UnaryExpr) exprNode()    {}
func (*FuncCall) exprNode()     {}
func (*CaseExpr) exprNode()     {}
func (*InExpr) exprNode()       {}
func (*BetweenExpr) exprNode()  {}
func (*SubqueryExpr) exprNode() {}
func (*IsNullExpr) exprNode()   {}

// String renders the ColRef as SQL text (the parser round-trips it).
func (e *ColRef) String() string {
	if e.Table != "" {
		return e.Table + "." + e.Name
	}
	return e.Name
}

// String renders the Lit as SQL text (the parser round-trips it).
func (e *Lit) String() string {
	if e.Val.T == TString {
		// Escape backslashes before doubling quotes: the lexer treats \ as
		// an escape inside string literals, so a bare \ in the value would
		// swallow the closing quote on re-parse (found by FuzzParse).
		s := strings.ReplaceAll(e.Val.S, `\`, `\\`)
		return "'" + strings.ReplaceAll(s, "'", "''") + "'"
	}
	if e.Val.T == TFloat {
		// Keep float syntax visible: -0E0 folds to the float -0.0, whose
		// shortest rendering "-0" would re-parse as the integer 0 (found by
		// FuzzParse). Integral-looking floats get an explicit ".0".
		s := strconv.FormatFloat(e.Val.F, 'g', -1, 64)
		if !strings.ContainsAny(s, ".eE") {
			s += ".0"
		}
		return s
	}
	return e.Val.String()
}

// String renders the Param as SQL text (the parser round-trips it).
func (e *Param) String() string { return "?" }

// String renders the BinExpr as SQL text (the parser round-trips it).
func (e *BinExpr) String() string {
	return "(" + e.L.String() + " " + e.Op + " " + e.R.String() + ")"
}

// String renders the UnaryExpr as SQL text (the parser round-trips it).
func (e *UnaryExpr) String() string { return e.Op + " " + e.E.String() }

// String renders the FuncCall as SQL text (the parser round-trips it).
func (e *FuncCall) String() string {
	if e.Star {
		return e.Name + "(*)"
	}
	args := make([]string, len(e.Args))
	for i, a := range e.Args {
		args[i] = a.String()
	}
	d := ""
	if e.Distinct {
		d = "DISTINCT "
	}
	return e.Name + "(" + d + strings.Join(args, ", ") + ")"
}

// String renders the CaseExpr as SQL text (the parser round-trips it).
func (e *CaseExpr) String() string {
	var sb strings.Builder
	sb.WriteString("CASE")
	for _, w := range e.Whens {
		fmt.Fprintf(&sb, " WHEN %s THEN %s", w.Cond, w.Then)
	}
	if e.Else != nil {
		fmt.Fprintf(&sb, " ELSE %s", e.Else)
	}
	sb.WriteString(" END")
	return sb.String()
}

// String renders the InExpr as SQL text (the parser round-trips it).
func (e *InExpr) String() string {
	not := ""
	if e.Not {
		not = " NOT"
	}
	if e.Sub != nil {
		return e.E.String() + not + " IN (" + e.Sub.String() + ")"
	}
	items := make([]string, len(e.List))
	for i, x := range e.List {
		items[i] = x.String()
	}
	return e.E.String() + not + " IN (" + strings.Join(items, ", ") + ")"
}

// String renders the BetweenExpr as SQL text (the parser round-trips it).
func (e *BetweenExpr) String() string {
	not := ""
	if e.Not {
		not = " NOT"
	}
	return e.E.String() + not + " BETWEEN " + e.Lo.String() + " AND " + e.Hi.String()
}

// String renders the SubqueryExpr as SQL text (the parser round-trips it).
func (e *SubqueryExpr) String() string { return "(" + e.Query.String() + ")" }

// String renders the IsNullExpr as SQL text (the parser round-trips it).
func (e *IsNullExpr) String() string {
	if e.Not {
		return e.E.String() + " IS NOT NULL"
	}
	return e.E.String() + " IS NULL"
}

// ---- Statements ----

// Stmt is any parsed SQL statement.
type Stmt interface {
	stmtNode()
	String() string
}

// SelectItem is one projection, optionally aliased.
type SelectItem struct {
	Expr  Expr
	Alias string
	Star  bool // SELECT *
}

// TableRef is one FROM item: a base table, a subquery, or a join tree built
// by the parser from comma-joins and INNER JOIN ... ON.
type TableRef struct {
	// Base table
	Table string
	Alias string
	// Subquery in FROM
	Sub *SelectStmt
	// Join node
	Join *JoinRef
}

// JoinRef is a binary join of two table refs with an optional ON condition
// (comma joins have Cond == nil; their predicate arrives via WHERE). Left
// marks a LEFT OUTER JOIN.
type JoinRef struct {
	L, R *TableRef
	Cond Expr
	Left bool
}

// OrderItem is one ORDER BY key.
type OrderItem struct {
	Expr Expr
	Desc bool
}

// SelectStmt is a parsed SELECT.
type SelectStmt struct {
	Distinct bool
	Items    []SelectItem
	From     *TableRef // nil for FROM-less selects
	Where    Expr
	GroupBy  []Expr
	Having   Expr
	OrderBy  []OrderItem
	Limit    int // -1 when absent
	Offset   int
	// UnionAll chains additional SELECTs whose rows are appended to this
	// one's (schemas matched by position).
	UnionAll []*SelectStmt
}

// CreateTableStmt covers CREATE [TEMP] TABLE, with either an explicit
// column list or an AS SELECT source (the paper's Q1/Q4/Q5 use the latter).
type CreateTableStmt struct {
	Name        string
	Temp        bool
	IfNotExists bool
	Cols        []ColumnDef
	As          *SelectStmt
}

// CreateViewStmt is CREATE VIEW name AS SELECT (the paper's Q2).
type CreateViewStmt struct {
	Name      string
	As        *SelectStmt
	OrReplace bool
}

// InsertStmt is INSERT INTO t [(cols)] VALUES (...) | SELECT ...
type InsertStmt struct {
	Table  string
	Cols   []string
	Values [][]Expr
	Query  *SelectStmt
}

// UpdateStmt is UPDATE t SET col = expr, ... [WHERE ...] — the paper's ReLU.
type UpdateStmt struct {
	Table string
	Set   map[string]Expr
	Where Expr
}

// DeleteStmt is DELETE FROM t [WHERE ...].
type DeleteStmt struct {
	Table string
	Where Expr
}

// ExplainStmt is EXPLAIN [ANALYZE] SELECT ...: it returns the optimized
// plan tree as a one-column result. With Analyze set the plan is also
// executed and every node is annotated with its actual row count, call
// count, and (inclusive) wall time next to the optimizer's estimates.
type ExplainStmt struct {
	Query   *SelectStmt
	Analyze bool
}

// DropStmt is DROP TABLE|VIEW [IF EXISTS] name.
type DropStmt struct {
	Name     string
	View     bool
	IfExists bool
}

func (*SelectStmt) stmtNode()      {}
func (*CreateTableStmt) stmtNode() {}
func (*CreateViewStmt) stmtNode()  {}
func (*InsertStmt) stmtNode()      {}
func (*UpdateStmt) stmtNode()      {}
func (*DeleteStmt) stmtNode()      {}
func (*DropStmt) stmtNode()        {}
func (*ExplainStmt) stmtNode()     {}

// String renders the ExplainStmt as SQL text (the parser round-trips it).
func (s *ExplainStmt) String() string {
	if s.Analyze {
		return "EXPLAIN ANALYZE " + s.Query.String()
	}
	return "EXPLAIN " + s.Query.String()
}

// String renders the SelectStmt as SQL text (the parser round-trips it).
func (s *SelectStmt) String() string {
	var sb strings.Builder
	sb.WriteString("SELECT ")
	if s.Distinct {
		sb.WriteString("DISTINCT ")
	}
	for i, it := range s.Items {
		if i > 0 {
			sb.WriteString(", ")
		}
		if it.Star {
			sb.WriteString("*")
			continue
		}
		sb.WriteString(it.Expr.String())
		if it.Alias != "" {
			sb.WriteString(" AS " + it.Alias)
		}
	}
	if s.From != nil {
		sb.WriteString(" FROM " + s.From.String())
	}
	if s.Where != nil {
		sb.WriteString(" WHERE " + s.Where.String())
	}
	if len(s.GroupBy) > 0 {
		sb.WriteString(" GROUP BY ")
		for i, g := range s.GroupBy {
			if i > 0 {
				sb.WriteString(", ")
			}
			sb.WriteString(g.String())
		}
	}
	if s.Having != nil {
		sb.WriteString(" HAVING " + s.Having.String())
	}
	if len(s.OrderBy) > 0 {
		sb.WriteString(" ORDER BY ")
		for i, o := range s.OrderBy {
			if i > 0 {
				sb.WriteString(", ")
			}
			sb.WriteString(o.Expr.String())
			if o.Desc {
				sb.WriteString(" DESC")
			}
		}
	}
	if s.Limit >= 0 {
		fmt.Fprintf(&sb, " LIMIT %d", s.Limit)
	}
	if s.Offset > 0 {
		fmt.Fprintf(&sb, " OFFSET %d", s.Offset)
	}
	for _, u := range s.UnionAll {
		sb.WriteString(" UNION ALL " + u.String())
	}
	return sb.String()
}

// String renders the TableRef as SQL text (the parser round-trips it).
func (t *TableRef) String() string {
	switch {
	case t.Join != nil:
		if t.Join.Cond != nil {
			kw := " INNER JOIN "
			if t.Join.Left {
				kw = " LEFT JOIN "
			}
			return t.Join.L.String() + kw + t.Join.R.String() + " ON " + t.Join.Cond.String()
		}
		return t.Join.L.String() + ", " + t.Join.R.String()
	case t.Sub != nil:
		s := "(" + t.Sub.String() + ")"
		if t.Alias != "" {
			s += " " + t.Alias
		}
		return s
	default:
		if t.Alias != "" && !strings.EqualFold(t.Alias, t.Table) {
			return t.Table + " " + t.Alias
		}
		return t.Table
	}
}

// String renders the CreateTableStmt as SQL text (the parser round-trips it).
func (s *CreateTableStmt) String() string {
	var sb strings.Builder
	sb.WriteString("CREATE ")
	if s.Temp {
		sb.WriteString("TEMP ")
	}
	sb.WriteString("TABLE ")
	if s.IfNotExists {
		sb.WriteString("IF NOT EXISTS ")
	}
	sb.WriteString(s.Name)
	if s.As != nil {
		sb.WriteString(" AS " + s.As.String())
		return sb.String()
	}
	sb.WriteString(" (")
	for i, c := range s.Cols {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString(c.Name + " " + c.Type.String())
	}
	sb.WriteString(")")
	return sb.String()
}

// String renders the CreateViewStmt as SQL text (the parser round-trips it).
func (s *CreateViewStmt) String() string {
	return "CREATE VIEW " + s.Name + " AS " + s.As.String()
}

// String renders the InsertStmt as SQL text (the parser round-trips it).
func (s *InsertStmt) String() string {
	var sb strings.Builder
	sb.WriteString("INSERT INTO " + s.Table)
	if len(s.Cols) > 0 {
		sb.WriteString(" (" + strings.Join(s.Cols, ", ") + ")")
	}
	if s.Query != nil {
		sb.WriteString(" " + s.Query.String())
		return sb.String()
	}
	sb.WriteString(" VALUES ")
	for i, row := range s.Values {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString("(")
		for j, e := range row {
			if j > 0 {
				sb.WriteString(", ")
			}
			sb.WriteString(e.String())
		}
		sb.WriteString(")")
	}
	return sb.String()
}

// String renders the UpdateStmt as SQL text (the parser round-trips it).
func (s *UpdateStmt) String() string {
	var sb strings.Builder
	sb.WriteString("UPDATE " + s.Table + " SET ")
	first := true
	for _, col := range sortedKeys(s.Set) {
		if !first {
			sb.WriteString(", ")
		}
		first = false
		sb.WriteString(col + " = " + s.Set[col].String())
	}
	if s.Where != nil {
		sb.WriteString(" WHERE " + s.Where.String())
	}
	return sb.String()
}

// String renders the DeleteStmt as SQL text (the parser round-trips it).
func (s *DeleteStmt) String() string {
	out := "DELETE FROM " + s.Table
	if s.Where != nil {
		out += " WHERE " + s.Where.String()
	}
	return out
}

// String renders the DropStmt as SQL text (the parser round-trips it).
func (s *DropStmt) String() string {
	kind := "TABLE"
	if s.View {
		kind = "VIEW"
	}
	ex := ""
	if s.IfExists {
		ex = "IF EXISTS "
	}
	return "DROP " + kind + " " + ex + s.Name
}

func sortedKeys(m map[string]Expr) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	// insertion sort; SET lists are tiny
	for i := 1; i < len(keys); i++ {
		for j := i; j > 0 && keys[j] < keys[j-1]; j-- {
			keys[j], keys[j-1] = keys[j-1], keys[j]
		}
	}
	return keys
}
