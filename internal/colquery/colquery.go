// Package colquery models the paper's collaborative queries: SQL statements
// that embed neural-UDF calls (nUDF_*). It analyzes the dependency between
// the relational part (Q_db) and the learning part (Q_learning) to classify
// a query into the four types of Table I, extracts the nUDF usages the
// execution strategies need, and generates the paper's benchmark query
// templates over the IoT schema.
package colquery

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/sqldb"
)

// QueryType is the Table I classification.
type QueryType int

// The four collaborative query types of Table I.
const (
	// Type1: Q_db and Q_learning are independent — the nUDF is a standalone
	// filter with no relational predicates gating its inputs.
	Type1 QueryType = iota + 1
	// Type2: Q_db depends on Q_learning — nUDF outputs feed relational
	// aggregation in the SELECT clause.
	Type2
	// Type3: Q_learning depends on Q_db — relational predicates restrict
	// which tuples reach the nUDF.
	Type3
	// Type4: interdependence — the nUDF participates in a join condition
	// against another relation's column.
	Type4
)

func (t QueryType) String() string {
	if t >= Type1 && t <= Type4 {
		return fmt.Sprintf("Type %d", int(t))
	}
	return fmt.Sprintf("QueryType(%d)", int(t))
}

// Difficulty returns Table I's difficulty label.
func (t QueryType) Difficulty() string {
	switch t {
	case Type1:
		return "Easy"
	case Type2, Type3:
		return "Medium"
	case Type4:
		return "Hard"
	}
	return "Unknown"
}

// UDFUsage is one nUDF occurrence in the query.
type UDFUsage struct {
	// Name is the UDF's function name (lower-cased), e.g. "nudf_detect".
	Name string
	// Arg is the textual argument (e.g. "V.keyframe").
	Arg string
	// EqualsLiteral is the literal the UDF result is compared to when the
	// usage has the form nUDF(x) = literal (the hint machinery derives the
	// selectivity of this predicate from the class histogram); nil
	// otherwise.
	EqualsLiteral *sqldb.Datum
	// InWhere / InSelect / InJoin locate the usage.
	InWhere  bool
	InSelect bool
	InJoin   bool // compared against another relation's column
}

// Query is an analyzed collaborative query.
type Query struct {
	SQL  string
	Stmt *sqldb.SelectStmt
	Type QueryType
	UDFs []UDFUsage
	// UDFNames is the deduplicated set of nUDF names used.
	UDFNames []string
}

// IsNUDF reports whether a function name is a neural UDF by the paper's
// naming convention.
func IsNUDF(name string) bool {
	return strings.HasPrefix(strings.ToLower(name), "nudf_")
}

// Analyze parses and classifies a collaborative query.
func Analyze(sql string) (*Query, error) {
	stmt, err := sqldb.Parse(sql)
	if err != nil {
		return nil, err
	}
	sel, ok := stmt.(*sqldb.SelectStmt)
	if !ok {
		return nil, fmt.Errorf("colquery: collaborative queries must be SELECTs, got %T", stmt)
	}
	q := &Query{SQL: sql, Stmt: sel}

	// filteredRels: relations carrying single-relation non-UDF predicates;
	// joinEdges: equi-join pairs between relations.
	filteredRels := map[string]bool{}
	type edge struct{ a, b string }
	var joinEdges []edge
	for _, c := range WhereConjuncts(sel) {
		udfs := NUDFCalls(c)
		if len(udfs) == 0 {
			rels := Qualifiers(c)
			if len(rels) == 1 {
				filteredRels[rels[0]] = true
			}
			if b, ok := c.(*sqldb.BinExpr); ok && b.Op == "=" && len(rels) == 2 {
				joinEdges = append(joinEdges, edge{rels[0], rels[1]})
			}
			continue
		}
		for _, call := range udfs {
			usage := UDFUsage{Name: strings.ToLower(call.Name), InWhere: true}
			if len(call.Args) > 0 {
				usage.Arg = call.Args[0].String()
			}
			// nUDF(x) = literal / nUDF(x) != literal?
			if lit := comparedLiteral(c, call); lit != nil {
				usage.EqualsLiteral = lit
			}
			// Join usage: the conjunct references other relations' columns
			// outside the UDF argument.
			if referencesOtherRelation(c, call) {
				usage.InJoin = true
			}
			q.UDFs = append(q.UDFs, usage)
		}
	}
	// SELECT-clause usages.
	for _, it := range sel.Items {
		if it.Star {
			continue
		}
		for _, call := range NUDFCalls(it.Expr) {
			usage := UDFUsage{Name: strings.ToLower(call.Name), InSelect: true}
			if len(call.Args) > 0 {
				usage.Arg = call.Args[0].String()
			}
			if lit := comparedLiteral(it.Expr, call); lit != nil {
				usage.EqualsLiteral = lit
			}
			q.UDFs = append(q.UDFs, usage)
		}
	}

	seen := map[string]bool{}
	for _, u := range q.UDFs {
		if !seen[u.Name] {
			seen[u.Name] = true
			q.UDFNames = append(q.UDFNames, u.Name)
		}
	}
	if len(q.UDFs) == 0 {
		return nil, fmt.Errorf("colquery: query contains no nUDF call")
	}

	// Classification per Table I.
	hasJoinUDF := false
	hasSelectUDF := false
	udfRels := map[string]bool{}
	for _, u := range q.UDFs {
		if u.InJoin {
			hasJoinUDF = true
		}
		if u.InSelect {
			hasSelectUDF = true
		}
		// Relation feeding the UDF argument (e.g. "v" for V.keyframe).
		if i := strings.IndexByte(u.Arg, '.'); i > 0 {
			udfRels[strings.ToLower(u.Arg[:i])] = true
		}
	}
	// Q_learning depends on Q_db when the UDF's relation is equi-joined to a
	// relation that carries its own filter predicates (the joined Q_db
	// output gates which tuples reach the model).
	learningDependsOnDB := false
	for _, e := range joinEdges {
		var partner string
		switch {
		case udfRels[e.a]:
			partner = e.b
		case udfRels[e.b]:
			partner = e.a
		default:
			continue
		}
		if filteredRels[partner] {
			learningDependsOnDB = true
		}
	}
	switch {
	case hasJoinUDF:
		q.Type = Type4
	case hasSelectUDF:
		q.Type = Type2
	case learningDependsOnDB:
		q.Type = Type3
	default:
		q.Type = Type1
	}
	return q, nil
}

// WhereConjuncts returns the join ON conditions and the WHERE clause of a
// SELECT, split on AND.
func WhereConjuncts(sel *sqldb.SelectStmt) []sqldb.Expr {
	var out []sqldb.Expr
	var on func(ref *sqldb.TableRef)
	on = func(ref *sqldb.TableRef) {
		if ref == nil || ref.Join == nil {
			return
		}
		on(ref.Join.L)
		on(ref.Join.R)
		out = append(out, sqldb.Conjuncts(ref.Join.Cond)...)
	}
	on(sel.From)
	return append(out, sqldb.Conjuncts(sel.Where)...)
}

// NUDFCalls returns the nUDF calls in an expression, in pre-order.
func NUDFCalls(e sqldb.Expr) []*sqldb.FuncCall {
	var out []*sqldb.FuncCall
	sqldb.Walk(e, func(x sqldb.Expr) bool {
		if fc, ok := x.(*sqldb.FuncCall); ok && IsNUDF(fc.Name) {
			out = append(out, fc)
		}
		return true
	})
	return out
}

// comparedLiteral returns the literal a UDF call is compared to when the
// expression contains `call OP literal` (or the mirror) along a chain of
// binary operators from its root.
func comparedLiteral(e sqldb.Expr, call *sqldb.FuncCall) *sqldb.Datum {
	var found *sqldb.Datum
	sqldb.Walk(e, func(x sqldb.Expr) bool {
		b, ok := x.(*sqldb.BinExpr)
		if !ok || found != nil {
			return false
		}
		// other is the operand facing the call, if the call is one.
		var other sqldb.Expr
		switch sqldb.Expr(call) {
		case b.L:
			other = b.R
		case b.R:
			other = b.L
		}
		if lit, ok := other.(*sqldb.Lit); ok && (b.Op == "=" || b.Op == "!=") {
			v := lit.Val
			found = &v
		}
		return found == nil
	})
	return found
}

// Qualifiers lists, lower-cased and each once, the table qualifiers of the
// column references in an expression (unqualified references are skipped;
// the template queries always qualify).
func Qualifiers(e sqldb.Expr) []string {
	var out []string
	sqldb.Walk(e, func(x sqldb.Expr) bool {
		if c, ok := x.(*sqldb.ColRef); ok && c.Table != "" {
			if q := strings.ToLower(c.Table); !slices.Contains(out, q) {
				out = append(out, q)
			}
		}
		return true
	})
	return out
}

// referencesOtherRelation reports whether the conjunct containing a UDF call
// also references a column outside the UDF's own arguments (Type 4's
// `F.patternID != nUDF_recog(V.keyframe)` pattern).
func referencesOtherRelation(cond sqldb.Expr, call *sqldb.FuncCall) bool {
	argRels := Qualifiers(call)
	other := false
	sqldb.Walk(cond, func(x sqldb.Expr) bool {
		if c, ok := x.(*sqldb.ColRef); ok && c.Table != "" && !slices.Contains(argRels, strings.ToLower(c.Table)) {
			other = true
		}
		return x != sqldb.Expr(call) && !other
	})
	return other
}
