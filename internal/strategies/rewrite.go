package strategies

import (
	"fmt"
	"strings"
	"sync/atomic"

	"repro/internal/colquery"
	"repro/internal/sqldb"
)

// This file contains the AST surgery shared by the strategies: stripping
// nUDF conjuncts to obtain Q_db, and rewriting the collaborative query so
// that nUDF calls read from a predictions table instead.

// whereConjuncts returns the WHERE clause (plus join ON conditions) split
// on AND.
func whereConjuncts(sel *sqldb.SelectStmt) []sqldb.Expr {
	var out []sqldb.Expr
	var fromConds func(ref *sqldb.TableRef)
	fromConds = func(ref *sqldb.TableRef) {
		if ref == nil || ref.Join == nil {
			return
		}
		fromConds(ref.Join.L)
		fromConds(ref.Join.R)
		if ref.Join.Cond != nil {
			out = append(out, splitAnd(ref.Join.Cond)...)
		}
	}
	fromConds(sel.From)
	out = append(out, splitAnd(sel.Where)...)
	return out
}

func splitAnd(e sqldb.Expr) []sqldb.Expr {
	if e == nil {
		return nil
	}
	if b, ok := e.(*sqldb.BinExpr); ok && b.Op == "and" {
		return append(splitAnd(b.L), splitAnd(b.R)...)
	}
	return []sqldb.Expr{e}
}

func andAll(conds []sqldb.Expr) sqldb.Expr {
	var out sqldb.Expr
	for _, c := range conds {
		if out == nil {
			out = c
		} else {
			out = &sqldb.BinExpr{Op: "and", L: out, R: c}
		}
	}
	return out
}

// findNUDFs lists nUDF calls in an expression.
func findNUDFs(e sqldb.Expr) []*sqldb.FuncCall {
	var out []*sqldb.FuncCall
	var walk func(sqldb.Expr)
	walk = func(x sqldb.Expr) {
		switch t := x.(type) {
		case *sqldb.FuncCall:
			if colquery.IsNUDF(t.Name) {
				out = append(out, t)
			}
			for _, a := range t.Args {
				walk(a)
			}
		case *sqldb.BinExpr:
			walk(t.L)
			walk(t.R)
		case *sqldb.UnaryExpr:
			walk(t.E)
		case *sqldb.CaseExpr:
			for _, w := range t.Whens {
				walk(w.Cond)
				walk(w.Then)
			}
			if t.Else != nil {
				walk(t.Else)
			}
		case *sqldb.InExpr:
			walk(t.E)
			for _, i := range t.List {
				walk(i)
			}
		case *sqldb.BetweenExpr:
			walk(t.E)
			walk(t.Lo)
			walk(t.Hi)
		case *sqldb.IsNullExpr:
			walk(t.E)
		}
	}
	walk(e)
	return out
}

// exprRelations lists qualified table aliases referenced by an expression.
func exprRelations(e sqldb.Expr) []string {
	seen := map[string]bool{}
	var out []string
	var walk func(sqldb.Expr)
	walk = func(x sqldb.Expr) {
		switch t := x.(type) {
		case *sqldb.ColRef:
			if t.Table != "" && !seen[strings.ToLower(t.Table)] {
				seen[strings.ToLower(t.Table)] = true
				out = append(out, strings.ToLower(t.Table))
			}
		case *sqldb.BinExpr:
			walk(t.L)
			walk(t.R)
		case *sqldb.UnaryExpr:
			walk(t.E)
		case *sqldb.FuncCall:
			for _, a := range t.Args {
				walk(a)
			}
		case *sqldb.InExpr:
			walk(t.E)
			for _, i := range t.List {
				walk(i)
			}
		case *sqldb.BetweenExpr:
			walk(t.E)
			walk(t.Lo)
			walk(t.Hi)
		case *sqldb.IsNullExpr:
			walk(t.E)
		}
	}
	walk(e)
	return out
}

// stripUDFConjuncts clones the statement without nUDF-containing WHERE
// conjuncts (Q_db). Join ON conditions are preserved unless they contain an
// nUDF.
func stripUDFConjuncts(sel *sqldb.SelectStmt) *sqldb.SelectStmt {
	out := *sel
	var keep []sqldb.Expr
	for _, c := range splitAnd(sel.Where) {
		if len(findNUDFs(c)) == 0 {
			keep = append(keep, c)
		}
	}
	out.Where = andAll(keep)
	out.From = stripFromUDFs(sel.From)
	return &out
}

func stripFromUDFs(ref *sqldb.TableRef) *sqldb.TableRef {
	if ref == nil || ref.Join == nil {
		return ref
	}
	join := &sqldb.JoinRef{
		L: stripFromUDFs(ref.Join.L),
		R: stripFromUDFs(ref.Join.R),
	}
	if ref.Join.Cond != nil {
		var keep []sqldb.Expr
		for _, c := range splitAnd(ref.Join.Cond) {
			if len(findNUDFs(c)) == 0 {
				keep = append(keep, c)
			}
		}
		join.Cond = andAll(keep)
	}
	return &sqldb.TableRef{Join: join}
}

// predAlias is the alias rewriteWithPredictions gives the predictions
// table in the rewritten query.
const predAlias = "NPRED"

// predTableSeq makes prediction-table names collision-free under
// concurrency: UnixNano alone can repeat when two sessions' executions
// land in the same tick (the scheduler makes that overlap routine).
var predTableSeq atomic.Int64

// buildPredictionsTable materializes predictions for the candidates into a
// fresh table {videoID, p_<udf>...} and returns its name.
func buildPredictionsTable(env *Context, q *colquery.Query, preds map[int64]map[string]sqldb.Datum, tag string) (string, error) {
	name := fmt.Sprintf("npred_%s_%d", tag, predTableSeq.Add(1))
	schema := sqldb.Schema{{Name: "videoID", Type: sqldb.TInt}}
	for _, u := range q.UDFNames {
		b := env.Bindings[u]
		if b == nil {
			return "", fmt.Errorf("strategies: no model bound for %s", u)
		}
		schema = append(schema, sqldb.ColumnDef{Name: predColName(u), Type: b.predictionType()})
	}
	tbl, err := env.Dataset.DB.CreateTable(name, schema)
	if err != nil {
		return "", err
	}
	for videoID, perUDF := range preds {
		row := make([]sqldb.Datum, 0, len(schema))
		row = append(row, sqldb.Int(videoID))
		for _, u := range q.UDFNames {
			row = append(row, perUDF[u])
		}
		if err := tbl.AppendRow(row); err != nil {
			return "", err
		}
	}
	return name, nil
}

func predColName(udf string) string {
	return "p_" + strings.ToLower(udf)
}

// rewriteWithPredictions clones the collaborative query replacing every
// nUDF call with a reference to the predictions table, which is added to
// the FROM list joined on videoID.
func rewriteWithPredictions(q *colquery.Query, predTable string) *sqldb.SelectStmt {
	alias := keyframeAlias(q)
	out := *q.Stmt
	out.Items = make([]sqldb.SelectItem, len(q.Stmt.Items))
	for i, it := range q.Stmt.Items {
		out.Items[i] = it
		if !it.Star {
			out.Items[i].Expr = replaceNUDFs(it.Expr)
		}
	}
	if q.Stmt.Where != nil {
		out.Where = replaceNUDFs(q.Stmt.Where)
	}
	out.GroupBy = make([]sqldb.Expr, len(q.Stmt.GroupBy))
	for i, g := range q.Stmt.GroupBy {
		out.GroupBy[i] = replaceNUDFs(g)
	}
	if q.Stmt.Having != nil {
		out.Having = replaceNUDFs(q.Stmt.Having)
	}
	// Join the predictions table on videoID.
	predRef := &sqldb.TableRef{Table: predTable, Alias: predAlias}
	out.From = &sqldb.TableRef{Join: &sqldb.JoinRef{L: q.Stmt.From, R: predRef}}
	joinCond := &sqldb.BinExpr{
		Op: "=",
		L:  &sqldb.ColRef{Table: predAlias, Name: "videoID"},
		R:  &sqldb.ColRef{Table: alias, Name: "videoID"},
	}
	if out.Where != nil {
		out.Where = &sqldb.BinExpr{Op: "and", L: out.Where, R: joinCond}
	} else {
		out.Where = joinCond
	}
	return &out
}

// replaceNUDFs substitutes prediction-column references for nUDF calls.
func replaceNUDFs(e sqldb.Expr) sqldb.Expr {
	switch t := e.(type) {
	case *sqldb.FuncCall:
		if colquery.IsNUDF(t.Name) {
			return &sqldb.ColRef{Table: predAlias, Name: predColName(t.Name)}
		}
		out := &sqldb.FuncCall{Name: t.Name, Distinct: t.Distinct, Star: t.Star}
		for _, a := range t.Args {
			out.Args = append(out.Args, replaceNUDFs(a))
		}
		return out
	case *sqldb.BinExpr:
		return &sqldb.BinExpr{Op: t.Op, L: replaceNUDFs(t.L), R: replaceNUDFs(t.R)}
	case *sqldb.UnaryExpr:
		return &sqldb.UnaryExpr{Op: t.Op, E: replaceNUDFs(t.E)}
	case *sqldb.CaseExpr:
		out := &sqldb.CaseExpr{}
		for _, w := range t.Whens {
			out.Whens = append(out.Whens, sqldb.WhenClause{Cond: replaceNUDFs(w.Cond), Then: replaceNUDFs(w.Then)})
		}
		if t.Else != nil {
			out.Else = replaceNUDFs(t.Else)
		}
		return out
	case *sqldb.InExpr:
		out := &sqldb.InExpr{E: replaceNUDFs(t.E), Not: t.Not}
		for _, x := range t.List {
			out.List = append(out.List, replaceNUDFs(x))
		}
		return out
	case *sqldb.BetweenExpr:
		return &sqldb.BetweenExpr{E: replaceNUDFs(t.E), Lo: replaceNUDFs(t.Lo), Hi: replaceNUDFs(t.Hi), Not: t.Not}
	case *sqldb.IsNullExpr:
		return &sqldb.IsNullExpr{E: replaceNUDFs(t.E), Not: t.Not}
	}
	return e
}
