package strategies

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/colquery"
	"repro/internal/sqldb"
)

// This file contains the AST surgery shared by the strategies: stripping
// nUDF conjuncts to obtain Q_db, and rewriting the collaborative query so
// that nUDF calls read from a predictions table instead.

// stripUDFConjuncts clones the statement without nUDF-containing WHERE
// conjuncts (Q_db). Join ON conditions are preserved unless they contain an
// nUDF.
func stripUDFConjuncts(sel *sqldb.SelectStmt) *sqldb.SelectStmt {
	out := *sel
	out.Where = withoutNUDFs(sel.Where)
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
	join.Cond = withoutNUDFs(ref.Join.Cond)
	return &sqldb.TableRef{Join: join}
}

// withoutNUDFs drops the conjuncts of cond that call an nUDF.
func withoutNUDFs(cond sqldb.Expr) sqldb.Expr {
	var keep []sqldb.Expr
	for _, c := range sqldb.Conjuncts(cond) {
		if len(colquery.NUDFCalls(c)) == 0 {
			keep = append(keep, c)
		}
	}
	return sqldb.And(keep)
}

// predAlias is the alias rewriteWithPredictions gives the predictions
// table in the rewritten query.
const predAlias = "NPRED"

// predTable is the name the final merge's predictions are bound under: a
// statement-scoped relation (sqldb.Relations), so concurrent merges never
// share a table and the catalog never sees one.
const predTable = "npred"

// predictionsTable builds the predictions for the candidates as a table
// {videoID, p_<udf>...} outside the catalog.
func predictionsTable(env *Context, q *colquery.Query, preds map[int64]map[string]sqldb.Datum) (*sqldb.Table, error) {
	schema := sqldb.Schema{{Name: "videoID", Type: sqldb.TInt}}
	for _, u := range q.UDFNames {
		b := env.Bindings[u]
		if b == nil {
			return nil, fmt.Errorf("strategies: no model bound for %s", u)
		}
		schema = append(schema, sqldb.ColumnDef{Name: predColName(u), Type: b.predictionType()})
	}
	tbl := sqldb.NewTable(predTable, schema)
	for videoID, perUDF := range preds {
		row := make([]sqldb.Datum, 0, len(schema))
		row = append(row, sqldb.Int(videoID))
		for _, u := range q.UDFNames {
			row = append(row, perUDF[u])
		}
		if err := tbl.AppendRow(row); err != nil {
			return nil, err
		}
	}
	return tbl, nil
}

// runMerge runs the collaborative query with every nUDF call replaced by a
// read of the predictions, bound under predTable for that statement.
func runMerge(ctx context.Context, env *Context, q *colquery.Query, preds map[int64]map[string]sqldb.Datum, hints *sqldb.QueryHints) (*sqldb.Result, error) {
	tbl, err := predictionsTable(env, q, preds)
	if err != nil {
		return nil, err
	}
	rels := sqldb.Relations{}
	rels.Bind(predTable, tbl)
	return env.Dataset.DB.ExecStmtContext(sqldb.WithRelations(ctx, rels), rewriteWithPredictions(q, predTable), hints)
}

func predColName(udf string) string {
	return "p_" + strings.ToLower(udf)
}

// rewriteWithPredictions rewrites the collaborative query replacing every
// nUDF call with a reference to the predictions table, which is added to
// the FROM list joined on videoID.
func rewriteWithPredictions(q *colquery.Query, predTable string) *sqldb.SelectStmt {
	alias := keyframeAlias(q)
	// replaceNUDF returns no error, so neither does the rewrite.
	rewritten, _ := sqldb.RewriteSelect(q.Stmt, replaceNUDF)
	out := *rewritten
	// Join the predictions table on videoID.
	predRef := &sqldb.TableRef{Table: predTable, Alias: predAlias}
	out.From = &sqldb.TableRef{Join: &sqldb.JoinRef{L: rewritten.From, R: predRef}}
	joinCond := &sqldb.BinExpr{
		Op: "=",
		L:  &sqldb.ColRef{Table: predAlias, Name: "videoID"},
		R:  &sqldb.ColRef{Table: alias, Name: "videoID"},
	}
	out.Where = sqldb.And([]sqldb.Expr{out.Where, joinCond})
	return &out
}

// replaceNUDF substitutes a prediction-column reference for an nUDF call.
func replaceNUDF(e sqldb.Expr) (sqldb.Expr, error) {
	if fc, ok := e.(*sqldb.FuncCall); ok && colquery.IsNUDF(fc.Name) {
		return &sqldb.ColRef{Table: predAlias, Name: predColName(fc.Name)}, nil
	}
	return e, nil
}
