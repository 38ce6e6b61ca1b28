package sqldb

import (
	"context"
	"fmt"

	"repro/internal/qerr"
)

// Prepared is a pre-parsed statement with `?` placeholders. Executing it
// binds arguments positionally: the vector compiler reads each
// placeholder's value from the execution's arguments, so one plan serves
// every binding. The statement is a template (cache.go) — the store's,
// when EnableCache is on and Prepare found one — and the SELECT it reads,
// as SELECT, CREATE TABLE … AS or INSERT … SELECT, runs on the plans kept
// in it, with or without EnableCache. A statement with placeholders looks
// its text up in the store on every execution, as the text itself would
// be; one without is served from its own template.
type Prepared struct {
	db *DB
	*template
	// text is the statement's canonical rendering, recorded in the query
	// history for every execution.
	text string
	// vals are the values of the literals of the prepared text; key is
	// its store key when it has placeholders and the store was on.
	vals []Datum
	key  string
}

// Prepare parses a single statement for repeated execution with bound
// parameters. Works with or without EnableCache; with it, a SELECT shares
// its template and plans through the statement store.
func (db *DB) Prepare(sql string) (*Prepared, error) {
	var k keyScan
	store, keyed := db.store.Load(), false
	if store != nil {
		k, keyed = scanKey(sql)
	}
	var t *template
	var err error
	if keyed && !k.explain {
		t, _, err = db.template(store, sql, k)
	} else {
		k = keyScan{}
		t, err = parseTemplate(sql, nil)
	}
	if err != nil {
		return nil, err
	}
	p := &Prepared{db: db, template: t, text: t.text(k.vals), vals: k.vals}
	if t.nuser > 0 {
		p.key = k.key
	}
	return p, nil
}

// NumParams returns the number of `?` placeholders.
func (p *Prepared) NumParams() int { return p.nuser }

// Query executes the prepared statement with the given arguments bound to
// its `?` placeholders, in order.
func (p *Prepared) Query(args ...Datum) (*Result, error) {
	return p.ExecHintedContext(context.Background(), nil, args...)
}

// QueryContext is Query with cancellation and deadline support.
func (p *Prepared) QueryContext(ctx context.Context, args ...Datum) (*Result, error) {
	return p.ExecHintedContext(ctx, nil, args...)
}

// Exec is Query for statements that may not return rows (INSERT, UPDATE,
// DELETE, ...).
func (p *Prepared) Exec(args ...Datum) (*Result, error) {
	return p.ExecHintedContext(context.Background(), nil, args...)
}

// ExecContext is Exec with cancellation and deadline support.
func (p *Prepared) ExecContext(ctx context.Context, args ...Datum) (*Result, error) {
	return p.ExecHintedContext(ctx, nil, args...)
}

// ExecHintedContext is ExecContext with optimizer hints (see ExecHinted).
// Its SELECT's plans are served under the store's rule for hints.
func (p *Prepared) ExecHintedContext(ctx context.Context, hints *QueryHints, args ...Datum) (res *Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			res, err = nil, qerr.Recovered("sqldb prepared exec", r)
		}
	}()
	if err := ctxErr(ctx); err != nil {
		return nil, err
	}
	if len(args) != p.nuser {
		return nil, fmt.Errorf("sqldb: prepared statement wants %d arguments, got %d", p.nuser, len(args))
	}
	t, served := p.template, "kept"
	store := p.db.storeFor(hints)
	fresh := false
	if p.key != "" && store != nil {
		served = "hit"
		if s, ok := store.GetIf(p.key, func(s *template) bool { return s.matches(p.vals) }); ok {
			t = s
		} else {
			fresh = true
		}
	}
	res, err = p.db.runTemplate(ctx, t, t.stmt, p.text, t.args(p.vals, args), served, hints)
	if err == nil && fresh {
		store.Put(p.key, t)
	}
	return res, err
}

// runTemplate executes st — t's statement, or EXPLAIN of it — with args
// bound to t's Params, recorded under text, its SELECT's plans served from
// t as served.
func (db *DB) runTemplate(ctx context.Context, t *template, st Stmt, text string, args []Datum, served string, hints *QueryHints) (*Result, error) {
	if len(args) > 0 {
		ctx = withArgs(ctx, args)
	}
	return db.execStmtRecorded(ctx, st, text, hints, source{t, served})
}

// argsKey carries an execution's Param values through its context.
type argsKey struct{}

func withArgs(ctx context.Context, args []Datum) context.Context {
	if ctx == nil {
		ctx = context.Background()
	}
	return context.WithValue(ctx, argsKey{}, args)
}

// argsFrom returns the values of the executing statement's Params.
func argsFrom(ctx context.Context) []Datum {
	if ctx == nil {
		return nil
	}
	args, _ := ctx.Value(argsKey{}).([]Datum)
	return args
}

// bindParams returns the Rewrite function that substitutes a literal for
// each Param whose value value reports, subqueries included. It never
// fails, so neither do the traversals it runs and those it is handed to.
func bindParams(value func(idx int) (Datum, bool)) func(Expr) (Expr, error) {
	var bind func(Expr) (Expr, error)
	bind = func(e Expr) (Expr, error) {
		switch t := e.(type) {
		case *Param:
			if v, ok := value(t.Idx); ok {
				return &Lit{Val: v}, nil
			}
		case *InExpr:
			if sub, _ := RewriteSelect(t.Sub, bind); sub != t.Sub {
				// The replacement's operand is not visited: bind it here.
				x, _ := Rewrite(t.E, bind)
				return &InExpr{E: x, Sub: sub, Not: t.Not}, nil
			}
		case *SubqueryExpr:
			if q, _ := RewriteSelect(t.Query, bind); q != t.Query {
				return &SubqueryExpr{Query: q}, nil
			}
		}
		return e, nil
	}
	return bind
}

// bindStmtParams substitutes values into a copy of a statement: for a view,
// whose query outlives the execution that created it, and to render a
// template with a text's literals.
func bindStmtParams(st Stmt, value func(idx int) (Datum, bool)) Stmt {
	out, _ := rewriteStmt(st, bindParams(value))
	return out
}

// argValue reports the Param values args holds.
func argValue(args []Datum) func(int) (Datum, bool) {
	return func(i int) (Datum, bool) {
		if i < len(args) {
			return args[i], true
		}
		return Datum{}, false
	}
}
