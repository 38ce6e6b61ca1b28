package sqldb

// Statement-scoped relations: tables outside the catalog that a caller
// binds by name to the statements it runs under one context. There a
// bound name takes precedence over a catalog table, view or sys.* table,
// and resolves so wherever a relation is read by name: planning,
// estimates, a stored plan's check (cache.go) and the scan. The plan store
// serves such a statement like any other, while the relation read under
// each name fits the plan.

import (
	"context"
	"strings"
)

// Relations maps names, case-insensitively, to the tables bound to the
// statements run under a context that carries it. It must not change while
// such a statement runs; between statements its owner may bind and rebind.
type Relations map[string]*Table

// Bind binds t under name, replacing any earlier binding of that name.
func (r Relations) Bind(name string, t *Table) { r[strings.ToLower(name)] = t }

// lookup returns the table bound under name, or nil.
func (r Relations) lookup(name string) *Table { return r[strings.ToLower(name)] }

type relationsKey struct{}

// WithRelations returns a context whose statements read rels' tables ahead
// of the catalog's.
func WithRelations(ctx context.Context, rels Relations) context.Context {
	return context.WithValue(ctx, relationsKey{}, rels)
}

func relationsFrom(ctx context.Context) Relations {
	if ctx == nil {
		return nil
	}
	r, _ := ctx.Value(relationsKey{}).(Relations)
	return r
}

// relation resolves a table name for a statement that binds rels: its
// bound relation, else the catalog table, else nil.
func (db *DB) relation(rels Relations, name string) *Table {
	if t := rels.lookup(name); t != nil {
		return t
	}
	return db.lookupTable(name)
}

// Table returns the result as a table named name, typed as CREATE TABLE
// … AS would type it, for binding to later statements. Columns of the
// schema's type are shared, not copied, so neither the result nor the
// table may be written after.
func (r *Result) Table(name string) (*Table, error) {
	t := &Table{Name: name, Schema: resultSchema(r), Cols: r.Cols}
	for i, c := range r.Cols {
		if c.Type != t.Schema[i].Type {
			t = NewTable(name, t.Schema)
			return t, t.AppendColumns(r.Cols)
		}
	}
	return t, nil
}
