package sqldb

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/cache"
	"repro/internal/faults"
	"repro/internal/obs"
)

// DB is an embedded in-memory database instance.
type DB struct {
	mu     sync.RWMutex
	tables map[string]*Table
	views  map[string]*View
	udfs   map[string]*ScalarUDF

	// Parallelism caps the morsel-driven executor's per-operator worker
	// count: 0 means the process default (runtime.NumCPU(), adjustable via
	// par.SetDefaultDegree), 1 forces serial execution, N > 1 uses up to N
	// workers. Parallel execution preserves serial result order and, except
	// for the usual floating-point summation reordering in parallel
	// aggregates, serial results exactly.
	Parallelism int

	// Metrics, when non-nil, receives executor counters (parallel operator
	// and morsel totals). A nil registry costs nothing.
	Metrics *obs.Registry

	// History, when non-nil, receives one QueryRecord per statement
	// executed through the public entry points: normalized SQL, cache
	// state, per-query resource accounting (rows, bytes, morsels, UDF
	// calls), wall/busy time, and error class. The sys.queries and
	// sys.slow_queries virtual tables render it relationally. A nil
	// history keeps execution on the unrecorded fast path.
	History *obs.QueryHistory

	// Traces, when non-nil, arms request-scoped tracing: every statement
	// executed through the public entry points gets (or joins) a trace
	// whose span tree the store tail-samples into sys.traces / sys.spans.
	// A nil store keeps execution on the untraced fast path.
	Traces *obs.TraceStore

	// MemoryBudget caps the approximate bytes one query may materialize
	// across operator outputs; a query exceeding it fails with an error
	// matching qerr.ErrMemoryBudget instead of OOMing the process. 0 (the
	// default) disables the guard at the cost of one branch per plan node.
	MemoryBudget int64

	// Faults, when non-nil, is the fault-injection hook for chaos testing:
	// the executor consults it at morsel boundaries ("morsel.delay") and
	// for budget pressure ("mem.pressure"). Nil in production; see
	// internal/faults.
	Faults *faults.Injector

	// stmtCache maps normalized SQL text to its parsed statement and
	// planCache maps canonical SELECT text to a plan-store entry. Both are
	// nil until EnableCache; see cache.go for the plan store's rule.
	stmtCache *cache.LRU[string, Stmt]
	planCache *cache.LRU[string, *keptPlan]
	// planInvalidations counts lookups that found a stored entry whose
	// planner inputs had moved.
	planInvalidations atomic.Int64
	// handles are the engine's metric handles in Metrics (accounting.go).
	handles atomic.Pointer[engineMetrics]

	// sysTables is the virtual-table catalog (see systable.go); nil until
	// EnableSysCatalog or RegisterSysTable. sysCacheFns are extra
	// sys.cache row providers from higher layers.
	sysTables   map[string]*SysTable
	sysCacheFns []func() []CacheStat

	leftJoinSeq int // composite-relation alias counter

	// udfGen counts UDF registrations and removals; a stored plan is made
	// for one generation (see cache.go).
	udfGen atomic.Int64
}

// View is a named stored SELECT.
type View struct {
	Name  string
	Query *SelectStmt
}

// New creates an empty database.
func New() *DB {
	return &DB{
		tables: map[string]*Table{},
		views:  map[string]*View{},
		udfs:   map[string]*ScalarUDF{},
	}
}

func (db *DB) lookupTable(name string) *Table {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.tables[strings.ToLower(name)]
}

func (db *DB) lookupView(name string) *View {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.views[strings.ToLower(name)]
}

func (db *DB) lookupUDF(name string) *ScalarUDF {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.udfs[strings.ToLower(name)]
}

// RegisterUDF installs (or replaces) a scalar UDF. This is the engine's
// loose-integration extension point: binding a model for the DB-UDF
// strategy registers its nUDF here, once.
func (db *DB) RegisterUDF(udf *ScalarUDF) {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.udfs[strings.ToLower(udf.Name)] = udf
	db.udfGen.Add(1)
}

// UnregisterUDF removes a UDF.
func (db *DB) UnregisterUDF(name string) {
	db.mu.Lock()
	defer db.mu.Unlock()
	delete(db.udfs, strings.ToLower(name))
	db.udfGen.Add(1)
}

// CreateTable registers a new table; it fails if the name is taken.
func (db *DB) CreateTable(name string, schema Schema) (*Table, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	key := strings.ToLower(name)
	if _, exists := db.tables[key]; exists {
		return nil, fmt.Errorf("sqldb: table %q already exists", name)
	}
	if _, exists := db.views[key]; exists {
		return nil, fmt.Errorf("sqldb: a view named %q already exists", name)
	}
	t := NewTable(name, schema)
	db.tables[key] = t
	return t, nil
}

// GetTable returns a table by name, or nil.
func (db *DB) GetTable(name string) *Table { return db.lookupTable(name) }

// DropTable removes a table or view by name.
func (db *DB) DropTable(name string) bool {
	db.mu.Lock()
	defer db.mu.Unlock()
	key := strings.ToLower(name)
	if _, ok := db.tables[key]; ok {
		delete(db.tables, key)
		return true
	}
	if _, ok := db.views[key]; ok {
		delete(db.views, key)
		return true
	}
	return false
}

// TableNames lists all base tables.
func (db *DB) TableNames() []string {
	db.mu.RLock()
	defer db.mu.RUnlock()
	out := make([]string, 0, len(db.tables))
	for _, t := range db.tables {
		out = append(out, t.Name)
	}
	return out
}

// Exec parses and executes one or more semicolon-separated SQL statements,
// returning the result of the last one (nil for DDL/DML statements).
func (db *DB) Exec(sql string) (*Result, error) {
	return db.ExecHintedContext(context.Background(), sql, nil)
}

// Query is Exec restricted to a single SELECT.
func (db *DB) Query(sql string) (*Result, error) {
	return db.QueryContext(context.Background(), sql)
}

// ExecHinted executes statements with optimizer hints applied (the
// DL2SQL-OP pathway).
func (db *DB) ExecHinted(sql string, hints *QueryHints) (*Result, error) {
	return db.ExecHintedContext(context.Background(), sql, hints)
}

// ExecStmt runs one pre-parsed statement.
func (db *DB) ExecStmt(st Stmt, hints *QueryHints) (*Result, error) {
	return db.ExecStmtContext(context.Background(), st, hints)
}

// PlanSelect exposes planning without execution (for EXPLAIN-style tests
// and the hint experiments).
func (db *DB) PlanSelect(sql string, hints *QueryHints) (Plan, error) {
	stmt, err := Parse(sql)
	if err != nil {
		return nil, err
	}
	sel, ok := stmt.(*SelectStmt)
	if !ok {
		return nil, fmt.Errorf("sqldb: PlanSelect expects a SELECT, got %T", stmt)
	}
	return db.planSelect(context.Background(), sel, hints)
}

func (db *DB) execStmt(ctx context.Context, st Stmt, hints *QueryHints) (*Result, error) {
	return db.execStmtWith(ctx, st, hints, db.runSelect)
}

// selectRunner runs the SELECT a statement reads: db.runSelect, or a
// Prepared statement's run from the plan store.
type selectRunner func(ctx context.Context, sel *SelectStmt, hints *QueryHints) (*Result, error)

// execStmtWith executes st, running the SELECT of a SELECT, CREATE TABLE
// … AS or INSERT … SELECT statement through run.
func (db *DB) execStmtWith(ctx context.Context, st Stmt, hints *QueryHints, run selectRunner) (*Result, error) {
	switch t := st.(type) {
	case *SelectStmt:
		return run(ctx, t, hints)
	case *CreateTableStmt:
		return nil, db.runCreateTable(ctx, t, hints, run)
	case *CreateViewStmt:
		return nil, db.runCreateView(t)
	case *InsertStmt:
		return nil, db.runInsert(ctx, t, hints, run)
	case *UpdateStmt:
		return nil, db.runUpdate(ctx, t, hints)
	case *DeleteStmt:
		return nil, db.runDelete(ctx, t, hints)
	case *DropStmt:
		if !db.DropTable(t.Name) && !t.IfExists {
			return nil, fmt.Errorf("sqldb: cannot drop %q: does not exist", t.Name)
		}
		return nil, nil
	case *ExplainStmt:
		plans, state, commit, err := db.plansFor(ctx, &storedSelect{sel: t.Query}, hints)
		if err != nil {
			return nil, err
		}
		plan := plans[0]
		if len(plans) > 1 {
			plan = &unionPlan{Branches: plans}
		}
		text := Explain(plan)
		if t.Analyze {
			// EXPLAIN ANALYZE executes the plan with a per-node stats
			// collector and renders actual rows/calls/time next to the
			// optimizer's estimates.
			ec := db.newExecCtx(ctx)
			ec.nodes = map[Plan]*NodeStats{}
			if _, err := db.execPlan(plan, ec); err != nil {
				return nil, err
			}
			text = ExplainAnalyze(plan, ec.nodes)
		}
		commit()
		if state != "disabled" {
			// With caching on, the first line reports where the plan came
			// from (see plansFor): "hit" from the store, "miss" planned
			// and stored, "bypass" planned and never stored — a plan that
			// folded a subquery, reads a sys.* table or is pinned by a
			// JoinOrder hint, or a UDF-calling plan made under UDF hints.
			text = "cache: " + state + "\n" + text
		}
		out := &Result{Schema: []OutCol{{Name: "plan", Type: TString}}, Cols: []*Column{NewColumn(TString)}}
		for _, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
			if err := out.Cols[0].Append(Str(line)); err != nil {
				return nil, err
			}
		}
		return out, nil
	}
	return nil, fmt.Errorf("sqldb: cannot execute statement %T", st)
}

// runSelect runs a SELECT from the plan store.
func (db *DB) runSelect(ctx context.Context, sel *SelectStmt, hints *QueryHints) (*Result, error) {
	return db.runStored(ctx, &storedSelect{sel: sel}, hints, nil)
}

// appendBranch appends a UNION ALL branch's rows to res, matching columns
// by position.
func appendBranch(res, br *Result) error {
	if len(br.Cols) != len(res.Cols) {
		return fmt.Errorf("sqldb: UNION ALL branch yields %d columns, want %d", len(br.Cols), len(res.Cols))
	}
	for ci := range res.Cols {
		appended, err := appendColumn(res.Cols[ci], br.Cols[ci])
		if err != nil {
			return fmt.Errorf("sqldb: UNION ALL column %d: %w", ci+1, err)
		}
		res.Cols[ci] = appended
	}
	return nil
}

// appendColumn concatenates b's rows onto a copy of a (type-coerced).
func appendColumn(a, b *Column) (*Column, error) {
	t := a.Type
	if t == TNull {
		t = b.Type
	}
	out := NewColumn(t)
	for _, src := range []*Column{a, b} {
		if src.Type == t || src.Type == TNull {
			out.appendFrom(src)
			continue
		}
		for i, n := 0, src.Len(); i < n; i++ {
			if err := out.Append(src.Get(i)); err != nil {
				return nil, err
			}
		}
	}
	return out, nil
}

func (db *DB) runCreateTable(ctx context.Context, st *CreateTableStmt, hints *QueryHints, run selectRunner) error {
	if st.IfNotExists && db.lookupTable(st.Name) != nil {
		return nil
	}
	if st.As == nil {
		_, err := db.CreateTable(st.Name, Schema(st.Cols))
		return err
	}
	res, err := run(ctx, st.As, hints)
	if err != nil {
		return err
	}
	schema := resultSchema(res)
	if len(st.Cols) > 0 {
		if len(st.Cols) != len(schema) {
			return fmt.Errorf("sqldb: CREATE TABLE %s declares %d columns but SELECT yields %d", st.Name, len(st.Cols), len(schema))
		}
		schema = Schema(st.Cols)
	}
	t, err := db.CreateTable(st.Name, schema)
	if err != nil {
		return err
	}
	sp := writeSpan(ctx, "Insert ", t.Name)
	if err := t.AppendColumns(res.Cols); err != nil {
		return err
	}
	endWrite(sp, res.NumRows())
	return nil
}

// resultSchema is the table schema a SELECT's result is stored under.
func resultSchema(res *Result) Schema {
	schema := make(Schema, len(res.Schema))
	for i, c := range res.Schema {
		typ := c.Type
		if typ == TNull {
			typ = res.Cols[i].Type
		}
		if typ == TNull {
			typ = TFloat // empty untyped columns default to Float64
		}
		name := c.Name
		if name == "" {
			name = fmt.Sprintf("col%d", i+1)
		}
		schema[i] = ColumnDef{Name: name, Type: typ}
	}
	return schema
}

// writeSpan opens the span that times a DML statement's write into table,
// labelled "<verb><table>" through the scan-label cache; nil when the
// statement is not traced.
func writeSpan(ctx context.Context, verb, table string) *obs.Span {
	parent := obs.SpanFromContext(ctx)
	if parent == nil {
		return nil
	}
	return parent.StartChild(scanLabel(verb, table))
}

// endWrite closes a writeSpan with the number of rows written.
func endWrite(sp *obs.Span, rows int) {
	sp.SetAttr("rows", rows)
	sp.Finish()
}

func (db *DB) runCreateView(st *CreateViewStmt) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	key := strings.ToLower(st.Name)
	if _, exists := db.tables[key]; exists {
		return fmt.Errorf("sqldb: a table named %q already exists", st.Name)
	}
	if _, exists := db.views[key]; exists && !st.OrReplace {
		return fmt.Errorf("sqldb: view %q already exists", st.Name)
	}
	db.views[key] = &View{Name: st.Name, Query: st.As}
	return nil
}

func (db *DB) runInsert(ctx context.Context, st *InsertStmt, hints *QueryHints, run selectRunner) error {
	t := db.lookupTable(st.Table)
	if t == nil {
		return fmt.Errorf("sqldb: no table named %q", st.Table)
	}
	// Column mapping: position i of the provided row maps to table column
	// mapping[i].
	mapping := make([]int, 0, len(t.Schema))
	if len(st.Cols) == 0 {
		for i := range t.Schema {
			mapping = append(mapping, i)
		}
	} else {
		for _, c := range st.Cols {
			idx := t.Schema.ColIndex(c)
			if idx < 0 {
				return fmt.Errorf("sqldb: table %s has no column %q", st.Table, c)
			}
			mapping = append(mapping, idx)
		}
	}
	cols := make([]*Column, len(t.Schema))
	if st.Query != nil {
		res, err := run(ctx, st.Query, hints)
		if err != nil {
			return err
		}
		sp := writeSpan(ctx, "Insert ", t.Name)
		n := res.NumRows()
		if n > 0 && len(res.Cols) != len(mapping) {
			return fmt.Errorf("sqldb: INSERT into %s expects %d values, got %d", st.Table, len(mapping), len(res.Cols))
		}
		for i := range cols {
			cols[i] = &Column{Type: TNull, Nulls: trues(n)}
		}
		for i, m := range mapping {
			if i < len(res.Cols) {
				cols[m] = res.Cols[i]
			}
		}
		if err := t.AppendColumns(cols); err != nil {
			return err
		}
		endWrite(sp, n)
		return nil
	}
	// VALUES rows are staged column-wise in the table's types, then
	// appended in one call: the statement inserts all of its rows or none.
	sp := writeSpan(ctx, "Insert ", t.Name)
	for i, c := range t.Schema {
		cols[i] = NewColumn(c.Type)
	}
	empty := &Result{}
	row := make([]Datum, len(t.Schema))
	for _, rowExprs := range st.Values {
		if len(rowExprs) != len(mapping) {
			return fmt.Errorf("sqldb: INSERT into %s expects %d values, got %d", st.Table, len(mapping), len(rowExprs))
		}
		for i := range row {
			row[i] = Null()
		}
		for i, e := range rowExprs {
			x, err := db.compileVec(ctx, e, nil)
			if err != nil {
				return err
			}
			v, err := x.eval(empty, sel{hi: 1})
			if err != nil {
				return err
			}
			row[mapping[i]] = v.get(0)
		}
		for i, v := range row {
			if err := cols[i].Append(v); err != nil {
				return fmt.Errorf("sqldb: table %s column %s: %w", t.Name, t.Schema[i].Name, err)
			}
		}
	}
	if err := t.AppendColumns(cols); err != nil {
		return err
	}
	endWrite(sp, len(st.Values))
	return nil
}

func (db *DB) runUpdate(ctx context.Context, st *UpdateStmt, hints *QueryHints) error {
	t := db.lookupTable(st.Table)
	if t == nil {
		return fmt.Errorf("sqldb: no table named %q", st.Table)
	}
	schema := make([]OutCol, len(t.Schema))
	for i, c := range t.Schema {
		schema[i] = OutCol{Table: st.Table, Name: c.Name, Type: c.Type}
	}
	sub := &planner{db: db, ctx: ctx, hints: hints}
	var where *vecExpr
	if st.Where != nil {
		rewritten, err := sub.rewriteSubqueries(st.Where)
		if err != nil {
			return err
		}
		x, err := db.compileVec(ctx, rewritten, schema)
		if err != nil {
			return err
		}
		where = &x
	}
	type setter struct {
		col int
		x   vecExpr
	}
	setters := make([]setter, 0, len(st.Set))
	for col, e := range st.Set {
		idx := t.Schema.ColIndex(col)
		if idx < 0 {
			return fmt.Errorf("sqldb: table %s has no column %q", st.Table, col)
		}
		rewritten, err := sub.rewriteSubqueries(e)
		if err != nil {
			return err
		}
		x, err := db.compileVec(ctx, rewritten, schema)
		if err != nil {
			return err
		}
		setters = append(setters, setter{col: idx, x: x})
	}
	sp := writeSpan(ctx, "Update ", t.Name)
	t.mu.Lock()
	defer t.mu.Unlock()
	// WHERE selects the rows; every SET expression is then evaluated over
	// them against the pre-update columns before any is written, so
	// `SET a = b, b = a` swaps.
	view := &Result{Schema: schema, Cols: t.Cols}
	s := sel{hi: view.NumRows()}
	if where != nil {
		keep, err := where.keep(view, s)
		if err != nil {
			return err
		}
		s = sel{idx: keep}
	}
	vals := make([]vec, len(setters))
	for i, set := range setters {
		v, err := set.x.eval(view, s)
		if err != nil {
			return err
		}
		if len(setters) > 1 {
			v = v.clone() // it may share a column an earlier setter writes
		}
		vals[i] = v
	}
	for i, set := range setters {
		for j, n := 0, s.len(); j < n; j++ {
			if err := setColumnValue(t.Cols[set.col], s.row(j), vals[i].get(j)); err != nil {
				return fmt.Errorf("sqldb: UPDATE %s.%s: %w", st.Table, t.Schema[set.col].Name, err)
			}
		}
	}
	t.invalidateDerivedLocked()
	endWrite(sp, s.len())
	return nil
}

// setColumnValue overwrites row i of a column in place.
func setColumnValue(c *Column, i int, v Datum) error {
	if v.IsNull() {
		c.ensureNulls()
		c.Nulls[i] = true
		return nil
	}
	if c.Nulls != nil {
		c.Nulls[i] = false
	}
	switch c.Type {
	case TInt:
		x, ok := v.AsInt()
		if !ok {
			return fmt.Errorf("cannot assign %s to Int64", v.T)
		}
		c.Ints[i] = x
	case TFloat:
		x, ok := v.AsFloat()
		if !ok {
			return fmt.Errorf("cannot assign %s to Float64", v.T)
		}
		c.Floats[i] = x
	case TString:
		if v.T != TString {
			return fmt.Errorf("cannot assign %s to String", v.T)
		}
		c.Strs[i] = v.S
	case TBool:
		x, ok := v.AsBool()
		if !ok {
			return fmt.Errorf("cannot assign %s to Bool", v.T)
		}
		c.Bools[i] = x
	case TBlob:
		if v.T != TBlob {
			return fmt.Errorf("cannot assign %s to Blob", v.T)
		}
		c.Blobs[i] = v.B
	}
	return nil
}

func (db *DB) runDelete(ctx context.Context, st *DeleteStmt, hints *QueryHints) error {
	t := db.lookupTable(st.Table)
	if t == nil {
		return fmt.Errorf("sqldb: no table named %q", st.Table)
	}
	if st.Where == nil {
		sp := writeSpan(ctx, "Delete ", t.Name)
		n := t.NumRows()
		t.Truncate()
		endWrite(sp, n)
		return nil
	}
	schema := make([]OutCol, len(t.Schema))
	for i, c := range t.Schema {
		schema[i] = OutCol{Table: st.Table, Name: c.Name, Type: c.Type}
	}
	rewritten, err := (&planner{db: db, ctx: ctx, hints: hints}).rewriteSubqueries(st.Where)
	if err != nil {
		return err
	}
	where, err := db.compileVec(ctx, rewritten, schema)
	if err != nil {
		return err
	}
	// Find and remove under one write lock: a writer slipping in between
	// would shift the row indices found.
	sp := writeSpan(ctx, "Delete ", t.Name)
	t.mu.Lock()
	defer t.mu.Unlock()
	view := &Result{Schema: schema, Cols: t.Cols}
	dead, err := where.keep(view, sel{hi: view.NumRows()})
	if err != nil {
		return err
	}
	t.deleteRowsLocked(dead)
	endWrite(sp, len(dead))
	return nil
}
