package sqldb

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// ColumnDef describes one column of a table schema.
type ColumnDef struct {
	Name string
	Type Type
}

// Schema is an ordered list of column definitions.
type Schema []ColumnDef

// ColIndex returns the index of the named column (case-insensitive), or -1.
func (s Schema) ColIndex(name string) int {
	for i, c := range s {
		if strings.EqualFold(c.Name, name) {
			return i
		}
	}
	return -1
}

// Column is a typed columnar vector. Exactly one of the typed slices is in
// use, chosen by Type; Nulls (when non-nil) flags NULL rows.
type Column struct {
	Type   Type
	Ints   []int64
	Floats []float64
	Strs   []string
	Bools  []bool
	Blobs  [][]byte
	Nulls  []bool
}

// NewColumn allocates an empty column of the given type.
func NewColumn(t Type) *Column { return &Column{Type: t} }

// Len returns the number of rows in the column.
func (c *Column) Len() int {
	switch c.Type {
	case TInt:
		return len(c.Ints)
	case TFloat:
		return len(c.Floats)
	case TString:
		return len(c.Strs)
	case TBool:
		return len(c.Bools)
	case TBlob:
		return len(c.Blobs)
	case TNull:
		return len(c.Nulls)
	}
	return 0
}

// Get returns row i as a Datum.
func (c *Column) Get(i int) Datum {
	if c.Nulls != nil && c.Nulls[i] {
		return Null()
	}
	switch c.Type {
	case TInt:
		return Int(c.Ints[i])
	case TFloat:
		return Float(c.Floats[i])
	case TString:
		return Str(c.Strs[i])
	case TBool:
		return Bool(c.Bools[i])
	case TBlob:
		return Blob(c.Blobs[i])
	}
	return Null()
}

// Append adds a datum to the column, coercing numerics as needed.
func (c *Column) Append(d Datum) error {
	isNull := d.IsNull()
	switch c.Type {
	case TInt:
		v, ok := d.AsInt()
		if !ok && !isNull {
			return fmt.Errorf("sqldb: cannot store %s in Int64 column", d.T)
		}
		c.Ints = append(c.Ints, v)
	case TFloat:
		v, ok := d.AsFloat()
		if !ok && !isNull {
			return fmt.Errorf("sqldb: cannot store %s in Float64 column", d.T)
		}
		c.Floats = append(c.Floats, v)
	case TString:
		if d.T != TString && !isNull {
			return fmt.Errorf("sqldb: cannot store %s in String column", d.T)
		}
		c.Strs = append(c.Strs, d.S)
	case TBool:
		v, ok := d.AsBool()
		if !ok && !isNull {
			return fmt.Errorf("sqldb: cannot store %s in Bool column", d.T)
		}
		c.Bools = append(c.Bools, v)
	case TBlob:
		if d.T != TBlob && !isNull {
			return fmt.Errorf("sqldb: cannot store %s in Blob column", d.T)
		}
		c.Blobs = append(c.Blobs, d.B)
	case TNull:
		c.Nulls = append(c.Nulls, true)
		return nil
	}
	if isNull {
		c.ensureNulls()
		c.Nulls[c.Len()-1] = true
	} else if c.Nulls != nil {
		c.Nulls = append(c.Nulls, false)
	}
	return nil
}

// ApproxBytes estimates the column's materialized size for the per-query
// memory budget: fixed-width slots at their machine width, strings and
// blobs at header plus payload. It walks the string/blob payloads, so the
// executor only calls it while a budget is armed.
func (c *Column) ApproxBytes() int64 {
	var b int64
	b += int64(len(c.Ints)) * 8
	b += int64(len(c.Floats)) * 8
	b += int64(len(c.Bools))
	b += int64(len(c.Nulls))
	for _, s := range c.Strs {
		b += 16 + int64(len(s))
	}
	for _, bl := range c.Blobs {
		b += 24 + int64(len(bl))
	}
	return b
}

func (c *Column) ensureNulls() {
	if c.Nulls == nil {
		c.Nulls = make([]bool, c.Len())
	}
	for len(c.Nulls) < c.Len() {
		c.Nulls = append(c.Nulls, false)
	}
}

// Gather builds a new column holding rows[i] = c[idx[i]]. A negative index
// produces a NULL row (an outer join's padding of an unmatched side).
func (c *Column) Gather(idx []int) *Column {
	out := &Column{}
	gatherInto(out, c, idx)
	return out
}

// gatherInto is Gather into out, reusing its slices where they are large
// enough, over either index width: the aggregate's block loop gathers a
// join's int32 match pairs into the same buffers every block.
func gatherInto[I int | int32](out, c *Column, idx []I) {
	hasNeg := false
	for _, j := range idx {
		if j < 0 {
			hasNeg = true
			break
		}
	}
	*out = Column{Type: c.Type, Ints: out.Ints[:0], Floats: out.Floats[:0], Strs: out.Strs[:0],
		Bools: out.Bools[:0], Blobs: out.Blobs[:0], Nulls: out.Nulls[:0]}
	switch c.Type {
	case TInt:
		out.Ints = gatherVals(out.Ints, c.Ints, idx, hasNeg)
	case TFloat:
		out.Floats = gatherVals(out.Floats, c.Floats, idx, hasNeg)
	case TString:
		out.Strs = gatherVals(out.Strs, c.Strs, idx, hasNeg)
	case TBool:
		out.Bools = gatherVals(out.Bools, c.Bools, idx, hasNeg)
	case TBlob:
		out.Blobs = gatherVals(out.Blobs, c.Blobs, idx, hasNeg)
	case TNull:
		out.Nulls = resize(out.Nulls, len(idx))
		for i := range out.Nulls {
			out.Nulls[i] = true
		}
		return
	}
	if c.Nulls == nil && !hasNeg {
		out.Nulls = nil
		return
	}
	out.Nulls = resize(out.Nulls, len(idx))
	for i, j := range idx {
		out.Nulls[i] = j < 0 || (c.Nulls != nil && c.Nulls[j])
	}
}

// newGatherColumn allocates the n-row column that gatherAt fills from c:
// c's type, with a NULL mask when c has one or, padded, some row is NULL
// padding — the column gather over the whole index would build.
func newGatherColumn(c *Column, n int, padded bool) *Column {
	out := &Column{Type: c.Type}
	switch c.Type {
	case TInt:
		out.Ints = make([]int64, n)
	case TFloat:
		out.Floats = make([]float64, n)
	case TString:
		out.Strs = make([]string, n)
	case TBool:
		out.Bools = make([]bool, n)
	case TBlob:
		out.Blobs = make([][]byte, n)
	case TNull:
		out.Nulls = trues(n)
		return out
	}
	if c.Nulls != nil || padded {
		out.Nulls = make([]bool, n)
	}
	return out
}

// gatherAt writes c's values at idx into rows off … off+len(idx)-1 of out,
// a column newGatherColumn allocated; a negative index leaves its row NULL.
func gatherAt(out *Column, off int, c *Column, idx []int32) {
	padded := out.Nulls != nil
	switch c.Type {
	case TInt:
		putVals(out.Ints[off:], c.Ints, idx, padded)
	case TFloat:
		putVals(out.Floats[off:], c.Floats, idx, padded)
	case TString:
		putVals(out.Strs[off:], c.Strs, idx, padded)
	case TBool:
		putVals(out.Bools[off:], c.Bools, idx, padded)
	case TBlob:
		putVals(out.Blobs[off:], c.Blobs, idx, padded)
	case TNull:
		return
	}
	if padded {
		nulls := out.Nulls[off:]
		for i, j := range idx {
			nulls[i] = j < 0 || (c.Nulls != nil && c.Nulls[j])
		}
	}
}

// putVals sets dst[i] to src[idx[i]], leaving dst[i] as it is (zero) for a
// negative index; only a NULL-padded column (out.Nulls set) can have one.
func putVals[T any](dst, src []T, idx []int32, padded bool) {
	dst = dst[:len(idx)]
	if !padded {
		for i, j := range idx {
			dst[i] = src[j]
		}
		return
	}
	for i, j := range idx {
		if j >= 0 {
			dst[i] = src[j]
		}
	}
}

// gatherVals sets dst to src's values at idx, a negative index giving the
// zero value.
func gatherVals[T any, I int | int32](dst, src []T, idx []I, hasNeg bool) []T {
	dst = resize(dst, len(idx))
	if !hasNeg {
		for i, j := range idx {
			dst[i] = src[j]
		}
		return dst
	}
	var zero T
	for i, j := range idx {
		if j >= 0 {
			dst[i] = src[j]
		} else {
			dst[i] = zero
		}
	}
	return dst
}

// resize returns s with length n, reallocated only when its capacity is
// short.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// SnapshotCols returns stable shallow copies of the table's column headers:
// the returned columns share backing arrays with the table but keep their
// lengths fixed, so concurrent appends (which only write beyond these
// lengths) cannot be observed through them.
func (t *Table) SnapshotCols() []*Column {
	t.mu.RLock()
	defer t.mu.RUnlock()
	out := make([]*Column, len(t.Cols))
	for i, c := range t.Cols {
		cc := *c
		out[i] = &cc
	}
	return out
}

// Table is an in-memory columnar table.
type Table struct {
	Name   string
	Schema Schema
	Cols   []*Column
	mu     sync.RWMutex
	// distinct caches per-column distinct-value counts for the optimizer
	// (0 = not computed yet); every write drops it.
	distinct []int
	// version counts writes (append/update/delete/truncate). The plan cache
	// records it per dependency and replans when it moves — the
	// "invalidated on DDL/INSERT" half of the cache contract.
	version atomic.Int64
}

// Version returns the table's write-version counter. It increases on every
// mutation (row appends, UPDATE, DELETE, TRUNCATE); cached plans record the
// versions of every table they depend on and are invalidated when any
// recorded version moves.
func (t *Table) Version() int64 { return t.version.Load() }

// NewTable creates an empty table with the given schema.
func NewTable(name string, schema Schema) *Table {
	t := &Table{Name: name, Schema: schema}
	for _, c := range schema {
		t.Cols = append(t.Cols, NewColumn(c.Type))
	}
	return t
}

// NumRows returns the current row count.
func (t *Table) NumRows() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if len(t.Cols) == 0 {
		return 0
	}
	return t.Cols[0].Len()
}

// AppendRow adds one row; the row length must match the schema.
func (t *Table) AppendRow(row []Datum) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.appendRowLocked(row)
}

func (t *Table) appendRowLocked(row []Datum) error {
	if len(row) != len(t.Schema) {
		return fmt.Errorf("sqldb: table %s expects %d values, got %d", t.Name, len(t.Schema), len(row))
	}
	for i, d := range row {
		if err := t.Cols[i].Append(d); err != nil {
			return fmt.Errorf("sqldb: table %s column %s: %w", t.Name, t.Schema[i].Name, err)
		}
	}
	t.invalidateDerivedLocked()
	return nil
}

// AppendColumns bulk-appends rows given column-wise: one column per schema
// column, all of one length. It takes the table lock once and bumps the
// version once, and it copies the input, so callers may reuse or mutate
// their columns afterwards. Columns of another type are coerced as
// AppendRow coerces values; a column that cannot be coerced fails the whole
// call before anything is appended.
func (t *Table) AppendColumns(cols []*Column) error {
	if len(cols) != len(t.Schema) {
		return fmt.Errorf("sqldb: table %s expects %d columns, got %d", t.Name, len(t.Schema), len(cols))
	}
	n := 0
	for i, c := range cols {
		if i == 0 {
			n = c.Len()
		} else if c.Len() != n {
			return fmt.Errorf("sqldb: table %s: column %s has %d rows, column %s has %d",
				t.Name, t.Schema[0].Name, n, t.Schema[i].Name, c.Len())
		}
		if err := storable(c, t.Schema[i].Type); err != nil {
			return fmt.Errorf("sqldb: table %s column %s: %w", t.Name, t.Schema[i].Name, err)
		}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for i, c := range cols {
		dst := t.Cols[i]
		if c.Type == dst.Type || c.Type == TNull {
			dst.appendFrom(c)
			continue
		}
		for r := 0; r < n; r++ {
			_ = dst.Append(c.Get(r)) // storable checked the coercion
		}
	}
	t.invalidateDerivedLocked()
	return nil
}

// storable reports whether every value of c can be appended to a column of
// type t: same type, numeric/boolean into numeric/boolean, or NULL.
func storable(c *Column, t Type) error {
	if c.Type == t || c.Type == TNull {
		return nil
	}
	numeric := func(x Type) bool { return x == TInt || x == TFloat || x == TBool }
	if numeric(c.Type) && numeric(t) {
		return nil
	}
	for r, n := 0, c.Len(); r < n; r++ {
		if c.Nulls == nil || !c.Nulls[r] {
			return fmt.Errorf("sqldb: cannot store %s in %s column", c.Type, t)
		}
	}
	return nil
}

// GetRow materializes row i as a slice of data.
func (t *Table) GetRow(i int) []Datum {
	t.mu.RLock()
	defer t.mu.RUnlock()
	row := make([]Datum, len(t.Cols))
	for j, c := range t.Cols {
		row[j] = c.Get(i)
	}
	return row
}

// invalidateDerivedLocked drops cached statistics after a write and
// advances the version counter the plan cache validates against.
func (t *Table) invalidateDerivedLocked() {
	t.distinct = nil
	t.version.Add(1)
}

// Truncate removes all rows, keeping the schema.
func (t *Table) Truncate() {
	t.mu.Lock()
	defer t.mu.Unlock()
	for i, c := range t.Schema {
		t.Cols[i] = NewColumn(c.Type)
	}
	t.invalidateDerivedLocked()
}

// deleteRowsLocked removes the given row indices (sorted or not). The
// caller holds the write lock it found the rows under, so no other writer
// can shift them in between.
func (t *Table) deleteRowsLocked(idx []int) {
	if len(idx) == 0 {
		return
	}
	dead := make(map[int]bool, len(idx))
	for _, i := range idx {
		dead[i] = true
	}
	n := t.Cols[0].Len()
	keep := make([]int, 0, n-len(dead))
	for i := 0; i < n; i++ {
		if !dead[i] {
			keep = append(keep, i)
		}
	}
	for i, c := range t.Cols {
		t.Cols[i] = c.Gather(keep)
	}
	t.invalidateDerivedLocked()
}

// Distinct returns the optimizer's distinct-value count for the named
// column, computed on first use and cached until the next write; ok is
// false for unknown and Blob columns (never join keys). The count is exact
// over the first 64k rows and extrapolated when the sample looks
// near-unique, which is how production engines keep statistics cheap.
func (t *Table) Distinct(col string) (d int, ok bool) {
	ci := t.Schema.ColIndex(col)
	if ci < 0 || t.Schema[ci].Type == TBlob {
		return 0, false
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.distinct == nil {
		t.distinct = make([]int, len(t.Schema))
	}
	if d := t.distinct[ci]; d > 0 {
		return d, true
	}
	c := t.Cols[ci]
	n := c.Len()
	limit := n
	const sampleCap = 65536
	if limit > sampleCap {
		limit = sampleCap
	}
	sample := &Column{}
	c.sliceInto(sample, 0, limit) // a dense window spans the sample only
	keys := []vec{{col: sample}}
	kt := newKeyTable(keys)
	kt.number(keys, 0, limit, make([]int32, limit))
	d = kt.len()
	if n > limit && d > limit/2 {
		// Looks near-unique in the sample; assume it scales.
		d = d * n / limit
	}
	if d == 0 {
		d = 1
	}
	t.distinct[ci] = d
	return d, true
}

// SortedColumnNames lists schema columns alphabetically (used in error text
// and introspection commands).
func (t *Table) SortedColumnNames() []string {
	names := make([]string, len(t.Schema))
	for i, c := range t.Schema {
		names[i] = c.Name
	}
	sort.Strings(names)
	return names
}
