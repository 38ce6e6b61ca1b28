// Package sqldb is an embedded, in-memory, column-oriented SQL engine — the
// repository's stand-in for the in-memory ClickHouse deployment the paper
// modifies. It provides columnar storage, a SQL dialect covering the paper's
// generated queries (CREATE TEMP TABLE ... AS SELECT, views, inner joins,
// grouped aggregation with stddevSamp, scalar subqueries, UPDATE), a
// cost-based optimizer with pluggable cardinality estimation and hint
// support, scalar UDF registration (the nUDF extension point), and
// per-operator execution profiling used by the paper's Fig. 10 experiment.
package sqldb

import (
	"fmt"
	"strconv"
	"strings"
)

// Type is a column type.
type Type uint8

// Column types. Dates are carried as ISO-8601 strings, which preserve
// ordering under string comparison (the paper's queries only ever compare
// date literals).
const (
	TNull Type = iota
	TInt
	TFloat
	TString
	TBool
	TBlob
)

// String names the type as it appears in CREATE TABLE.
func (t Type) String() string {
	switch t {
	case TNull:
		return "NULL"
	case TInt:
		return "Int64"
	case TFloat:
		return "Float64"
	case TString:
		return "String"
	case TBool:
		return "Bool"
	case TBlob:
		return "Blob"
	}
	return fmt.Sprintf("Type(%d)", uint8(t))
}

// ParseType maps SQL type names (a ClickHouse-flavoured set plus common
// aliases) to engine types.
func ParseType(s string) (Type, error) {
	switch strings.ToLower(s) {
	case "int", "int8", "int16", "int32", "int64", "uint8", "uint16", "uint32", "uint64", "integer", "bigint":
		return TInt, nil
	case "float", "float32", "float64", "double", "real", "decimal":
		return TFloat, nil
	case "string", "text", "varchar", "date", "datetime":
		return TString, nil
	case "bool", "boolean":
		return TBool, nil
	case "blob", "bytes", "binary":
		return TBlob, nil
	}
	return TNull, fmt.Errorf("sqldb: unknown type %q", s)
}

// Datum is a single SQL value: a tagged union over the engine types.
type Datum struct {
	T Type
	I int64
	F float64
	S string
	B []byte
}

// Null returns the SQL NULL datum.
func Null() Datum { return Datum{T: TNull} }

// Int wraps an int64 as an Int64 datum.
func Int(v int64) Datum { return Datum{T: TInt, I: v} }

// Float wraps a float64 as a Float64 datum.
func Float(v float64) Datum { return Datum{T: TFloat, F: v} }

// Str wraps a string as a String datum.
func Str(v string) Datum { return Datum{T: TString, S: v} }

// Blob wraps a byte slice as a Blob datum (the slice is not copied).
func Blob(v []byte) Datum { return Datum{T: TBlob, B: v} }

// Bool wraps a bool as a Bool datum.
func Bool(v bool) Datum {
	if v {
		return Datum{T: TBool, I: 1}
	}
	return Datum{T: TBool}
}

// IsNull reports whether the datum is SQL NULL.
func (d Datum) IsNull() bool { return d.T == TNull }

// AsFloat coerces numeric and boolean data to float64.
func (d Datum) AsFloat() (float64, bool) {
	switch d.T {
	case TInt:
		return float64(d.I), true
	case TFloat:
		return d.F, true
	case TBool:
		return float64(d.I), true
	}
	return 0, false
}

// AsInt coerces numeric and boolean data to int64 (floats truncate).
func (d Datum) AsInt() (int64, bool) {
	switch d.T {
	case TInt, TBool:
		return d.I, true
	case TFloat:
		return int64(d.F), true
	}
	return 0, false
}

// AsBool interprets the datum as a SQL boolean.
func (d Datum) AsBool() (bool, bool) {
	switch d.T {
	case TBool, TInt:
		return d.I != 0, true
	case TFloat:
		return d.F != 0, true
	}
	return false, false
}

// Compare orders two data. NULL sorts first. Numeric types compare
// numerically across int/float/bool, NaN equal to NaN and above every
// other number; otherwise types must match.
func Compare(a, b Datum) (int, error) {
	if a.IsNull() || b.IsNull() {
		switch {
		case a.IsNull() && b.IsNull():
			return 0, nil
		case a.IsNull():
			return -1, nil
		default:
			return 1, nil
		}
	}
	af, aNum := a.AsFloat()
	bf, bNum := b.AsFloat()
	if aNum && bNum {
		return cmpFloat(af, bf), nil
	}
	if a.T == TString && b.T == TString {
		return strings.Compare(a.S, b.S), nil
	}
	if a.T == TBlob && b.T == TBlob {
		return strings.Compare(string(a.B), string(b.B)), nil
	}
	return 0, fmt.Errorf("sqldb: cannot compare %s with %s", a.T, b.T)
}

// cmpFloat orders two numbers as Compare does: NaN equals NaN and sorts
// above every other number, so the order is total.
func cmpFloat(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	case a == b:
		return 0
	case a != a && b != b:
		return 0
	case a != a:
		return 1
	}
	return -1
}

// Equal reports SQL equality (NULL equals nothing, including NULL).
func Equal(a, b Datum) bool {
	if a.IsNull() || b.IsNull() {
		return false
	}
	c, err := Compare(a, b)
	return err == nil && c == 0
}

// String renders the datum for result display.
func (d Datum) String() string {
	switch d.T {
	case TNull:
		return "NULL"
	case TInt:
		return strconv.FormatInt(d.I, 10)
	case TFloat:
		return strconv.FormatFloat(d.F, 'g', -1, 64)
	case TString:
		return d.S
	case TBool:
		if d.I != 0 {
			return "true"
		}
		return "false"
	case TBlob:
		return fmt.Sprintf("<blob %dB>", len(d.B))
	}
	return "?"
}
