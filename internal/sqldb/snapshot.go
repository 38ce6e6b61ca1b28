package sqldb

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
	"strings"
)

// Snapshot persistence: the paper deploys the database on edge devices that
// collect real-time sensor data; a production embedded engine needs a way
// to persist and restore its state across restarts. The snapshot format is
// a simple column-serialized binary image of all base tables and view
// definitions (UDFs, being native code, re-register at startup).

const snapshotMagic = "SQLDBSN1"

type snapWriter struct {
	w   *bufio.Writer
	err error
}

func (sw *snapWriter) u8(v uint8) {
	if sw.err == nil {
		sw.err = sw.w.WriteByte(v)
	}
}

func (sw *snapWriter) u64(v uint64) {
	if sw.err != nil {
		return
	}
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	_, sw.err = sw.w.Write(b[:])
}

func (sw *snapWriter) str(s string) {
	sw.u64(uint64(len(s)))
	if sw.err == nil {
		_, sw.err = sw.w.WriteString(s)
	}
}

func (sw *snapWriter) bytes(b []byte) {
	sw.u64(uint64(len(b)))
	if sw.err == nil {
		_, sw.err = sw.w.Write(b)
	}
}

type snapReader struct {
	r   *bufio.Reader
	err error
}

func (sr *snapReader) u8() uint8 {
	if sr.err != nil {
		return 0
	}
	b, err := sr.r.ReadByte()
	sr.err = err
	return b
}

func (sr *snapReader) u64() uint64 {
	if sr.err != nil {
		return 0
	}
	var b [8]byte
	_, sr.err = io.ReadFull(sr.r, b[:])
	return binary.LittleEndian.Uint64(b[:])
}

func (sr *snapReader) str() string {
	n := sr.u64()
	if sr.err != nil {
		return ""
	}
	b := make([]byte, n)
	_, sr.err = io.ReadFull(sr.r, b)
	return string(b)
}

func (sr *snapReader) bytes() []byte {
	n := sr.u64()
	if sr.err != nil {
		return nil
	}
	b := make([]byte, n)
	_, sr.err = io.ReadFull(sr.r, b)
	return b
}

// Snapshot writes the full database state (tables + views) to w.
func (db *DB) Snapshot(w io.Writer) error {
	db.mu.RLock()
	defer db.mu.RUnlock()
	sw := &snapWriter{w: bufio.NewWriter(w)}
	if _, err := sw.w.WriteString(snapshotMagic); err != nil {
		return err
	}
	sw.u64(uint64(len(db.tables)))
	for _, t := range db.tables {
		snapshotTable(sw, t)
	}
	sw.u64(uint64(len(db.views)))
	for _, v := range db.views {
		sw.str(v.Name)
		sw.str(v.Query.String())
	}
	if sw.err != nil {
		return sw.err
	}
	return sw.w.Flush()
}

func snapshotTable(sw *snapWriter, t *Table) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	sw.str(t.Name)
	sw.u64(uint64(len(t.Schema)))
	for _, c := range t.Schema {
		sw.str(c.Name)
		sw.u8(uint8(c.Type))
	}
	rows := 0
	if len(t.Cols) > 0 {
		rows = t.Cols[0].Len()
	}
	sw.u64(uint64(rows))
	for _, col := range t.Cols {
		snapshotColumn(sw, col, rows)
	}
}

func snapshotColumn(sw *snapWriter, c *Column, rows int) {
	// null bitmap flag
	if c.Nulls != nil {
		sw.u8(1)
		for i := 0; i < rows; i++ {
			if c.Nulls[i] {
				sw.u8(1)
			} else {
				sw.u8(0)
			}
		}
	} else {
		sw.u8(0)
	}
	switch c.Type {
	case TInt:
		for _, v := range c.Ints {
			sw.u64(uint64(v))
		}
	case TFloat:
		for _, v := range c.Floats {
			sw.u64(math.Float64bits(v))
		}
	case TString:
		for _, v := range c.Strs {
			sw.str(v)
		}
	case TBool:
		for _, v := range c.Bools {
			if v {
				sw.u8(1)
			} else {
				sw.u8(0)
			}
		}
	case TBlob:
		for _, v := range c.Blobs {
			sw.bytes(v)
		}
	}
}

// Restore reads a snapshot previously written by Snapshot into an empty
// database; it fails if the database already contains tables.
func (db *DB) Restore(r io.Reader) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if len(db.tables) > 0 || len(db.views) > 0 {
		return fmt.Errorf("sqldb: Restore requires an empty database")
	}
	sr := &snapReader{r: bufio.NewReader(r)}
	magic := make([]byte, len(snapshotMagic))
	if _, err := io.ReadFull(sr.r, magic); err != nil {
		return fmt.Errorf("sqldb: reading snapshot magic: %w", err)
	}
	if string(magic) != snapshotMagic {
		return fmt.Errorf("sqldb: bad snapshot magic %q", magic)
	}
	nTables := sr.u64()
	for i := uint64(0); i < nTables && sr.err == nil; i++ {
		t, err := restoreTable(sr)
		if err != nil {
			return err
		}
		db.tables[strings.ToLower(t.Name)] = t
	}
	nViews := sr.u64()
	for i := uint64(0); i < nViews && sr.err == nil; i++ {
		name := sr.str()
		sql := sr.str()
		if sr.err != nil {
			break
		}
		st, err := Parse(sql)
		if err != nil {
			return fmt.Errorf("sqldb: restoring view %s: %w", name, err)
		}
		sel, ok := st.(*SelectStmt)
		if !ok {
			return fmt.Errorf("sqldb: view %s snapshot is not a SELECT", name)
		}
		db.views[strings.ToLower(name)] = &View{Name: name, Query: sel}
	}
	return sr.err
}

func restoreTable(sr *snapReader) (*Table, error) {
	name := sr.str()
	nCols := sr.u64()
	schema := make(Schema, 0, nCols)
	for i := uint64(0); i < nCols && sr.err == nil; i++ {
		cn := sr.str()
		ct := Type(sr.u8())
		schema = append(schema, ColumnDef{Name: cn, Type: ct})
	}
	if sr.err != nil {
		return nil, sr.err
	}
	t := NewTable(name, schema)
	rows := int(sr.u64())
	for ci := range schema {
		col := t.Cols[ci]
		hasNulls := sr.u8() == 1
		if hasNulls {
			col.Nulls = make([]bool, rows)
			for i := 0; i < rows; i++ {
				col.Nulls[i] = sr.u8() == 1
			}
		}
		switch col.Type {
		case TInt:
			col.Ints = make([]int64, rows)
			for i := 0; i < rows; i++ {
				col.Ints[i] = int64(sr.u64())
			}
		case TFloat:
			col.Floats = make([]float64, rows)
			for i := 0; i < rows; i++ {
				col.Floats[i] = math.Float64frombits(sr.u64())
			}
		case TString:
			col.Strs = make([]string, rows)
			for i := 0; i < rows; i++ {
				col.Strs[i] = sr.str()
			}
		case TBool:
			col.Bools = make([]bool, rows)
			for i := 0; i < rows; i++ {
				col.Bools[i] = sr.u8() == 1
			}
		case TBlob:
			col.Blobs = make([][]byte, rows)
			for i := 0; i < rows; i++ {
				col.Blobs[i] = sr.bytes()
			}
		default:
			return nil, fmt.Errorf("sqldb: snapshot column %s has unknown type %d", schema[ci].Name, col.Type)
		}
		if sr.err != nil {
			return nil, sr.err
		}
	}
	return t, nil
}

// SaveFile snapshots the database to a file.
func (db *DB) SaveFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := db.Snapshot(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// LoadFile restores a database from a snapshot file.
func LoadFile(path string) (*DB, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	db := New()
	if err := db.Restore(f); err != nil {
		return nil, err
	}
	return db, nil
}
