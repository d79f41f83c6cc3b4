package engine

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
	"strings"

	"birds/internal/value"
)

// LoadCSV bulk-loads a base table from CSV. Values are converted according
// to the table's declared attribute types (int, float, bool; everything
// else is kept as a string — including dates, whose ISO text form orders
// correctly). When header is true the first record is skipped.
func (db *DB) LoadCSV(name string, r io.Reader, header bool) (int, error) {
	db.mu.Lock()
	decl, ok := db.tables[name]
	db.mu.Unlock()
	if !ok {
		return 0, fmt.Errorf("engine: unknown table %q", name)
	}
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = decl.Arity()
	var rows []value.Tuple
	first := true
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return 0, fmt.Errorf("engine: reading CSV for %q: %w", name, err)
		}
		if first && header {
			first = false
			continue
		}
		first = false
		row := make(value.Tuple, decl.Arity())
		for i, field := range rec {
			v, err := parseCSVValue(field, decl.Attrs[i].Type)
			if err != nil {
				return 0, fmt.Errorf("engine: %q column %s: %w", name, decl.Attrs[i].Name, err)
			}
			row[i] = v
		}
		rows = append(rows, row)
	}
	if err := db.LoadTable(name, rows); err != nil {
		return 0, err
	}
	return len(rows), nil
}

func parseCSVValue(field, typ string) (value.Value, error) {
	switch typ {
	case "int", "integer":
		n, err := strconv.ParseInt(strings.TrimSpace(field), 10, 64)
		if err != nil {
			return value.Value{}, fmt.Errorf("bad integer %q", field)
		}
		return value.Int(n), nil
	case "float", "real":
		f, err := strconv.ParseFloat(strings.TrimSpace(field), 64)
		if err != nil {
			return value.Value{}, fmt.Errorf("bad float %q", field)
		}
		return value.Float(f), nil
	case "bool", "boolean":
		b, err := strconv.ParseBool(strings.TrimSpace(field))
		if err != nil {
			return value.Value{}, fmt.Errorf("bad boolean %q", field)
		}
		return value.Bool(b), nil
	default:
		return value.Str(field), nil
	}
}

// DumpCSV writes the current contents of a table or view as CSV, with a
// header row of the declared attribute names, in deterministic (sorted)
// order.
func (db *DB) DumpCSV(name string, w io.Writer) error {
	// The dump iterates outside the lock; the snapshot keeps it safe from
	// concurrent transactions.
	rel, err := db.Get(name) // takes the lock and refreshes stale views
	if err != nil {
		return err
	}
	db.mu.RLock()
	decl := db.relDecl(name)
	db.mu.RUnlock()
	cw := csv.NewWriter(w)
	header := make([]string, decl.Arity())
	for i, a := range decl.Attrs {
		header[i] = a.Name
	}
	if err := cw.Write(header); err != nil {
		return err
	}
	for _, row := range rel.Sorted() {
		rec := make([]string, len(row))
		for i, v := range row {
			switch v.Kind() {
			case value.KindString:
				rec[i] = v.AsString()
			default:
				rec[i] = strings.Trim(v.String(), "'")
			}
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
