package bench

import (
	"fmt"
	"strings"

	"birds/internal/core"
	"birds/internal/datalog"
	"birds/internal/sqlgen"
)

// Table1Row is one measured row of the Table 1 reproduction.
type Table1Row struct {
	Entry         Table1Entry
	LOC           int    // program size in rules
	LVGN          bool   // measured LVGN-Datalog membership
	NR            bool   // measured NR-Datalog membership
	Valid         bool   // Algorithm 1 outcome
	UsedExpected  bool   // expected get confirmed (vs derived)
	FailureDetail string // when invalid
	SQLBytes      int    // size of the compiled SQL program
	Err           error  // infrastructure error (parse/compile)
}

// parseDecl parses a single relation declaration like "r(a:int, b:string).".
func parseDecl(src string) (*datalog.RelDecl, error) {
	p, err := datalog.Parse("source " + src)
	if err != nil {
		return nil, err
	}
	if len(p.Sources) != 1 {
		return nil, fmt.Errorf("bench: expected one declaration in %q", src)
	}
	return p.Sources[0], nil
}

// ParseGetRules parses a newline-separated list of view-definition rules.
func ParseGetRules(src string) ([]*datalog.Rule, error) {
	if strings.TrimSpace(src) == "" {
		return nil, nil
	}
	var out []*datalog.Rule
	for _, line := range strings.Split(src, "\n") {
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		r, err := datalog.ParseRule(line)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}

// RunTable1Entry validates and compiles one benchmark view.
func RunTable1Entry(e Table1Entry, opts core.Options) Table1Row {
	row := Table1Row{Entry: e}
	if e.Program == "" {
		row.Err = fmt.Errorf("bench: %s: not expressible in NR-Datalog (aggregation)", e.Name)
		return row
	}
	prog, err := datalog.Parse(e.Program)
	if err != nil {
		row.Err = err
		return row
	}
	row.LOC = prog.LOC()
	pb, err := core.NewPutback(prog)
	if err != nil {
		row.Err = err
		return row
	}
	row.LVGN = pb.Class.LVGN()
	row.NR = pb.Class.NRDatalog()

	expected, err := ParseGetRules(e.ExpectedGet)
	if err != nil {
		row.Err = err
		return row
	}
	res, err := core.Validate(pb, expected, opts)
	if err != nil {
		row.Err = err
		return row
	}
	row.Valid = res.Valid
	row.UsedExpected = res.UsedExpected
	if !res.Valid {
		row.FailureDetail = res.Failure.Error()
		return row
	}

	sqlText, err := sqlgen.New(prog).Compile(res.Get)
	if err != nil {
		row.Err = err
		return row
	}
	row.SQLBytes = len(sqlText)
	return row
}

// RunTable1 runs the full benchmark, one entry after another.
func RunTable1(opts core.Options) []Table1Row {
	entries := Table1()
	rows := make([]Table1Row, len(entries))
	for i, e := range entries {
		rows[i] = RunTable1Entry(e, opts)
	}
	return rows
}
