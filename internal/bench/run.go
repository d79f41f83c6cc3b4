package bench

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"time"

	"birds/internal/core"
	"birds/internal/datalog"
	"birds/internal/sqlgen"
)

// Table1Row is one measured row of the Table 1 reproduction.
type Table1Row struct {
	Entry          Table1Entry
	LOC            int           // program size in rules
	LVGN           bool          // measured LVGN-Datalog membership
	NR             bool          // measured NR-Datalog membership
	Valid          bool          // Algorithm 1 outcome
	UsedExpected   bool          // expected get confirmed (vs derived)
	FailureDetail  string        // when invalid
	ValidationTime time.Duration // wall time of Validate
	SQLBytes       int           // size of the compiled SQL program
	Err            error         // infrastructure error (parse/compile)
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
	row.ValidationTime = res.Elapsed
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

// RunTable1 runs the full benchmark.
func RunTable1(opts core.Options) []Table1Row {
	return RunTable1Parallel(opts, 1)
}

// RunTable1Parallel runs the full benchmark with the entries validated
// concurrently by up to `workers` goroutines. Entry validations are
// independent (each compiles its own putback and oracle), so the rows are
// identical to a sequential run; only wall time changes. workers <= 0
// selects GOMAXPROCS.
func RunTable1Parallel(opts core.Options, workers int) []Table1Row {
	entries := Table1()
	rows := make([]Table1Row, len(entries))
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers <= 1 {
		for i, e := range entries {
			rows[i] = RunTable1Entry(e, opts)
		}
		return rows
	}
	sem := make(chan struct{}, workers)
	var wg sync.WaitGroup
	for i, e := range entries {
		wg.Add(1)
		go func(i int, e Table1Entry) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			rows[i] = RunTable1Entry(e, opts)
		}(i, e)
	}
	wg.Wait()
	return rows
}

// FormatTable1 renders the rows the way the paper prints Table 1.
func FormatTable1(rows []Table1Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-3s %-17s %-9s %-12s %-5s %-6s %-5s %-9s %-7s %s\n",
		"ID", "View", "Operator", "Constraint", "LOC", "LVGN", "NR", "Valid", "SQL(B)", "Validation(s)")
	mark := func(v bool) string {
		if v {
			return "yes"
		}
		return "no"
	}
	for _, r := range rows {
		if r.Entry.Program == "" {
			fmt.Fprintf(&b, "%-3d %-17s %-9s %-12s %-5s %-6s %-5s %-9s %-7s %s\n",
				r.Entry.ID, r.Entry.Name, r.Entry.Operators, r.Entry.Constraints,
				"-", "no", "no", "-", "-", "- (aggregation not expressible)")
			continue
		}
		if r.Err != nil {
			fmt.Fprintf(&b, "%-3d %-17s error: %v\n", r.Entry.ID, r.Entry.Name, r.Err)
			continue
		}
		fmt.Fprintf(&b, "%-3d %-17s %-9s %-12s %-5d %-6s %-5s %-9s %-7d %.3f\n",
			r.Entry.ID, r.Entry.Name, r.Entry.Operators, r.Entry.Constraints,
			r.LOC, mark(r.LVGN), mark(r.NR), mark(r.Valid), r.SQLBytes,
			r.ValidationTime.Seconds())
	}
	return b.String()
}
