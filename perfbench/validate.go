package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"math/rand"
	"time"

	"birds/internal/bench"
	"birds/internal/core"
	"birds/internal/datalog"
	"birds/internal/sat"
	"birds/internal/sqlgen"
)

// table1Outcome is the qualitative result of validating one Table 1
// program: what the paper's table reports, plus the size of the compiled
// SQL. table1_golden.json holds the expected outcome of every program.
type table1Outcome struct {
	ID           int    `json:"id"`
	Name         string `json:"name"`
	Valid        bool   `json:"valid"`
	LVGN         bool   `json:"lvgn"`
	NR           bool   `json:"nr"`
	UsedExpected bool   `json:"used_expected"`
	SQLBytes     int    `json:"sql_bytes"`
}

//go:embed table1_golden.json
var table1GoldenJSON []byte

type table1Program struct {
	entry    bench.Table1Entry
	expected []*datalog.Rule
	golden   table1Outcome
}

// validateOracle is the oracle configuration of BenchmarkTable1Validation.
// Its search seed is part of the validator's configuration, not of the
// input, so it stays fixed: the workload seed only orders the corpus.
var validateOracle = core.Options{Oracle: sat.Config{
	MaxTuples:        3,
	RandomTrials:     800,
	ExhaustiveBudget: 30000,
	GuideBudget:      30000,
	Seed:             1,
}}

// loadTable1 builds the corpus: every expressible Table 1 program (row 23,
// an aggregation, is not) with its expected view definition and golden
// outcome, in Table 1 order rotated to start at a row the seed picks. The
// rotation keeps each program's predecessor, and with it the heap the
// program starts on, the same in every pass and every run. Each program is
// parsed and classified once (datalog.Parse, core.NewPutback), so a corpus
// the program cannot read fails before the timed region.
func loadTable1(seed int64) ([]table1Program, error) {
	var golden []table1Outcome
	if err := json.Unmarshal(table1GoldenJSON, &golden); err != nil {
		return nil, fmt.Errorf("table1_golden.json: %w", err)
	}
	byID := make(map[int]table1Outcome)
	for _, g := range golden {
		byID[g.ID] = g
	}
	var progs []table1Program
	for _, e := range bench.Table1() {
		if e.Program == "" {
			continue
		}
		prog, err := datalog.Parse(e.Program)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", e.Name, err)
		}
		if _, err := core.NewPutback(prog); err != nil {
			return nil, fmt.Errorf("%s: %w", e.Name, err)
		}
		expected, err := bench.ParseGetRules(e.ExpectedGet)
		if err != nil {
			return nil, fmt.Errorf("%s: expected get: %w", e.Name, err)
		}
		g, ok := byID[e.ID]
		if !ok {
			g = table1Outcome{ID: e.ID, Name: "(no golden outcome)"}
		}
		progs = append(progs, table1Program{entry: e, expected: expected, golden: g})
	}
	start := rand.New(rand.NewSource(seed)).Intn(len(progs))
	return append(progs[start:], progs[:start]...), nil
}

// validateOne runs one program through parse → NewPutback → Validate →
// SQL compile, with a span around each layer call.
func validateOne(p table1Program, opts core.Options, l *lane) (table1Outcome, error) {
	out := table1Outcome{ID: p.entry.ID, Name: p.entry.Name}
	l.begin("datalog.parse")
	prog, err := datalog.Parse(p.entry.Program)
	l.end()
	if err != nil {
		return out, err
	}
	l.begin("core.putback")
	pb, err := core.NewPutback(prog)
	l.end()
	if err != nil {
		return out, err
	}
	out.LVGN, out.NR = pb.Class.LVGN(), pb.Class.NRDatalog()
	l.begin("core.validate")
	res, err := core.Validate(pb, p.expected, opts)
	l.end()
	if err != nil {
		return out, err
	}
	out.Valid, out.UsedExpected = res.Valid, res.UsedExpected
	if !res.Valid {
		return out, nil
	}
	l.begin("sqlgen.compile")
	sql, err := sqlgen.New(prog).Compile(res.Get)
	l.end()
	if err != nil {
		return out, err
	}
	out.SQLBytes = len(sql)
	return out, nil
}

type validatePhase struct {
	lat     []float64         // ms per program validated, at the reference speed
	wallLat []float64         // the same, wall clock
	byID    map[int][]float64 // lat per Table 1 row
	wall    time.Duration
	passes  int
}

// minValidatePasses is the fewest passes a run makes, so each program's
// median is over at least that many validations.
const minValidatePasses = 3

// validatePass validates the corpus in whole passes until the timed region
// has passed and at least minValidatePasses passes ran. Kernel slices run
// between the programs (cal).
func validatePass(progs []table1Program, opts core.Options, seconds float64, cal *calibrator, l *lane, rep *report) (validatePhase, error) {
	ph := validatePhase{byID: make(map[int][]float64)}
	next := 0
	var ids []int
	cal.start()
	wall, err := timedLoop(seconds, func() (bool, error) {
		p := progs[next]
		next = (next + 1) % len(progs)
		l.newOp()
		l.begin("op")
		start := time.Now()
		got, err := validateOne(p, opts, l)
		d := ms(time.Since(start))
		l.end()
		cal.op(d)
		ph.wallLat = append(ph.wallLat, d)
		ids = append(ids, p.entry.ID)
		rep.Attempted++
		if err != nil || got != p.golden {
			rep.Failed++
			if len(rep.Notes) < 40 {
				b, _ := json.Marshal(got)
				rep.note("table1 outcome differs from golden (err=%v): %s", err, b)
			}
		}
		if next == 0 {
			ph.passes++
		}
		cal.between()
		return next == 0 && ph.passes >= minValidatePasses, nil
	})
	ph.wall = wall
	ph.lat = cal.finish()
	for k, d := range ph.lat {
		ph.byID[ids[k]] = append(ph.byID[ids[k]], d)
	}
	return ph, err
}

// quantile is the q-quantile over the corpus of each program's median time,
// by the Harrell-Davis estimator: the corpus has programs on either side of
// its median and its p90 whose times trade places from run to run, and the
// sample quantile would jump between them.
func (ph validatePhase) quantile(progs []table1Program, q float64) float64 {
	var med []float64
	for _, p := range progs {
		med = append(med, median(ph.byID[p.entry.ID]))
	}
	return hdQuantile(med, q)
}

func runValidate(cfg config, rep *report) error {
	cal := newCalibrator(cfg.seed)
	progs, setup, err := repeatSetup(setupRepsValidate, cal, func() ([]table1Program, error) { return loadTable1(cfg.seed) })
	if err != nil {
		return err
	}
	opts := validateOracle

	region := timedRegion(cfg)
	mem := startMemSampler("")
	rt0 := readRuntime()
	ph, err := validatePass(progs, opts, region, cal, nil, rep)
	rt1 := readRuntime()
	peak, _ := mem.finish()
	if err != nil {
		return err
	}
	rep.check("table1_golden", rep.Failed == 0, "%d of %d validations matched table1_golden.json", rep.Attempted-rep.Failed, rep.Attempted)

	// Each program's time is its median over the passes, which absorbs a
	// slow pass; p50 and p90 are taken over those per-program medians. The
	// run is whole passes, so ops_per_s is over the corpus's own mix.
	n := len(ph.lat)
	p50, p90 := ph.quantile(progs, 0.5), ph.quantile(progs, 0.9)
	rep.setE2E(setup, p50, p90, float64(n)/(sum(ph.lat)/1000), ph.lat, ph.wallLat, ph.wall, peak, cal)
	rep.note("validate: closed loop, 1 client, %d whole passes over %d programs; op_tail_ms is p90", ph.passes, len(progs))
	for _, p := range progs {
		rep.note("table1 validation time: row %2d %-17s median %8.2f ms over %d passes (reference speed)", p.entry.ID, p.entry.Name, median(ph.byID[p.entry.ID]), ph.passes)
	}

	if !cfg.trace {
		return nil
	}
	for k, v := range runtimeLayer(rt0, rt1, n) {
		rep.Layer[k] = v
	}
	tr := newTracer()
	tph, err := validatePass(progs, opts, region, cal, tr.lane(), rep)
	if err != nil {
		return err
	}
	st := tr.stats()
	rep.Layer["datalog.parse_ms"] = meanMS(st, "datalog.parse")
	rep.Layer["core.putback_ms"] = meanMS(st, "core.putback")
	rep.Layer["core.validate_ms"] = meanMS(st, "core.validate")
	rep.Layer["sqlgen.compile_ms"] = meanMS(st, "sqlgen.compile")
	rep.Layer["core.validate_share"] = ratio(st["core.validate"].Total, st["op"].Total)
	rep.Layer["trace.layer_frac"] = 1 - ratio(st["op"].Self, st["op"].Total)
	rep.Layer["trace.overhead_frac"] = tph.quantile(progs, 0.5)/p50 - 1
	return writeSpans(tr, cfg, rep)
}
