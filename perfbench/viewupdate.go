package main

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"birds/internal/bench"
	"birds/internal/core"
	"birds/internal/datalog"
	"birds/internal/engine"
	"birds/internal/eval"
	"birds/internal/value"
)

// viewPanel is one Figure 6 panel of the viewupdate workload: its base
// size, its share of the op mix, and the running state of its update
// stream.
type viewPanel struct {
	spec   bench.Fig6View
	n      int     // base rows
	weight float64 // share of the op mix
	prog   *datalog.Program
	rels   []string // base tables and the view

	db      *engine.DB
	round   int
	pending [][]engine.Statement
	done    int                        // stream transactions executed
	snap    map[string]*value.Relation // state after snapN transactions
	snapN   int
}

// Base size and op share of each panel. At 10k base rows a luxuryitems
// transaction costs about 1.5 ms, outstanding_task about 2.5 ms, and
// vw_brands and officeinfo about 5 ms. A p50 over equal shares would fall
// in the gaps between these bands and move with every small shift of the
// mix; with these shares the median op is a luxuryitems transaction and the
// p90 op a vw_brands or officeinfo one. The report shows which panels hold
// the ops around each percentile.
var viewPanelMix = []struct {
	name   string
	n      int
	weight float64
}{
	{"luxuryitems", 10000, 0.75},
	{"outstanding_task", 10000, 0.10},
	{"vw_brands", 10000, 0.10},
	{"officeinfo", 10000, 0.05},
}

// checkPrefix is the number of each panel's transactions the ∂put ≡ put
// check replays on a twin built with the original (non-incremental)
// strategy.
const checkPrefix = 48

func newViewPanel(name string, n int, weight float64, incremental bool, seed int64) (*viewPanel, error) {
	spec, err := bench.Fig6ViewByName(name)
	if err != nil {
		return nil, err
	}
	prog, err := datalog.Parse(spec.Program)
	if err != nil {
		return nil, err
	}
	p := &viewPanel{spec: spec, n: n, weight: weight, prog: prog}
	for _, s := range prog.Sources {
		p.rels = append(p.rels, s.Name)
	}
	p.rels = append(p.rels, prog.View.Name)
	if p.db, err = bench.SetupFig6(spec, n, incremental, seed, 0); err != nil {
		return nil, err
	}
	// Two warm-up rounds, as in BenchmarkFig6: the first insert and delete
	// build the indexes the steady state maintains.
	for i := 0; i < 3; i++ {
		if err := p.db.Exec(p.next()...); err != nil {
			return nil, fmt.Errorf("%s warm-up: %w", name, err)
		}
	}
	p.done = 0
	return p, nil
}

// next returns the panel's next view-update transaction: round r inserts a
// fresh view tuple and deletes the one inserted in round r-1, so the base
// size stays constant.
func (p *viewPanel) next() []engine.Statement {
	if len(p.pending) == 0 {
		p.round++
		p.pending = p.spec.Update(p.n, p.round)
	}
	txn := p.pending[0]
	p.pending = p.pending[1:]
	p.done++
	return txn
}

func (p *viewPanel) state() (map[string]*value.Relation, error) {
	return p.db.GetAll(p.rels...)
}

// snapshot records the panel's state for the ∂put ≡ put check.
func (p *viewPanel) snapshot() (err error) {
	p.snap, err = p.state()
	p.snapN = p.done
	return err
}

func setupViewPanels(seed int64) ([]*viewPanel, error) {
	var out []*viewPanel
	for _, m := range viewPanelMix {
		p, err := newViewPanel(m.name, m.n, m.weight, true, seed)
		if err != nil {
			return nil, err
		}
		out = append(out, p)
	}
	return out, nil
}

type viewPhase struct {
	lat      []float64   // ms per transaction at the reference speed
	wallLat  []float64   // the same, wall clock
	panelLat [][]float64 // lat by panel
	wall     time.Duration
}

// viewUpdatePass runs the closed loop: each op picks a panel by the mix
// (seeded) and executes its next transaction through DB.Exec. Kernel slices
// run between the ops (cal).
func viewUpdatePass(panels []*viewPanel, rng *rand.Rand, seconds float64, cal *calibrator, l *lane, rep *report) (viewPhase, error) {
	ph := viewPhase{panelLat: make([][]float64, len(panels))}
	spanNames := make([]string, len(panels))
	for i, p := range panels {
		spanNames[i] = "engine.exec." + p.spec.Name
	}
	var panelOf []int
	cal.start()
	wall, err := timedLoop(seconds, func() (bool, error) {
		x, i := rng.Float64(), 0
		for ; i < len(panels)-1 && x >= panels[i].weight; i++ {
			x -= panels[i].weight
		}
		p := panels[i]
		txn := p.next()
		l.newOp()
		l.begin("op")
		l.begin(spanNames[i])
		start := time.Now()
		err := p.db.Exec(txn...)
		d := ms(time.Since(start))
		l.end()
		l.end()
		cal.op(d)
		ph.wallLat = append(ph.wallLat, d)
		panelOf = append(panelOf, i)
		rep.Attempted++
		if err != nil {
			rep.Failed++
			if len(rep.Notes) < 20 {
				rep.note("%s txn %d: %v", p.spec.Name, p.done, err)
			}
		}
		if p.done == checkPrefix && p.snap == nil {
			if err := p.snapshot(); err != nil {
				return false, err
			}
		}
		cal.between()
		return true, nil
	})
	ph.wall = wall
	ph.lat = cal.finish()
	for k, d := range ph.lat {
		ph.panelLat[panelOf[k]] = append(ph.panelLat[panelOf[k]], d)
	}
	return ph, err
}

// bandShares reports how the ops whose latency lies within 5% of v split
// across the panels.
func bandShares(panels []*viewPanel, panelLat [][]float64, v float64) string {
	counts := make([]int, len(panels))
	total := 0
	for i, lat := range panelLat {
		for _, d := range lat {
			if d >= 0.95*v && d <= 1.05*v {
				counts[i]++
				total++
			}
		}
	}
	var parts []string
	for i, c := range counts {
		if c > 0 {
			parts = append(parts, fmt.Sprintf("%s %.0f%%", panels[i].spec.Name, 100*float64(c)/float64(total)))
		}
	}
	return strings.Join(parts, ", ")
}

// checkDputEqualsPut replays each panel's first checkPrefix transactions (or
// all of them, in a run too short for checkPrefix) on a twin built with
// Incremental: false, the original putdelta, and requires the same base
// tables and view as the incremental database had then.
func checkDputEqualsPut(panels []*viewPanel, seed int64, rep *report) error {
	for _, p := range panels {
		if p.snap == nil {
			if err := p.snapshot(); err != nil {
				return err
			}
		}
		twin, err := newViewPanel(p.spec.Name, p.n, p.weight, false, seed)
		if err != nil {
			return err
		}
		for twin.done < p.snapN {
			if err := twin.db.Exec(twin.next()...); err != nil {
				return fmt.Errorf("%s twin: %w", p.spec.Name, err)
			}
		}
		got, err := twin.state()
		if err != nil {
			return err
		}
		var diff []string
		for _, r := range p.rels {
			if !got[r].Equal(p.snap[r]) {
				diff = append(diff, r)
			}
		}
		rep.check("dput_equals_put."+p.spec.Name, len(diff) == 0,
			"%d transactions on %d base rows; differing relations: %v", p.snapN, p.n, diff)
	}
	return nil
}

func runViewUpdate(cfg config, rep *report) error {
	cal := newCalibrator(cfg.seed)
	panels, setup, err := repeatSetup(setupReps, cal, func() ([]*viewPanel, error) { return setupViewPanels(cfg.seed) })
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(cfg.seed))

	region := timedRegion(cfg)
	mem := startMemSampler("")
	rt0 := readRuntime()
	ph, err := viewUpdatePass(panels, rng, region, cal, nil, rep)
	rt1 := readRuntime()
	peak, _ := mem.finish()
	if err != nil {
		return err
	}
	if err := checkDputEqualsPut(panels, cfg.seed, rep); err != nil {
		return err
	}

	n := len(ph.lat)
	p50, p90 := median(ph.lat), quantileOf(ph.lat, 0.9)
	rep.setE2E(setup, p50, p90, median(cal.rates), ph.lat, ph.wallLat, ph.wall, peak, cal)
	rep.note("viewupdate: panels holding the ops within 5%% of p50: %s; of p90: %s",
		bandShares(panels, ph.panelLat, p50), bandShares(panels, ph.panelLat, p90))
	for i, p := range panels {
		lat := ph.panelLat[i]
		rep.note("viewupdate panel %-16s base=%d share=%.2f txns=%d p10=%.3f p50=%.3f p90=%.3f p99=%.3f ms (reference speed)",
			p.spec.Name, p.n, p.weight, len(lat), quantile(lat, 0.1), quantile(lat, 0.5), quantile(lat, 0.9), quantile(lat, 0.99))
	}

	if !cfg.trace {
		return nil
	}
	for k, v := range runtimeLayer(rt0, rt1, n) {
		rep.Layer[k] = v
	}
	tr := newTracer()
	tph, err := viewUpdatePass(panels, rng, region, cal, tr.lane(), rep)
	if err != nil {
		return err
	}
	st := tr.stats()
	var execMix, dputMix, putMix, dput4Mix float64
	for _, p := range panels {
		name := p.spec.Name
		exec := meanMS(st, "engine.exec."+name)
		rep.Layer["engine.exec_ms."+name] = exec
		shape, err := fig6Shape(p, cfg.seed)
		if err != nil {
			return err
		}
		rep.Layer["eval.dput_ms."+name+".1x"] = shape.dput1
		rep.Layer["eval.dput_ms."+name+".4x"] = shape.dput4
		rep.Layer["eval.put_full_ms."+name+".1x"] = shape.put1
		rep.Layer["eval.put_full_ms."+name+".4x"] = shape.put4
		rep.Layer["eval.dput_growth."+name] = shape.dput4 / shape.dput1
		execMix += p.weight * exec
		dputMix += p.weight * shape.dput1
		dput4Mix += p.weight * shape.dput4
		putMix += p.weight * shape.put1
	}
	rep.Layer["eval.dput_ms"] = dputMix
	rep.Layer["eval.put_full_ms"] = putMix
	rep.Layer["eval.dput_growth"] = dput4Mix / dputMix
	rep.Layer["engine.view_overhead_ms"] = execMix - dputMix
	rep.Layer["trace.layer_frac"] = 1 - ratio(st["op"].Self, st["op"].Total)
	rep.Layer["trace.overhead_frac"] = median(tph.lat)/p50 - 1
	rep.note("Figure 6 shape (finding, not gated): eval.dput_growth %.2f over 1x -> 4x base; flat would be 1", dput4Mix/dputMix)
	if err := serveLayers(cfg, serveSeconds, tr, rep); err != nil {
		return err
	}
	return writeSpans(tr, cfg, rep)
}

type shapePoint struct{ dput1, dput4, put1, put4 float64 }

// fig6Shape times the panel's ∂put program and its original putdelta with
// Evaluator.Eval on eval databases holding the panel's base rows at 1× and
// 4× its base size plus a one-tuple view insertion: Figure 6's two curves
// at two points.
func fig6Shape(p *viewPanel, seed int64) (shapePoint, error) {
	var sp shapePoint
	for _, scale := range []int{1, 4} {
		dput, put, err := evalUpdateCost(p, p.n*scale, seed)
		if err != nil {
			return sp, err
		}
		if scale == 1 {
			sp.dput1, sp.put1 = dput, put
		} else {
			sp.dput4, sp.put4 = dput, put
		}
	}
	return sp, nil
}

const shapeReps = 15

func evalUpdateCost(p *viewPanel, n int, seed int64) (dput, put float64, err error) {
	db, err := bench.SetupFig6(p.spec, n, false, seed, 0)
	if err != nil {
		return 0, 0, err
	}
	// The view tuple the stream's first round inserts.
	row := p.spec.Update(n, 1)[0][0].Row
	view := datalog.Pred(p.prog.View.Name)
	arity := p.prog.View.Arity()
	one := value.NewRelation(arity)
	one.Add(row)

	inc, err := core.Incrementalize(p.prog)
	if err != nil {
		return 0, 0, err
	}
	incEval, err := eval.New(inc)
	if err != nil {
		return 0, 0, err
	}
	incDB := db.Store().Clone()
	incDB.Update(datalog.Ins(view.Name), one)
	incDB.Update(datalog.Del(view.Name), value.NewRelation(arity))
	if dput, err = timeEval(incEval, incDB); err != nil {
		return 0, 0, err
	}

	pb, err := core.NewPutback(p.prog)
	if err != nil {
		return 0, 0, err
	}
	putDB := db.Store().Clone()
	updated := putDB.RelOrEmpty(view, arity).Clone()
	updated.Add(row)
	putDB.Update(view, updated)
	if put, err = timeEval(pb.Evaluator(), putDB); err != nil {
		return 0, 0, err
	}
	return dput, put, nil
}

// timeEval returns the median time of repeated evaluations, after one
// untimed evaluation that builds the indexes (as the engine's store keeps
// them warm across transactions).
func timeEval(ev *eval.Evaluator, db *eval.Database) (float64, error) {
	if err := ev.Eval(db); err != nil {
		return 0, err
	}
	times := make([]float64, 0, shapeReps)
	for i := 0; i < shapeReps; i++ {
		start := time.Now()
		if err := ev.Eval(db); err != nil {
			return 0, err
		}
		times = append(times, ms(time.Since(start)))
	}
	return median(times), nil
}
