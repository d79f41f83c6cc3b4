// Parallel evaluation: the IDB dependency DAG is leveled topologically and
// the predicates of one level are evaluated concurrently; within a rule, the
// outermost full scan fans out across hash shards of its relation (chosen
// by the tuple hashes the relation already stores — no data movement). Workers run over a
// read-only prepared context (relations and indexes resolved serially up
// front) and emit into private partial relations, merged in a fixed order
// after the level barrier. Relations are sets, shards partition tuples by
// hash, and the merge order is deterministic, so parallel evaluation
// produces relations set-identical (Relation.Equal, same lookup-observable
// index contents) to sequential evaluation — the property the differential
// and determinism tests in parallel_test.go pin down. Internal storage
// order, which no evaluator API exposes as meaningful, may differ.
package eval

import (
	"sync"

	"birds/internal/datalog"
	"birds/internal/value"
)

// The parallel thresholds are variables only so tests can force the
// parallel machinery onto tiny relations; production code treats them as
// constants.
var (
	// shardMinTuples is the smallest outer-scan relation worth splitting
	// across workers: below this, per-worker environments and partial
	// relations cost more than the scan.
	shardMinTuples = 1024

	// parallelMinWork is the smallest total outer-scan size for which a
	// level leaves the sequential path at all. Delta-driven incremental
	// evaluations (a handful of tuples per relation) stay on the exact
	// allocation profile the sequential evaluator has.
	parallelMinWork = 2048
)

// runTasks runs n tasks with at most p concurrent workers (task i runs
// run(i)) and returns after all complete — the worker-pool scaffolding
// shared by the full-evaluation scheduler, the parallel counted init and
// the parallel delta propagation. run must do its own error capture (e.g.
// into a per-task slot); panics are not recovered, matching the
// sequential path.
func runTasks(p, n int, run func(int)) {
	sem := make(chan struct{}, p)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			run(i)
		}(i)
	}
	wg.Wait()
}

// parallelTask is one unit of work: one rule, one shard of its outer scan,
// emitting into a private partial relation.
type parallelTask struct {
	cr        *compiledRule
	rc        *runCtx
	out       *value.Relation
	shardStep int
	shard     int
	nshards   int
}

// outerWeight estimates a rule's evaluation work as the size of its outer
// full scan (the relation the plan iterates before any probes); keyed-probe
// and empty outer scans count as 1.
func (cr *compiledRule) outerWeight(db *Database) int {
	for i := range cr.steps {
		st := &cr.steps[i]
		if st.kind != stepScan {
			continue
		}
		if len(st.keyPos) != 0 {
			return 1
		}
		if rel := db.Rel(st.pred); rel != nil {
			return rel.Len()
		}
		return 1
	}
	return 1
}

// evalParallel evaluates the (included) IDB predicates level by level with
// up to e.parallelism workers per level. A non-nil ec selects streaming
// execution: the serial prepare phase picks each rule's cheapest driver
// variant and builds its ephemeral probe tables (shared through ec), and
// the variant's outer driver scan is what fans out across hash shards —
// a worker owns one shard-rooted pipeline and merges after the barrier.
func (e *Evaluator) evalParallel(db *Database, ec *evalCtx, include map[datalog.PredSym]bool) error {
	p := e.parallelism
	for _, level := range e.levels {
		syms := level
		if include != nil {
			syms = syms[:0:0]
			for _, sym := range level {
				if include[sym] {
					syms = append(syms, sym)
				}
			}
		}
		if len(syms) == 0 {
			continue
		}

		// A level whose rules only touch a few tuples is cheaper on the
		// sequential path (no goroutines, no partial relations, reused
		// rule environments).
		weight := 0
		for _, sym := range syms {
			for _, cr := range e.rules[sym] {
				weight += cr.outerWeight(db)
			}
		}
		if weight < parallelMinWork {
			for _, sym := range syms {
				var err error
				if ec != nil {
					err = e.evalPredStreaming(db, ec, sym)
				} else {
					err = e.evalPredSequential(db, sym)
				}
				if err != nil {
					return err
				}
			}
			continue
		}

		// Serial prepare: resolve every relation and probe structure the
		// level's rules touch, so the parallel phase is a pure read of db.
		var tasks []parallelTask
		partials := make([][]*value.Relation, len(syms))
		for si, sym := range syms {
			arity := e.arities[sym]
			for _, cr := range e.rules[sym] {
				plan, rc := cr.preparePlan(db, ec)
				shardStep, nshards := plan.shardPlan(rc, p)
				for s := 0; s < nshards; s++ {
					partial := value.NewRelation(arity)
					partials[si] = append(partials[si], partial)
					tasks = append(tasks, parallelTask{
						cr: plan, rc: rc, out: partial,
						shardStep: shardStep, shard: s, nshards: nshards,
					})
				}
			}
		}

		// Parallel phase: every task runs the full plan with a private
		// environment; the sharded task's outer scan iterates only its
		// hash shard. Nothing mutates db until the barrier below.
		errs := make([]error, len(tasks))
		runTasks(p, len(tasks), func(ti int) {
			t := &tasks[ti]
			en := t.cr.newEnv()
			en.shardStep, en.shard, en.nshards = t.shardStep, t.shard, t.nshards
			_, errs[ti] = t.cr.exec(t.rc, en, 0, func(tu value.Tuple) bool {
				t.out.Add(tu)
				return true
			})
		})
		for _, err := range errs {
			if err != nil {
				return err
			}
		}

		// Barrier merge, lock-free: workers are done, partials are merged
		// on this goroutine. Set-semantic union makes the merged content
		// independent of the merge order; the base is the largest partial
		// (a deterministic choice — shard contents are deterministic) so
		// the bulk of the tuples is adopted instead of re-inserted, and a
		// single-task predicate adopts its partial outright.
		for si, sym := range syms {
			parts := partials[si]
			if len(parts) == 0 { // unreachable: every IDB predicate has a rule
				db.Update(sym, value.NewRelation(e.arities[sym]))
				continue
			}
			base := 0
			for i := 1; i < len(parts); i++ {
				if parts[i].Len() > parts[base].Len() {
					base = i
				}
			}
			out := parts[base]
			for i, partial := range parts {
				if i != base {
					out.UnionWith(partial)
				}
			}
			e.installEval(db, sym, out)
		}
	}
	return nil
}

// preparePlan resolves one rule for a parallel run: in streaming mode (ec
// non-nil) the cheapest driver variant with its ephemeral tables, in
// materialized mode the primary plan with its maintained indexes. The
// returned plan is what tasks must execute (variants have their own
// variable numbering).
func (cr *compiledRule) preparePlan(db *Database, ec *evalCtx) (*compiledRule, *runCtx) {
	if ec != nil {
		v := cr.pickVariant(db)
		return v, v.prepareStream(db, ec)
	}
	return cr, cr.prepare(db)
}
