package engine

import (
	"errors"
	"fmt"
	"sort"

	"birds/internal/datalog"
	"birds/internal/eval"
	"birds/internal/value"
)

// This file wires the evaluator's counting-based IVM (eval.EvalDelta) into
// the engine's write path: every write — DML against base tables, a group-
// commit batch, and the base-table deltas a view update's putback cascade
// produces — feeds net row deltas straight into every clean dependent view,
// so steady-state writes cost O(|Δ|) instead of the O(|DB|) full
// rematerialization the dirty flag used to force on the next read. A view
// update does not write its view: the view is maintained from the source
// deltas like any other, and the maintained delta must equal the one the
// update asked for (PutGet). Each view's get program runs in its own
// predicate namespace (see View), so no other program's evaluation
// overwrites the relations its support counts describe. The dirty flag
// remains as the fallback — bulk loads, maintenance errors and stale
// sources still mark a view dirty and refresh() fully recomputes it on the
// next read.
//
// The per-write bookkeeping is O(registered views): the dependency order is
// precomputed at registration (rebuildViewOrder), not rebuilt per
// transaction.

// ErrPutGetViolation reports a view update whose source changes do not
// reproduce it: once applied, the view's get derives a view other than the
// updated one, get(put(S, V′)) ≠ V′. The paper's validation (Algorithm 1)
// rules this out for a validated strategy; the engine checks it on every
// view update, so a strategy registered with SkipValidation that breaks it
// fails the update rather than leaving the view out of step with its
// sources.
var ErrPutGetViolation = errors.New("PutGet violated")

// rebuildViewOrder recomputes the dependency-ordered view list: topological
// order over view sources, ties broken by name. It runs whenever the set of
// registered views changes, under the write lock.
func (db *DB) rebuildViewOrder() {
	names := make([]string, 0, len(db.views))
	for n := range db.views {
		names = append(names, n)
	}
	sort.Strings(names)
	seen := make(map[string]bool, len(names))
	order := make([]string, 0, len(names))
	var visit func(n string)
	visit = func(n string) {
		w, ok := db.views[n]
		if !ok || seen[n] {
			return
		}
		seen[n] = true
		for _, s := range w.sources {
			visit(s)
		}
		order = append(order, n)
	}
	for _, n := range names {
		visit(n)
	}
	db.viewOrder = order
}

// maintainViews propagates the net deltas of changed relations into the
// registered views, in dependency order. A clean view whose sources changed
// is maintained incrementally through its get evaluator's counting IVM —
// its materialization, auxiliary relations and indexes are adjusted in
// place, and its own net delta joins the changed set so views stacked on
// top of it are maintained the same way. Fallbacks:
//
//   - a view that is already dirty stays dirty (its counts may not match
//     the store; the next read fully rematerializes it);
//   - a view with a dirty source goes dirty (its input is unknown);
//   - a maintenance error marks the view dirty (EvalDelta dropped its
//     counts).
//
// Views none of whose sources changed — including sources whose transaction
// produced a net-empty delta — are skipped outright and stay clean.
//
// want holds, for a view-targeted write, the view delta ΔV its plan derived
// for every view it updates (the target and the intermediate views of a
// cascade); it is nil for other writes. Each such view's maintained delta
// must equal its ΔV, or the write fails with ErrPutGetViolation; a view in
// want that cannot be maintained fails the write too, since its update
// cannot be checked. maintained lists the views whose maintenance state the
// pass touched, for the caller's rollback. maintainViews must run under the
// write lock.
func (db *DB) maintainViews(changed, want map[string]eval.Delta) (maintained []*View, err error) {
	for _, name := range db.viewOrder {
		v := db.views[name]
		wantD, check := want[name]
		stale, srcChanged := db.dirty[name], false
		for _, s := range v.sources {
			stale = stale || db.dirty[s]
			if d, ok := changed[s]; ok && !d.Empty() {
				srcChanged = true
			}
		}
		if stale {
			db.dirty[name] = true
			if check {
				return maintained, fmt.Errorf("engine: view %q is stale; its update cannot be checked", name)
			}
			continue
		}
		var d eval.Delta // the view's net delta; zero when it did not change
		if srcChanged {
			edb := make(map[datalog.PredSym]eval.Delta, len(v.sources))
			for _, s := range v.sources {
				if d, ok := changed[s]; ok {
					edb[datalog.Pred(s)] = d
				}
			}
			maintained = append(maintained, v)
			out, err := v.getEval.EvalDelta(db.store, edb)
			if err != nil {
				db.dirty[name] = true
				if check {
					return maintained, fmt.Errorf("engine: maintain view %q: %w", name, err)
				}
				continue
			}
			if vd := out[datalog.Pred(name)]; !vd.Empty() {
				d = vd
				changed[name] = d
			}
		}
		if check {
			if d.Ins == nil {
				d = eval.NewDelta(v.Decl.Arity())
			}
			if err := checkPutGet(name, d, wantD); err != nil {
				return maintained, err
			}
		}
	}
	return maintained, nil
}

// checkPutGet compares a view's maintained delta got with the delta want
// its update asked for, and names the first tuple on which they differ.
func checkPutGet(name string, got, want eval.Delta) error {
	for _, side := range [...]struct {
		verb      string
		got, want *value.Relation
	}{{"inserts", got.Ins, want.Ins}, {"deletes", got.Del, want.Del}} {
		if side.got.Equal(side.want) {
			continue
		}
		if miss := side.want.Minus(side.got); !miss.Empty() {
			return fmt.Errorf("engine: view %q: %w: the update %s %s, get(put(S, V′)) does not",
				name, ErrPutGetViolation, side.verb, miss.Sorted()[0])
		}
		return fmt.Errorf("engine: view %q: %w: get(put(S, V′)) %s %s, the update does not",
			name, ErrPutGetViolation, side.verb, side.got.Minus(side.want).Sorted()[0])
	}
	return nil
}
