// Package sat is the satisfiability oracle of the validation algorithm —
// the stand-in for the Z3 theorem prover used by the paper's BIRDS
// implementation (§6.1).
//
// Every check of Algorithm 1 reduces to "does a small database instance
// exist that witnesses a property?". A Problem names the EDB relations the
// oracle may populate (Rels) and a Test that decides whether an instance is
// a witness. Find searches three ways, in order, and returns the first
// instance Test accepts:
//
//  1. guided search: the disjuncts of a guide sentence, in order, are
//     instantiated as minimal candidate models (the positive atoms of a
//     disjunct, with variables assigned depth-first from typed domain
//     pools built around the program's constants and the gaps between
//     them), at most GuideBudget assignments in all;
//  2. exhaustive small-scope search: every instance in which each
//     relation holds at most two tuples over reduced pools (three ints,
//     two floats, three strings, both bools), enumerated depth-first in
//     Rels order — for each relation the empty subset first, then, for
//     each candidate tuple a in pool order, {a} followed by {a, b} for
//     each later b — when the number of instances is at most
//     ExhaustiveBudget;
//  3. randomized search: RandomTrials instances of at most MaxTuples
//     tuples per relation, drawn from a PRNG seeded with Seed. When the
//     exhaustive phase covered its whole scope (it ran within budget, was
//     not cancelled and found no witness), a trial inside that scope —
//     every relation holding at most two distinct tuples, every value from
//     the reduced pools — is already known to be no witness: it is drawn,
//     so every later trial stays the same, but not tested.
//
// Every order above is fixed by the problem and the configuration, so the
// search is deterministic: the same problem yields the same witness. A found
// witness is definitive (the property is satisfiable); exhausting the
// budget without a witness is reported as unsatisfiable-within-bounds.
// Find checks its context before each candidate it tests: a cancelled
// search stops within one candidate and returns the context's error, never
// a "no witness" verdict it did not reach.
// GNFO satisfiability is finitely controllable (Lemma 3.1 relies on this),
// so small-scope search is the right shape of decision procedure.
//
// A Problem may carry preconditions: properties every witness satisfies
// (Test accepts an instance only if each holds on it), each reading only
// some of Rels. The oracle checks them before Test and rejects a candidate
// that breaks one without testing it. The exhaustive phase checks a
// precondition as soon as the last relation it reads is fixed, so one
// failure prunes every combination of the later relations: each of those
// instances agrees with the partial one on every relation the
// precondition reads. Preconditions can never change the witness: they
// skip only candidates Test would reject, they never reorder the
// candidates, and they consume no guide budget and no random draws of
// their own.
package sat

import (
	"context"
	"math/rand"
	"slices"
	"sort"

	"birds/internal/datalog"
	"birds/internal/eval"
	"birds/internal/fol"
	"birds/internal/value"
)

// RelSpec describes one EDB relation the oracle may populate.
type RelSpec struct {
	Name  string
	Types []string // attribute type names: int, float, string, bool, date...
}

// Arity returns the relation's arity.
func (r RelSpec) Arity() int { return len(r.Types) }

// SpecsFromDecls converts parser declarations into oracle specs.
func SpecsFromDecls(decls ...*datalog.RelDecl) []RelSpec {
	var out []RelSpec
	for _, d := range decls {
		types := make([]string, len(d.Attrs))
		for i, a := range d.Attrs {
			types[i] = a.Type
		}
		out = append(out, RelSpec{Name: d.Name, Types: types})
	}
	return out
}

// Config bounds the oracle's search.
type Config struct {
	MaxTuples        int   // tuples per relation in randomized search
	RandomTrials     int   // number of random instances
	ExhaustiveBudget int   // max instances enumerated exhaustively
	GuideBudget      int   // max variable assignments tried in guided search
	Seed             int64 // PRNG seed (deterministic by default)
}

// DefaultConfig returns the bounds used by the validator.
func DefaultConfig() Config {
	return Config{
		MaxTuples:        3,
		RandomTrials:     3000,
		ExhaustiveBudget: 150000,
		GuideBudget:      150000,
		Seed:             1,
	}
}

// Problem is one witness search.
type Problem struct {
	Rels        []RelSpec
	ExtraConsts []value.Value // constants seeding the domain pools
	Guide       fol.Formula   // optional sentence guiding minimal models
	// Test reports whether db is a witness. It may mutate db's IDB
	// relations (e.g. by running an evaluator) but must not change the
	// EDB relations named in Rels. The oracle reuses one instance per
	// phase, so IDB relations a previous call derived are still present;
	// Test must recompute every one it reads.
	Test func(db *eval.Database) bool
	// Pre are properties of every witness, checked before Test.
	Pre []Precondition
}

// Precondition is a property that every witness satisfies and that reads
// only the relations of Rels named in Reads: Test(db) true implies
// Holds(db) true. Holds must not change the EDB relations of Rels.
type Precondition struct {
	Reads []string
	Holds func(db *eval.Database) bool
}

// holdAll reports whether every precondition of pre holds on db.
func holdAll(pre []Precondition, db *eval.Database) bool {
	for _, c := range pre {
		if !c.Holds(db) {
			return false
		}
	}
	return true
}

// Oracle runs witness searches under a fixed configuration.
type Oracle struct {
	cfg Config
}

// New returns an oracle with the given configuration.
func New(cfg Config) *Oracle { return &Oracle{cfg: cfg} }

// Find searches for a witness instance. It returns nil and a nil error if
// none was found within the budget, and nil and ctx.Err() if ctx was
// cancelled before the search found a witness or exhausted its budget.
func (o *Oracle) Find(ctx context.Context, p Problem) (*eval.Database, error) {
	full := buildPools(p.ExtraConsts)
	if p.Guide != nil {
		if db := o.guided(ctx, p, full); db != nil {
			return db, nil
		}
	}
	scope := full.reduced()
	db, covered := o.exhaustive(ctx, p, scope)
	if db != nil {
		return db, nil
	}
	if db := o.random(ctx, p, full, scope, covered); db != nil {
		return db, nil
	}
	return nil, ctx.Err()
}

// --- domain pools -------------------------------------------------------

type pools struct {
	ints    []value.Value
	floats  []value.Value
	strings []value.Value
	bools   []value.Value
}

// buildPools derives per-type candidate values from the constants of the
// problem: the constants themselves plus representatives of the gaps
// between and around them (needed to witness comparison predicates).
func buildPools(consts []value.Value) *pools {
	p := &pools{bools: []value.Value{value.Bool(false), value.Bool(true)}}

	var ints []int64
	var floats []float64
	var strs []string
	for _, c := range consts {
		switch c.Kind() {
		case value.KindInt:
			ints = append(ints, c.AsInt())
		case value.KindFloat:
			floats = append(floats, c.AsFloat())
		case value.KindString:
			strs = append(strs, c.AsString())
		}
	}

	addInt := func(v int64) {
		for _, u := range ints {
			if u == v {
				return
			}
		}
		ints = append(ints, v)
	}
	if len(ints) == 0 {
		ints = []int64{0, 1}
	} else {
		sorted := append([]int64(nil), ints...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		addInt(sorted[0] - 1)
		addInt(sorted[len(sorted)-1] + 1)
		for i := 0; i+1 < len(sorted); i++ {
			if sorted[i+1]-sorted[i] > 1 {
				addInt(sorted[i] + 1)
			}
		}
	}
	sort.Slice(ints, func(i, j int) bool { return ints[i] < ints[j] })
	for _, v := range ints {
		p.ints = append(p.ints, value.Int(v))
	}

	if len(floats) == 0 {
		p.floats = []value.Value{value.Float(0), value.Float(1)}
	} else {
		sort.Float64s(floats)
		out := []float64{floats[0] - 1}
		for i, f := range floats {
			out = append(out, f)
			if i+1 < len(floats) {
				out = append(out, (f+floats[i+1])/2)
			}
		}
		out = append(out, floats[len(floats)-1]+1)
		seen := map[float64]bool{}
		for _, f := range out {
			if !seen[f] {
				seen[f] = true
				p.floats = append(p.floats, value.Float(f))
			}
		}
	}

	seenStr := map[string]bool{}
	addStr := func(s string) {
		if !seenStr[s] {
			seenStr[s] = true
			strs = append(strs, s)
		}
	}
	for _, s := range strs {
		seenStr[s] = true
	}
	if len(strs) == 0 {
		addStr("a")
		addStr("b")
	} else {
		base := append([]string(nil), strs...)
		addStr("!") // sorts below printable identifiers and digits
		for _, s := range base {
			addStr(s + "0") // sorts immediately above s
		}
	}
	sort.Strings(strs)
	for _, s := range strs {
		p.strings = append(p.strings, value.Str(s))
	}
	return p
}

// forType returns the pool for an attribute type name.
func (p *pools) forType(t string) []value.Value {
	switch t {
	case "int", "integer":
		return p.ints
	case "float", "real":
		return p.floats
	case "bool", "boolean":
		return p.bools
	default: // string, text, date, timestamp
		return p.strings
	}
}

// scopeTuples is the most tuples a relation holds in the exhaustive
// phase's scope.
const scopeTuples = 2

// reduced returns the exhaustive phase's pools: a prefix of each pool,
// which keeps the search tractable.
func (p *pools) reduced() *pools {
	prefix := func(vals []value.Value, n int) []value.Value {
		return vals[:min(n, len(vals))]
	}
	return &pools{
		ints:    prefix(p.ints, 3),
		floats:  prefix(p.floats, 2),
		strings: prefix(p.strings, 3),
		bools:   p.bools,
	}
}

// all returns the union of all pools (used when a variable's type is
// unknown).
func (p *pools) all() []value.Value {
	out := make([]value.Value, 0, len(p.ints)+len(p.floats)+len(p.strings)+len(p.bools))
	out = append(out, p.ints...)
	out = append(out, p.strings...)
	out = append(out, p.floats...)
	out = append(out, p.bools...)
	return out
}

// --- guided search ------------------------------------------------------

// disjunctPlan is one guide disjunct prepared for enumeration: its positive
// atoms and comparisons, with every variable assigned a typed candidate
// pool.
type disjunctPlan struct {
	atoms   []*fol.Atom
	cmps    []*fol.Cmp
	vars    []string
	varPool map[string][]value.Value
}

// planDisjunct prepares one disjunct; ok is false when the disjunct cannot
// seed a model (it mentions a computed relation).
func planDisjunct(dj fol.Conjunct, specByName map[string]RelSpec, pl *pools) (plan disjunctPlan, ok bool) {
	ok = true
	for _, part := range dj.Parts {
		switch g := part.(type) {
		case *fol.Atom:
			if _, known := specByName[g.Pred]; !known {
				ok = false // atom over a computed relation: cannot seed
			}
			plan.atoms = append(plan.atoms, g)
		case *fol.Cmp:
			plan.cmps = append(plan.cmps, g)
		}
	}
	if !ok {
		return plan, false
	}
	// Collect variables with a type-derived pool.
	plan.varPool = make(map[string][]value.Value)
	addVar := func(name string, pool []value.Value) {
		if _, seen := plan.varPool[name]; !seen {
			plan.varPool[name] = pool
			plan.vars = append(plan.vars, name)
		}
	}
	for _, a := range plan.atoms {
		spec := specByName[a.Pred]
		for i, t := range a.Args {
			if t.IsVar() {
				addVar(t.Var, pl.forType(spec.Types[i]))
			}
		}
	}
	for _, c := range plan.cmps {
		for _, t := range []datalog.Term{c.L, c.R} {
			if t.IsVar() {
				addVar(t.Var, pl.all())
			}
		}
	}
	return plan, true
}

// guided instantiates each disjunct of the guide sentence as a minimal
// candidate model: exactly the positive atoms of the disjunct, with
// variables enumerated over typed pools.
func (o *Oracle) guided(ctx context.Context, p Problem, pl *pools) *eval.Database {
	specByName := make(map[string]RelSpec, len(p.Rels))
	for _, r := range p.Rels {
		specByName[r.Name] = r
	}
	budget := o.cfg.GuideBudget
	db := emptyInstance(p.Rels)

	for _, dj := range fol.DisjunctiveForm(p.Guide) {
		plan, ok := planDisjunct(dj, specByName, pl)
		if !ok {
			continue
		}
		env := make(map[string]value.Value, len(plan.vars))
		if w := o.assignDFS(ctx, p, db, &plan, env, 0, &budget); w != nil {
			return w
		}
		if budget <= 0 {
			return nil
		}
	}
	return nil
}

// assignDFS enumerates assignments for plan.vars[i:], pruning on ground
// comparisons, and tests the minimal model of each full assignment, refilled
// into db in place. A cancelled ctx empties the budget, which stops the
// whole guided search.
func (o *Oracle) assignDFS(ctx context.Context, p Problem, db *eval.Database, plan *disjunctPlan,
	env map[string]value.Value, i int, budget *int) *eval.Database {
	if *budget <= 0 {
		return nil
	}
	if i == len(plan.vars) {
		if ctx.Err() != nil {
			*budget = 0
			return nil
		}
		*budget--
		clearInstance(db, p.Rels)
		for _, a := range plan.atoms {
			t := make(value.Tuple, len(a.Args))
			for j, arg := range a.Args {
				if arg.IsConst() {
					t[j] = arg.Const
				} else {
					t[j] = env[arg.Var]
				}
			}
			db.Insert(predSym(a.Pred), t)
		}
		if holdAll(p.Pre, db) && p.Test(db) {
			return db.Clone()
		}
		return nil
	}
	v := plan.vars[i]
	for _, val := range plan.varPool[v] {
		env[v] = val
		if !cmpsConsistent(plan.cmps, env) {
			continue
		}
		if w := o.assignDFS(ctx, p, db, plan, env, i+1, budget); w != nil {
			return w
		}
		if *budget <= 0 {
			break
		}
	}
	delete(env, v)
	return nil
}

// cmpsConsistent checks the ground comparisons under a partial assignment.
func cmpsConsistent(cmps []*fol.Cmp, env map[string]value.Value) bool {
	resolve := func(t datalog.Term) (value.Value, bool) {
		if t.IsConst() {
			return t.Const, true
		}
		v, ok := env[t.Var]
		return v, ok
	}
	for _, c := range cmps {
		l, okL := resolve(c.L)
		r, okR := resolve(c.R)
		if okL && okR && !c.Op.Eval(l, r) {
			return false
		}
	}
	return true
}

// --- exhaustive small-scope search ---------------------------------------

// exhaustive enumerates every instance whose relations each hold at most
// scopeTuples tuples drawn from the reduced pools scope, provided the state
// space fits the budget. A precondition is checked when the last relation
// it reads has been filled; if it fails, no instance of the subtree is
// tested. A cancelled ctx stops the enumeration at the next node of the
// walk. covered reports whether the walk rejected every instance of its
// scope: it ran within budget, was not cancelled and found no witness.
func (o *Oracle) exhaustive(ctx context.Context, p Problem, scope *pools) (witness *eval.Database, covered bool) {
	// Tuple candidate pools per relation.
	tuplePools := make([][]value.Tuple, len(p.Rels))
	total := 1.0
	for i, r := range p.Rels {
		tp := tuplesOf(r, scope)
		tuplePools[i] = tp
		// Number of subsets of size ≤ scopeTuples (two).
		n := float64(len(tp))
		count := 1 + n + n*(n-1)/2
		total *= count
		if total > float64(o.cfg.ExhaustiveBudget) {
			return nil, false // too large; fall back to random search
		}
	}

	// preAt[i] holds the preconditions whose last read relation is
	// Rels[i-1]: they are decided once relations 0..i-1 are filled.
	preAt := make([][]Precondition, len(p.Rels)+1)
	for _, c := range p.Pre {
		last := lastRead(p.Rels, c)
		preAt[last+1] = append(preAt[last+1], c)
	}

	db := emptyInstance(p.Rels)
	stopped := false
	var rec func(i int) *eval.Database
	rec = func(i int) *eval.Database {
		if ctx.Err() != nil {
			stopped = true
			return nil
		}
		if !holdAll(preAt[i], db) {
			return nil
		}
		if i == len(p.Rels) {
			if p.Test(db) {
				return db.Clone()
			}
			return nil
		}
		sym := predSym(p.Rels[i].Name)
		// Subsets of size 0, 1, 2 (scopeTuples).
		if w := rec(i + 1); w != nil || stopped {
			return w
		}
		tp := tuplePools[i]
		for a := 0; a < len(tp); a++ {
			db.Insert(sym, tp[a])
			if w := rec(i + 1); w != nil || stopped {
				return w
			}
			for b := a + 1; b < len(tp); b++ {
				db.Insert(sym, tp[b])
				if w := rec(i + 1); w != nil || stopped {
					return w
				}
				db.Delete(sym, tp[b])
			}
			db.Delete(sym, tp[a])
		}
		return nil
	}
	w := rec(0)
	return w, w == nil && !stopped
}

// lastRead returns the highest index in rels of a relation c reads, or -1
// when it reads none.
func lastRead(rels []RelSpec, c Precondition) int {
	last := -1
	for _, name := range c.Reads {
		i := slices.IndexFunc(rels, func(r RelSpec) bool { return r.Name == name })
		if i < 0 {
			panic("sat: precondition reads " + name + ", which is not a relation of the problem")
		}
		last = max(last, i)
	}
	return last
}

// tuplesOf enumerates the cartesian product of the attribute pools.
func tuplesOf(r RelSpec, pl *pools) []value.Tuple {
	out := []value.Tuple{{}}
	for _, t := range r.Types {
		pool := pl.forType(t)
		var next []value.Tuple
		for _, prefix := range out {
			for _, v := range pool {
				tup := make(value.Tuple, len(prefix)+1)
				copy(tup, prefix)
				tup[len(prefix)] = v
				next = append(next, tup)
			}
		}
		out = next
	}
	return out
}

// --- randomized search ----------------------------------------------------

// random tests RandomTrials instances drawn over the full pools. When
// covered, the exhaustive phase has rejected every instance of its scope
// (at most scopeTuples distinct tuples per relation, values from the
// reduced pools scope, a prefix of each full pool), so a trial inside it
// is drawn but neither filled in nor tested: the draws, and so every later
// trial, are those of a search without the skip.
func (o *Oracle) random(ctx context.Context, p Problem, full, scope *pools, covered bool) *eval.Database {
	rng := rand.New(rand.NewSource(o.cfg.Seed))
	db := emptyInstance(p.Rels)
	drawn := make([][]value.Tuple, len(p.Rels))
	for trial := 0; trial < o.cfg.RandomTrials; trial++ {
		if ctx.Err() != nil {
			return nil
		}
		inScope := covered
		for i, r := range p.Rels {
			n := rng.Intn(o.cfg.MaxTuples + 1)
			ts := drawn[i][:0]
			for k := 0; k < n; k++ {
				t := make(value.Tuple, r.Arity())
				for j, ty := range r.Types {
					pool := full.forType(ty)
					v := rng.Intn(len(pool))
					t[j] = pool[v]
					inScope = inScope && v < len(scope.forType(ty))
				}
				ts = append(ts, t)
			}
			drawn[i] = ts
			inScope = inScope && distinct(ts) <= scopeTuples
		}
		if inScope {
			continue
		}
		clearInstance(db, p.Rels)
		for i, r := range p.Rels {
			for _, t := range drawn[i] {
				db.Insert(predSym(r.Name), t)
			}
		}
		if holdAll(p.Pre, db) && p.Test(db) {
			return db.Clone()
		}
	}
	return nil
}

// distinct returns the number of distinct tuples of ts.
func distinct(ts []value.Tuple) int {
	n := 0
	for i, t := range ts {
		if !slices.ContainsFunc(ts[:i], t.Equal) {
			n++
		}
	}
	return n
}

// emptyInstance builds a database with an empty relation per spec.
func emptyInstance(rels []RelSpec) *eval.Database {
	db := eval.NewDatabase()
	for _, r := range rels {
		db.Ensure(predSym(r.Name), r.Arity())
	}
	return db
}

// clearInstance empties the relations of rels in place. Update keeps the
// indexes a constraint check built on them, so the next candidate reuses
// them instead of rebuilding them.
func clearInstance(db *eval.Database, rels []RelSpec) {
	for _, r := range rels {
		db.Update(predSym(r.Name), value.NewRelation(r.Arity()))
	}
}

// predSym decodes the +r / -r delta encoding used in formula atoms.
func predSym(name string) datalog.PredSym {
	if len(name) > 0 {
		switch name[0] {
		case '+':
			return datalog.Ins(name[1:])
		case '-':
			return datalog.Del(name[1:])
		}
	}
	return datalog.Pred(name)
}
