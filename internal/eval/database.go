// Package eval implements bottom-up stratified evaluation of the
// nonrecursive Datalog dialect of the paper over in-memory relations,
// including delta-relation application S ⊕ ΔS (§3.1).
//
// Rule bodies are compiled to join plans: literals are greedily reordered so
// that bound-variable lookups happen through hash indexes. Indexes live on
// the Database and are maintained incrementally across updates, which is
// what lets incrementalized strategies (∂put, Section 5) run in time
// proportional to the view delta rather than the base tables — the effect
// Figure 6 measures.
package eval

import (
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"

	"birds/internal/datalog"
	"birds/internal/value"
)

// Database maps predicate symbols to relations. It also owns the hash
// indexes built for join plans, registered per predicate so that Insert and
// Delete maintain only the affected indexes. Indexes are maintained
// incrementally across updates and rebuilt in place by Update; Set drops
// them.
//
// Relations and indexes live in dense slots: slots maps a predicate to its
// slot once, and a slot is never removed, so an evaluator that resolved a
// predicate's slot (evalCtx) reads it as a slice element for as long as it
// evaluates over the same database, which id identifies. Only methods that
// write the database create a slot (Set, Update, Ensure, Insert, Index);
// the read methods (Rel, RelOrEmpty, LookupExisting, Preds, Equal, String)
// never do, so they are safe for concurrent readers.
type Database struct {
	id      uint64
	slots   map[datalog.PredSym]int
	preds   []datalog.PredSym // slot → predicate
	rels    []*value.Relation // slot → relation
	indexes [][]*hashIndex    // slot → maintained indexes
}

// lastDatabaseID numbers databases; a fresh database takes the next id.
var lastDatabaseID atomic.Uint64

// hashIndex maps the hash of a tuple's projection onto key positions to the
// tuples having that projection. Buckets are keyed by the 64-bit projection
// hash; within a bucket, tuples are grouped by distinct projection, so a
// probe resolves hash collisions by comparing the key against one
// representative per group — O(groups) ≈ O(1), never O(bucket).
type hashIndex struct {
	positions []int
	buckets   map[uint64][]indexGroup
	// hot records whether the index was probed since the last Update; a
	// relation replacement drops cold indexes (e.g. one-off WHERE-clause
	// probes) instead of eagerly rebuilding them forever.
	hot bool
}

// indexGroup is the set of tuples sharing one exact key projection. rep is
// any tuple of the group; its projection defines the group (tuples are
// immutable once indexed, so rep stays valid even after it is removed from
// tuples).
type indexGroup struct {
	rep    value.Tuple
	tuples []value.Tuple
}

// maskOf renders key positions as "0,2": the diagnostics form
// (IndexStats) and the streaming table-cache key (step.mask).
func maskOf(positions []int) string {
	var b strings.Builder
	for i, p := range positions {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.Itoa(p))
	}
	return b.String()
}

// keyHash hashes the projection of t onto the index's key positions in
// place, without materializing the projected tuple.
func (ix *hashIndex) keyHash(t value.Tuple) uint64 {
	h := value.HashSeed
	for _, p := range ix.positions {
		h = value.HashMix(h, t[p])
	}
	return h
}

// projMatches reports whether t's projection onto positions equals key
// element-wise.
func projMatches(t value.Tuple, positions []int, key value.Tuple) bool {
	for i, p := range positions {
		if !t[p].Equal(key[i]) {
			return false
		}
	}
	return true
}

// projEqual reports whether two tuples agree on the key positions.
func projEqual(t, u value.Tuple, positions []int) bool {
	for _, p := range positions {
		if !t[p].Equal(u[p]) {
			return false
		}
	}
	return true
}

func (ix *hashIndex) add(t value.Tuple) {
	h := ix.keyHash(t)
	bucket := ix.buckets[h]
	for gi := range bucket {
		if projEqual(bucket[gi].rep, t, ix.positions) {
			bucket[gi].tuples = append(bucket[gi].tuples, t)
			return
		}
	}
	ix.buckets[h] = append(bucket, indexGroup{rep: t, tuples: []value.Tuple{t}})
}

func (ix *hashIndex) remove(t value.Tuple) {
	h := ix.keyHash(t)
	bucket := ix.buckets[h]
	for gi := range bucket {
		g := &bucket[gi]
		if !projEqual(g.rep, t, ix.positions) {
			continue
		}
		for i, u := range g.tuples {
			if u.Equal(t) {
				g.tuples[i] = g.tuples[len(g.tuples)-1]
				g.tuples = g.tuples[:len(g.tuples)-1]
				break
			}
		}
		if len(g.tuples) == 0 {
			if len(bucket) == 1 {
				delete(ix.buckets, h)
			} else {
				bucket[gi] = bucket[len(bucket)-1]
				ix.buckets[h] = bucket[:len(bucket)-1]
			}
		}
		return
	}
}

// lookup returns the tuples whose projection on the index's key positions
// equals key. It is a pure read — no allocation, no mutation — and is safe
// to call concurrently from many goroutines as long as the index (and the
// indexed relation) is not being mutated; LookupExisting readers under a
// shared lock rely on this.
func (ix *hashIndex) lookup(key value.Tuple) []value.Tuple {
	h := value.HashSeed
	for _, v := range key {
		h = value.HashMix(h, v)
	}
	// Hash collisions are rare: the bucket almost always holds one group,
	// whose representative is compared against the key once.
	for _, g := range ix.buckets[h] {
		if projMatches(g.rep, ix.positions, key) {
			return g.tuples
		}
	}
	return nil
}

// rebuild repopulates the index from rel, reusing the bucket map.
func (ix *hashIndex) rebuild(rel *value.Relation) {
	clear(ix.buckets)
	if rel != nil {
		rel.Each(ix.add)
	}
}

// NewDatabase returns an empty database.
func NewDatabase() *Database {
	return &Database{id: lastDatabaseID.Add(1), slots: make(map[datalog.PredSym]int)}
}

// slotOf returns p's slot, or -1 when p has none. It is a pure read.
func (db *Database) slotOf(p datalog.PredSym) int {
	if s, ok := db.slots[p]; ok {
		return s
	}
	return -1
}

// slot returns p's slot, creating an empty one when p has none. The
// caller must have exclusive use of the database.
func (db *Database) slot(p datalog.PredSym) int {
	if s, ok := db.slots[p]; ok {
		return s
	}
	s := len(db.preds)
	db.slots[p] = s
	db.preds = append(db.preds, p)
	db.rels = append(db.rels, nil)
	db.indexes = append(db.indexes, nil)
	return s
}

// Rel returns the relation for p, or nil if absent.
func (db *Database) Rel(p datalog.PredSym) *value.Relation {
	if s := db.slotOf(p); s >= 0 {
		return db.rels[s]
	}
	return nil
}

// RelOrEmpty returns the relation for p, or an empty relation of the given
// arity if absent (without storing it).
func (db *Database) RelOrEmpty(p datalog.PredSym, arity int) *value.Relation {
	if r := db.Rel(p); r != nil {
		return r
	}
	return value.NewRelation(arity)
}

// Set installs rel as the relation for p, dropping any indexes on p.
func (db *Database) Set(p datalog.PredSym, rel *value.Relation) {
	s := db.slot(p)
	db.rels[s] = rel
	db.indexes[s] = nil
}

// Update installs rel as the relation for p like Set, but keeps the
// indexes on p that were probed since the last replacement, rebuilding
// their buckets from rel in place; indexes that went unprobed are dropped
// (they rebuild lazily if ever needed again). The evaluator uses it when
// replacing IDB relations so that join indexes built in one evaluation
// survive to the next, without paying forever for one-off ad-hoc probes.
func (db *Database) Update(p datalog.PredSym, rel *value.Relation) {
	db.updateAt(db.slot(p), rel)
}

// updateAt is Update on slot s.
func (db *Database) updateAt(s int, rel *value.Relation) {
	db.rels[s] = rel
	ixs := db.indexes[s]
	kept := ixs[:0]
	for _, ix := range ixs {
		if !ix.hot {
			continue
		}
		ix.hot = false
		ix.rebuild(rel)
		kept = append(kept, ix)
	}
	if len(kept) == 0 {
		kept = nil
	}
	db.indexes[s] = kept
}

// Ensure returns the relation for p, creating an empty one of the given
// arity if absent.
func (db *Database) Ensure(p datalog.PredSym, arity int) *value.Relation {
	s := db.slot(p)
	if db.rels[s] == nil {
		db.rels[s] = value.NewRelation(arity)
	}
	return db.rels[s]
}

// Insert adds t to p's relation, maintaining only p's indexes. It reports
// whether the database changed. The relation takes ownership of t.
func (db *Database) Insert(p datalog.PredSym, t value.Tuple) bool {
	s := db.slot(p)
	r := db.rels[s]
	if r == nil {
		r = value.NewRelation(len(t))
		db.rels[s] = r
	}
	if !r.Add(t) {
		return false
	}
	for _, ix := range db.indexes[s] {
		ix.add(t)
	}
	return true
}

// Delete removes t from p's relation, maintaining only p's indexes. It
// reports whether the database changed.
func (db *Database) Delete(p datalog.PredSym, t value.Tuple) bool {
	s := db.slotOf(p)
	if s < 0 || db.rels[s] == nil || !db.rels[s].Remove(t) {
		return false
	}
	for _, ix := range db.indexes[s] {
		ix.remove(t)
	}
	return true
}

// Index returns (building if needed) a maintained hash index on p keyed by
// the given positions.
func (db *Database) Index(p datalog.PredSym, positions []int) *hashIndex {
	return db.indexAt(db.slot(p), positions)
}

// indexAt is Index on slot s.
func (db *Database) indexAt(s int, positions []int) *hashIndex {
	if ix := findIndex(db.indexes[s], positions); ix != nil {
		ix.hot = true
		return ix
	}
	ix := &hashIndex{positions: positions, buckets: make(map[uint64][]indexGroup), hot: true}
	if r := db.rels[s]; r != nil {
		r.Each(ix.add)
	}
	db.indexes[s] = append(db.indexes[s], ix)
	return ix
}

// findIndex returns the index of ixs keyed on exactly positions, or nil.
func findIndex(ixs []*hashIndex, positions []int) *hashIndex {
	for _, ix := range ixs {
		if slices.Equal(ix.positions, positions) {
			return ix
		}
	}
	return nil
}

// Lookup returns the tuples of p whose projection on positions equals key.
// The probe hashes key in place; no per-probe tuple or key string is
// allocated. The returned slice is owned by the index and must not be
// mutated or retained across updates.
func (db *Database) Lookup(p datalog.PredSym, positions []int, key value.Tuple) []value.Tuple {
	return db.Index(p, positions).lookup(key)
}

// LookupExisting probes an already-built index on p for positions without
// building one and without touching any index bookkeeping — a pure read,
// safe concurrently with other readers as long as no writer mutates the
// database. ok reports whether such an index exists; when false the caller
// must fall back to a scan or build the index under exclusive access. An
// index probed only through LookupExisting is not marked hot, so a
// subsequent Update of the relation may drop it; base-table relations,
// which are maintained by Insert/Delete rather than replaced, keep it.
func (db *Database) LookupExisting(p datalog.PredSym, positions []int, key value.Tuple) (tuples []value.Tuple, ok bool) {
	if s := db.slotOf(p); s >= 0 {
		if ix := findIndex(db.indexes[s], positions); ix != nil {
			return ix.lookup(key), true
		}
	}
	return nil, false
}

// IndexStats describes one live index, for diagnostics.
type IndexStats struct {
	Pred      datalog.PredSym
	Positions string
	Buckets   int
	MaxBucket int
}

// Indexes reports the live indexes and their bucket shapes (diagnostics).
func (db *Database) Indexes() []IndexStats {
	var out []IndexStats
	for s, ixs := range db.indexes {
		p := db.preds[s]
		for _, ix := range ixs {
			groups, max := 0, 0
			for _, bucket := range ix.buckets {
				groups += len(bucket)
				for _, g := range bucket {
					if len(g.tuples) > max {
						max = len(g.tuples)
					}
				}
			}
			out = append(out, IndexStats{Pred: p, Positions: maskOf(ix.positions), Buckets: groups, MaxBucket: max})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Pred != out[j].Pred {
			return out[i].Pred.String() < out[j].Pred.String()
		}
		return out[i].Positions < out[j].Positions
	})
	return out
}

// Preds returns the predicates present, sorted for determinism.
func (db *Database) Preds() []datalog.PredSym {
	out := make([]datalog.PredSym, 0, len(db.preds))
	for s, p := range db.preds {
		if db.rels[s] != nil {
			out = append(out, p)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Name != out[j].Name {
			return out[i].Name < out[j].Name
		}
		return out[i].Delta < out[j].Delta
	})
	return out
}

// Clone returns a deep copy of the database under a new id (indexes are
// not copied; they rebuild lazily).
func (db *Database) Clone() *Database {
	out := NewDatabase()
	for s, p := range db.preds {
		if r := db.rels[s]; r != nil {
			out.rels[out.slot(p)] = r.Clone()
		}
	}
	return out
}

// Equal reports whether two databases hold the same relations for the given
// predicates.
func (db *Database) Equal(other *Database, preds []datalog.PredSym) bool {
	for _, p := range preds {
		a, b := db.Rel(p), other.Rel(p)
		switch {
		case a == nil && b == nil:
		case a == nil:
			if !b.Empty() {
				return false
			}
		case b == nil:
			if !a.Empty() {
				return false
			}
		default:
			if !a.Equal(b) {
				return false
			}
		}
	}
	return true
}

// String renders the database deterministically, for tests and debugging.
func (db *Database) String() string {
	var b strings.Builder
	for _, p := range db.Preds() {
		fmt.Fprintf(&b, "%s = %s\n", p, db.Rel(p))
	}
	return b.String()
}
