package value

import (
	"maps"
	"slices"
	"sort"
	"strings"
	"sync/atomic"
)

// Relation is a finite set of tuples of a fixed arity, with set semantics.
// It is the runtime representation of both EDB and IDB relations.
//
// Membership is hash-native: every tuple is stored with its Tuple.Hash and
// collisions resolve with Tuple.Equal, so Int/Float duplicates collapse the
// same way Equal treats them, without materializing a string key per tuple.
// The storage is flat (see tupleSet): scans walk one dense slice, and a
// relation of a few tuples allocates no map at all.
//
// Tuples are stored by reference, not defensively copied: a tuple handed to
// Add (directly or via RelationOf/UnionWith) is owned by the relation from
// then on, and tuples observed through Each/Tuples/Sorted are the stored
// ones. Callers must treat tuples as immutable once they reach a relation;
// every producer in this codebase allocates a fresh tuple per derived row
// (see compiledRule.exec, applyAssignments).
type Relation struct {
	arity int
	tupleSet
	// shared marks the storage as referenced by at least one Snapshot: the
	// next mutation copies it first (copy-on-write), so snapshot holders
	// can keep reading the old storage. It is atomic because concurrent
	// readers may take snapshots of one relation at the same time (the
	// engine serves Get under a read lock); mutators run exclusively (write
	// lock) and see the flag via lock ordering.
	shared atomic.Bool
}

// indexMinLen is the largest tuple set that answers membership by a linear
// scan of its hashes. One tuple past it, the set builds its hash → position
// index; below it, a set costs no map allocation — the common case for the
// many tiny relations the validation oracle and delta propagation create.
const indexMinLen = 8

// tupleSet is the storage shared by Relation and CountedRelation: tuples in
// one dense slice, their hashes in a parallel slice, and — once the set
// outgrows indexMinLen — a chained hash index over positions: heads maps a
// hash to the position of its newest tuple, and next links each position
// to the previous one with the same hash (-1 ends a chain). Tuples that
// Equal each other share a hash, so a chain holds every candidate for a
// membership probe. Removal swaps the last tuple into the hole, so the
// slices stay dense; positions are int32, bounding a set to 2³¹-1 tuples.
type tupleSet struct {
	tuples []Tuple
	hashes []uint64
	heads  map[uint64]int32 // built when the set outgrows indexMinLen, then kept
	next   []int32          // parallel to tuples while heads != nil
}

// find returns the position of t, whose hash is h, or -1.
func (s *tupleSet) find(h uint64, t Tuple) int {
	if s.heads == nil {
		for i, x := range s.hashes {
			if x == h && s.tuples[i].Equal(t) {
				return i
			}
		}
		return -1
	}
	i, ok := s.heads[h]
	if !ok {
		return -1
	}
	for ; i >= 0; i = s.next[i] {
		if s.tuples[i].Equal(t) {
			return int(i)
		}
	}
	return -1
}

// push appends t, whose hash is h, without a membership check.
func (s *tupleSet) push(h uint64, t Tuple) {
	s.tuples = append(s.tuples, t)
	s.hashes = append(s.hashes, h)
	if s.heads != nil {
		s.link(len(s.tuples)-1, h)
	} else if len(s.tuples) > indexMinLen {
		s.buildIndex()
	}
}

// link makes position i, whose hash is h, the head of h's chain; next must
// already hold exactly i entries.
func (s *tupleSet) link(i int, h uint64) {
	prev, ok := s.heads[h]
	if !ok {
		prev = -1
	}
	s.next = append(s.next, prev)
	s.heads[h] = int32(i)
}

func (s *tupleSet) buildIndex() {
	s.heads = make(map[uint64]int32, len(s.tuples))
	s.next = make([]int32, 0, cap(s.tuples))
	for i, h := range s.hashes {
		s.link(i, h)
	}
}

// relink redirects the chain pointer that refers to position from — h's
// head or a predecessor's next — to position to. A negative to cuts the
// chain there; a chain left empty leaves heads.
func (s *tupleSet) relink(h uint64, from, to int32) {
	if s.heads[h] == from {
		if to < 0 {
			delete(s.heads, h)
		} else {
			s.heads[h] = to
		}
		return
	}
	i := s.heads[h]
	for s.next[i] != from {
		i = s.next[i]
	}
	s.next[i] = to
}

// removeAt deletes the tuple at position i by moving the last tuple into
// its place. Callers keeping a slice parallel to tuples must apply the same
// move to it.
func (s *tupleSet) removeAt(i int) {
	last := len(s.tuples) - 1
	if s.heads != nil {
		s.relink(s.hashes[i], int32(i), s.next[i])
		if i != last {
			s.relink(s.hashes[last], int32(last), int32(i))
			s.next[i] = s.next[last]
		}
		s.next = s.next[:last]
	}
	s.tuples[i] = s.tuples[last]
	s.hashes[i] = s.hashes[last]
	s.tuples[last] = nil // drop the reference for the garbage collector
	s.tuples = s.tuples[:last]
	s.hashes = s.hashes[:last]
}

// clone returns a private copy of the storage; the tuples themselves are
// shared. A set that has shrunk back to indexMinLen leaves its index behind.
func (s *tupleSet) clone() tupleSet {
	c := tupleSet{tuples: slices.Clone(s.tuples), hashes: slices.Clone(s.hashes)}
	if s.heads != nil && len(s.tuples) > indexMinLen {
		c.heads = maps.Clone(s.heads)
		c.next = slices.Clone(s.next)
	}
	return c
}

// NewRelation returns an empty relation of the given arity.
func NewRelation(arity int) *Relation {
	return &Relation{arity: arity}
}

// RelationOf builds a relation of the given arity from tuples.
func RelationOf(arity int, tuples ...Tuple) *Relation {
	r := NewRelation(arity)
	for _, t := range tuples {
		r.Add(t)
	}
	return r
}

// Arity reports the arity of the relation.
func (r *Relation) Arity() int { return r.arity }

// Len reports the number of tuples.
func (r *Relation) Len() int { return len(r.tuples) }

// Empty reports whether the relation has no tuples.
func (r *Relation) Empty() bool { return len(r.tuples) == 0 }

// addHashed inserts t under its precomputed hash, reporting whether the
// relation changed. Storage shared with a snapshot is copied only when t is
// actually new.
func (r *Relation) addHashed(h uint64, t Tuple) bool {
	if r.containsHashed(h, t) {
		return false
	}
	r.ensureOwned()
	r.push(h, t)
	return true
}

// containsHashed reports membership of t under its precomputed hash.
func (r *Relation) containsHashed(h uint64, t Tuple) bool {
	return r.find(h, t) >= 0
}

// Snapshot returns an immutable view of the relation in O(1): the snapshot
// shares the storage, and the next mutation of either side copies the
// storage first (copy-on-write), so a snapshot keeps observing exactly the
// state at the time it was taken. Taking a snapshot never copies tuples;
// the deferred copy is paid at most once per snapshot by the first writer.
// Concurrent Snapshot calls on one relation are safe; mutations must still
// be externally serialized against each other, as for every other method.
//
// Callers must not mutate a snapshot (mutating methods would quietly COW
// and diverge); treat it as read-only.
func (r *Relation) Snapshot() *Relation {
	r.shared.Store(true)
	s := &Relation{arity: r.arity, tupleSet: r.tupleSet}
	s.shared.Store(true)
	return s
}

// ensureOwned gives r private storage before a mutation when the current
// storage is shared with snapshots.
func (r *Relation) ensureOwned() {
	if !r.shared.Load() {
		return
	}
	r.tupleSet = r.clone()
	r.shared.Store(false)
}

// Add inserts t; it reports whether the relation changed. The relation
// takes ownership of t (no defensive copy); t must not be mutated
// afterwards. Add panics on an arity mismatch, which always indicates a
// bug in the caller.
func (r *Relation) Add(t Tuple) bool {
	if len(t) != r.arity {
		panic("value: relation arity mismatch on Add")
	}
	return r.addHashed(t.Hash(), t)
}

// Remove deletes t; it reports whether the relation changed. Storage shared
// with a snapshot is copied only when t is actually present.
func (r *Relation) Remove(t Tuple) bool {
	i := r.find(t.Hash(), t)
	if i < 0 {
		return false
	}
	r.ensureOwned()
	r.removeAt(i)
	return true
}

// Contains reports whether t is in the relation.
func (r *Relation) Contains(t Tuple) bool {
	return r.containsHashed(t.Hash(), t)
}

// Find returns the stored tuple equal to t, reporting whether there is one.
// It differs from t only where Equal widens (Int 1 against Float 1).
func (r *Relation) Find(t Tuple) (Tuple, bool) {
	if i := r.find(t.Hash(), t); i >= 0 {
		return r.tuples[i], true
	}
	return nil, false
}

// Each calls fn for every tuple; fn must not mutate the relation.
func (r *Relation) Each(fn func(Tuple)) {
	for _, t := range r.tuples {
		fn(t)
	}
}

// EachUntil calls fn for every tuple until fn returns false; it reports
// whether the iteration ran to completion.
func (r *Relation) EachUntil(fn func(Tuple) bool) bool {
	for _, t := range r.tuples {
		if !fn(t) {
			return false
		}
	}
	return true
}

// Tuples returns the tuples in an unspecified order.
func (r *Relation) Tuples() []Tuple {
	return slices.Clone(r.tuples)
}

// Sorted returns the tuples in lexicographic order, for deterministic output.
func (r *Relation) Sorted() []Tuple {
	out := r.Tuples()
	sort.Slice(out, func(i, j int) bool { return out[i].Compare(out[j]) < 0 })
	return out
}

// Clone returns an independent copy of r. The tuples themselves are shared
// (they are immutable by convention); only the set structure is copied.
func (r *Relation) Clone() *Relation {
	return &Relation{arity: r.arity, tupleSet: r.clone()}
}

// Equal reports whether two relations hold exactly the same tuples.
func (r *Relation) Equal(s *Relation) bool {
	if r.Len() != s.Len() {
		return false
	}
	for i, t := range r.tuples {
		if !s.containsHashed(r.hashes[i], t) {
			return false
		}
	}
	return true
}

// UnionWith inserts every tuple of s into r and reports whether r changed.
// It panics on an arity mismatch, like Add.
func (r *Relation) UnionWith(s *Relation) bool {
	if r.arity != s.arity {
		panic("value: relation arity mismatch on UnionWith")
	}
	changed := false
	for i, t := range s.tuples {
		if r.addHashed(s.hashes[i], t) {
			changed = true
		}
	}
	return changed
}

// SubtractAll removes every tuple of s from r and reports whether r changed.
func (r *Relation) SubtractAll(s *Relation) bool {
	if s == r { // the loop below would walk the slice it compacts
		changed := !r.Empty()
		r.tupleSet = tupleSet{}
		r.shared.Store(false)
		return changed
	}
	changed := false
	for i, t := range s.tuples {
		if j := r.find(s.hashes[i], t); j >= 0 {
			r.ensureOwned()
			r.removeAt(j)
			changed = true
		}
	}
	return changed
}

// Intersect returns the set of tuples present in both r and s.
func (r *Relation) Intersect(s *Relation) *Relation {
	out := NewRelation(r.arity)
	small, big := r, s
	if s.Len() < r.Len() {
		small, big = s, r
	}
	for i, t := range small.tuples {
		if h := small.hashes[i]; big.containsHashed(h, t) {
			out.push(h, t)
		}
	}
	return out
}

// Minus returns r \ s as a new relation.
func (r *Relation) Minus(s *Relation) *Relation {
	out := NewRelation(r.arity)
	for i, t := range r.tuples {
		if h := r.hashes[i]; !s.containsHashed(h, t) {
			out.push(h, t)
		}
	}
	return out
}

// String renders the relation as a sorted set of tuples.
func (r *Relation) String() string {
	var b strings.Builder
	b.WriteByte('{')
	for i, t := range r.Sorted() {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(t.String())
	}
	b.WriteByte('}')
	return b.String()
}
