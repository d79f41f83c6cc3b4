package value

import (
	"fmt"
	"sort"
	"strings"
)

// CountedRelation is a relation whose tuples carry a support count — the
// number of derivations currently producing the tuple. It is the state a
// counting-based incremental view maintenance pass keeps per IDB relation:
// a tuple is logically present while its count is positive, appears when the
// count crosses 0 → positive, and disappears when it returns to 0.
//
// The storage is Relation's (tupleSet) plus a parallel slice of counts, so
// the probe of Adjust on a warm tuple allocates nothing (the alloc guard in
// alloc_test.go pins this). Like Relation, tuples are stored by reference
// and must be treated as immutable once handed to Adjust.
type CountedRelation struct {
	arity int
	size  int // tuples with positive count
	tupleSet
	counts []int // parallel to tuples
}

// NewCounted returns an empty counted relation of the given arity.
func NewCounted(arity int) *CountedRelation {
	return &CountedRelation{arity: arity}
}

// Arity reports the arity of the relation.
func (c *CountedRelation) Arity() int { return c.arity }

// Len reports the number of tuples with positive support.
func (c *CountedRelation) Len() int { return c.size }

// Count returns the support count of t (0 if absent).
func (c *CountedRelation) Count(t Tuple) int {
	if i := c.find(t.Hash(), t); i >= 0 {
		return c.counts[i]
	}
	return 0
}

// Adjust adds d to the support count of t and reports the transition:
// appeared is true when the count crossed from ≤0 to positive, vanished when
// it crossed from positive to ≤0. A zero-count entry is removed. Counts never
// go negative under correct delta propagation; Adjust tolerates it (the
// tuple simply stays logically absent) so that a propagation bug surfaces as
// a differential-test failure rather than a panic deep in the engine.
func (c *CountedRelation) Adjust(t Tuple, d int) (appeared, vanished bool) {
	if len(t) != c.arity {
		panic("value: counted relation arity mismatch on Adjust")
	}
	if d == 0 {
		return false, false
	}
	h := t.Hash()
	old := 0
	if i := c.find(h, t); i >= 0 {
		old = c.counts[i]
		c.counts[i] += d
		if c.counts[i] == 0 {
			last := len(c.counts) - 1
			c.counts[i] = c.counts[last]
			c.counts = c.counts[:last]
			c.removeAt(i)
		}
	} else {
		c.push(h, t)
		c.counts = append(c.counts, d)
	}
	appeared = old <= 0 && old+d > 0
	vanished = old > 0 && old+d <= 0
	if appeared {
		c.size++
	}
	if vanished {
		c.size--
	}
	return appeared, vanished
}

// Each calls fn for every tuple with positive support, with its count; fn
// must not mutate the relation.
func (c *CountedRelation) Each(fn func(Tuple, int)) {
	for i, t := range c.tuples {
		if n := c.counts[i]; n > 0 {
			fn(t, n)
		}
	}
}

// Relation materializes the positive-support tuples as a plain Relation.
// When every stored tuple has positive support — always after counting
// derivations only up — it copies the storage, hash index included,
// instead of re-inserting tuple by tuple.
func (c *CountedRelation) Relation() *Relation {
	if c.size == len(c.tuples) {
		return &Relation{arity: c.arity, tupleSet: c.clone()}
	}
	out := NewRelation(c.arity)
	c.Each(func(t Tuple, _ int) { out.Add(t) })
	return out
}

// String renders the counted relation deterministically, for debugging.
func (c *CountedRelation) String() string {
	type entry struct {
		t Tuple
		n int
	}
	var es []entry
	c.Each(func(t Tuple, n int) { es = append(es, entry{t, n}) })
	sort.Slice(es, func(i, j int) bool { return es[i].t.Compare(es[j].t) < 0 })
	var b strings.Builder
	b.WriteByte('{')
	for i, e := range es {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%s×%d", e.t, e.n)
	}
	b.WriteByte('}')
	return b.String()
}
