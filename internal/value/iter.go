package value

import "iter"

// Lazy tuple iteration over a relation's flat storage. The streaming
// evaluator composes rule pipelines from these: a pipeline's root walks the
// dense tuple slice of one relation without copying a tuple or
// materializing an intermediate slice, and downstream operators (probes,
// filters, projections) consume tuples one at a time. Both forms are
// exposed:
//
//   - All is a push-style iter.Seq sequence (zero allocation, composes
//     with range-over-func) — the form the hot evaluation loops use;
//   - Iterator is a pull-style cursor built on iter.Pull for consumers
//     that must interleave several streams or hold their place across
//     calls (e.g. merging two relations without a callback tower).
//
// Every iterator observes the storage at the time it is created.
// Like Each, iteration must not run concurrently with mutation of the
// relation; concurrent iteration by many readers is safe. On a relation
// whose storage is shared with snapshots (copy-on-write), an in-progress
// iterator keeps walking the storage it started on even if a writer
// diverges the relation mid-iteration — the same guarantee snapshots have.

// All returns a push-style sequence over every tuple, in unspecified order.
func (r *Relation) All() iter.Seq[Tuple] {
	tuples := r.tuples
	return func(yield func(Tuple) bool) {
		for _, t := range tuples {
			if !yield(t) {
				return
			}
		}
	}
}

// Iterator is a pull-style cursor over a relation's tuples. Next returns
// the tuples one at a time; Stop releases the cursor early (it is also
// safe, and a no-op, after Next reported exhaustion). The tuples returned
// are the stored ones — never copies — and must be treated as immutable.
type Iterator struct {
	next func() (Tuple, bool)
	stop func()
}

// Next returns the next tuple, or ok=false when the iteration is done.
func (it *Iterator) Next() (Tuple, bool) { return it.next() }

// Stop ends the iteration and releases its resources. It is idempotent.
func (it *Iterator) Stop() { it.stop() }

// Iterator returns a pull-style cursor over every tuple of the relation.
// The caller must either drain it or call Stop.
func (r *Relation) Iterator() *Iterator {
	next, stop := iter.Pull(r.All())
	return &Iterator{next: next, stop: stop}
}
