package value

import (
	"testing"
)

func iterTestRelation(n int) *Relation {
	r := NewRelation(2)
	for i := 0; i < n; i++ {
		r.Add(Tuple{Int(int64(i)), Int(int64(i % 7))})
	}
	return r
}

// All must visit every tuple exactly once, and early exit must stop the walk.
func TestAllSeq(t *testing.T) {
	r := iterTestRelation(100)
	seen := NewRelation(2)
	for tu := range r.All() {
		if !seen.Add(tu) {
			t.Fatalf("tuple %v yielded twice", tu)
		}
	}
	if !seen.Equal(r) {
		t.Fatalf("All visited %d tuples, want %d", seen.Len(), r.Len())
	}
	count := 0
	for range r.All() {
		count++
		if count == 10 {
			break
		}
	}
	if count != 10 {
		t.Fatalf("early exit after 10, walked %d", count)
	}
}

// The pull cursor must yield the same set as push iteration, tolerate an
// early Stop, and be idempotent on Stop.
func TestPullIterator(t *testing.T) {
	r := iterTestRelation(200)
	it := r.Iterator()
	seen := NewRelation(2)
	for {
		tu, ok := it.Next()
		if !ok {
			break
		}
		if !seen.Add(tu) {
			t.Fatalf("tuple %v pulled twice", tu)
		}
	}
	it.Stop() // after exhaustion: no-op
	if !seen.Equal(r) {
		t.Fatalf("Iterator pulled %d tuples, want %d", seen.Len(), r.Len())
	}

	it = r.Iterator()
	if _, ok := it.Next(); !ok {
		t.Fatal("fresh iterator empty on a non-empty relation")
	}
	it.Stop()
	it.Stop()
	if _, ok := it.Next(); ok {
		t.Fatal("Next after Stop must report exhaustion")
	}
}

// An iterator created before a COW divergence keeps observing the storage
// it started on — the snapshot guarantee extended to iteration.
func TestIteratorObservesSnapshotStorage(t *testing.T) {
	r := iterTestRelation(50)
	snap := r.Snapshot()
	seq := snap.All()
	r.Add(Tuple{Int(10_000), Int(0)}) // diverges r from the shared storage
	n := 0
	for range seq {
		n++
	}
	if n != 50 {
		t.Fatalf("snapshot sequence saw %d tuples, want 50", n)
	}
	if r.Len() != 51 {
		t.Fatalf("writer relation has %d tuples, want 51", r.Len())
	}
}
