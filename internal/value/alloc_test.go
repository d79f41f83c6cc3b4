package value

import "testing"

// Allocation guards for the flat tuple storage. Probes and count updates of
// warm tuples are allocation-free at every size; a small relation pays a
// fixed handful of slice allocations and never a map; removing an absent
// tuple from storage shared with a snapshot copies nothing.

func allocTestRelation(n int) *Relation {
	r := NewRelation(2)
	for i := 0; i < n; i++ {
		r.Add(Tuple{Int(int64(i)), Int(int64(i % 7))})
	}
	return r
}

func TestAllocsContainsWarm(t *testing.T) {
	for _, n := range []int{4, 1000} {
		r := allocTestRelation(n)
		if indexed := r.heads != nil; indexed != (n > indexMinLen) {
			t.Fatalf("n=%d: indexed = %v", n, indexed)
		}
		hit := Tuple{Int(int64(n - 1)), Int(int64((n - 1) % 7))}
		miss := Tuple{Int(-1), Int(0)}
		if allocs := testing.AllocsPerRun(200, func() {
			if !r.Contains(hit) || r.Contains(miss) {
				t.Fatal("membership answers changed")
			}
		}); allocs != 0 {
			t.Errorf("n=%d: Contains allocates %v objects per run, want 0", n, allocs)
		}
	}
}

// A new relation of two tuples: the Relation itself plus the growth of its
// tuple and hash slices — and no map.
func TestAllocsSmallRelation(t *testing.T) {
	a, b := Tuple{Int(1), Int(2)}, Tuple{Int(3), Int(4)}
	const budget = 5
	if allocs := testing.AllocsPerRun(200, func() {
		r := NewRelation(2)
		r.Add(a)
		r.Add(b)
		if r.heads != nil {
			t.Fatal("a two-tuple relation must not build an index")
		}
	}); allocs > budget {
		t.Errorf("NewRelation + 2 Adds allocates %v objects per run, budget %d", allocs, budget)
	}
}

// Removing an absent tuple never copies storage shared with a snapshot.
func TestAllocsRemoveAbsentAfterSnapshot(t *testing.T) {
	for _, n := range []int{4, 1000} {
		r := allocTestRelation(n)
		snap := r.Snapshot()
		absent := Tuple{Int(-1), Int(0)}
		absentRel := RelationOf(2, absent)
		if allocs := testing.AllocsPerRun(200, func() {
			if r.Remove(absent) || r.SubtractAll(absentRel) {
				t.Fatal("removing an absent tuple changed the relation")
			}
		}); allocs != 0 {
			t.Errorf("n=%d: Remove of an absent tuple after Snapshot allocates %v objects per run, want 0", n, allocs)
		}
		if !r.shared.Load() {
			t.Errorf("n=%d: a no-op Remove diverged the relation from its snapshot", n)
		}
		// The first real removal still diverges r and leaves snap intact.
		r.Remove(Tuple{Int(0), Int(0)})
		if snap.Len() != n || r.Len() != n-1 || !snap.Contains(Tuple{Int(0), Int(0)}) {
			t.Errorf("n=%d: copy-on-write broken: snapshot %d tuples, relation %d", n, snap.Len(), r.Len())
		}
	}
}

func TestAllocsCountedAdjustWarm(t *testing.T) {
	for _, n := range []int{4, 1000} {
		c := NewCounted(2)
		for i := 0; i < n; i++ {
			c.Adjust(Tuple{Int(int64(i)), Int(0)}, 1)
		}
		tu := Tuple{Int(int64(n / 2)), Int(0)}
		if allocs := testing.AllocsPerRun(200, func() {
			c.Adjust(tu, 1)
			c.Adjust(tu, -1)
		}); allocs != 0 {
			t.Errorf("n=%d: warm counted Adjust allocates %v objects per run, want 0", n, allocs)
		}
	}
}
