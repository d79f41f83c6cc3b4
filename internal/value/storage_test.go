package value

import (
	"fmt"
	"math/rand"
	"testing"
)

// Tests of the flat tuple storage shared by Relation and CountedRelation:
// a randomized differential against a trivial map model, white-box
// collision handling at indexed size, and the storage invariants both
// check after every step.

// checkStorage verifies the tupleSet invariants: hashes parallel to tuples
// (and equal to Tuple.Hash unless the test forced them), and — when the
// index is built — every position on exactly one chain, the chain of its
// own hash.
func checkStorage(t *testing.T, s *tupleSet, realHashes bool) {
	t.Helper()
	if len(s.hashes) != len(s.tuples) {
		t.Fatalf("hashes has %d entries, tuples %d", len(s.hashes), len(s.tuples))
	}
	if realHashes {
		for i, tu := range s.tuples {
			if s.hashes[i] != tu.Hash() {
				t.Fatalf("position %d: stored hash %x, Tuple.Hash %x", i, s.hashes[i], tu.Hash())
			}
		}
	}
	if s.heads == nil {
		if len(s.tuples) > indexMinLen {
			t.Fatalf("%d tuples without an index (threshold %d)", len(s.tuples), indexMinLen)
		}
		return
	}
	if len(s.next) != len(s.tuples) {
		t.Fatalf("next has %d entries, tuples %d", len(s.next), len(s.tuples))
	}
	seen := make([]bool, len(s.tuples))
	for h, i := range s.heads {
		if i < 0 {
			t.Fatalf("hash %x has an empty chain in heads", h)
		}
		for ; i >= 0; i = s.next[i] {
			if int(i) >= len(s.tuples) {
				t.Fatalf("chain of %x points past the end: %d", h, i)
			}
			if seen[i] {
				t.Fatalf("position %d linked twice", i)
			}
			seen[i] = true
			if s.hashes[i] != h {
				t.Fatalf("position %d (hash %x) on the chain of %x", i, s.hashes[i], h)
			}
		}
	}
	for i, ok := range seen {
		if !ok {
			t.Fatalf("position %d on no chain", i)
		}
	}
}

// modelKey canonicalizes a tuple for the map model: integral floats print
// as the Int they Equal, so numeric widening collapses in the model too.
func modelKey(tu Tuple) string {
	c := make(Tuple, len(tu))
	for i, v := range tu {
		if v.Kind() == KindFloat && v.AsFloat() == float64(int64(v.AsFloat())) {
			v = Int(int64(v.AsFloat()))
		}
		c[i] = v
	}
	return c.String()
}

// genTuple draws from a domain of 40 tuples; the same tuple comes back
// with Int or Float elements, so widening is exercised.
func genTuple(rng *rand.Rand) Tuple {
	k := rng.Intn(20)
	a := Int(int64(k))
	if rng.Intn(3) == 0 {
		a = Float(float64(k))
	}
	return Tuple{a, Str(string(rune('a' + rng.Intn(2))))}
}

type modelSet map[string]Tuple

func (m modelSet) clone() modelSet {
	c := make(modelSet, len(m))
	for k, v := range m {
		c[k] = v
	}
	return c
}

func checkRelation(t *testing.T, r *Relation, m modelSet) {
	t.Helper()
	checkStorage(t, &r.tupleSet, true)
	if r.Len() != len(m) {
		t.Fatalf("Len = %d, model has %d", r.Len(), len(m))
	}
	got := make(map[string]bool)
	r.Each(func(tu Tuple) {
		k := modelKey(tu)
		if _, ok := m[k]; !ok || got[k] {
			t.Fatalf("Each yielded %v: in model %v, repeated %v", tu, ok, got[k])
		}
		got[k] = true
	})
	for _, tu := range m {
		if !r.Contains(tu) {
			t.Fatalf("relation lost %v", tu)
		}
	}
}

// Relation against the map model under random operations, on a pool of
// relations (so binary operations and snapshots mix states). Add/Remove
// phases alternate so sizes cross indexMinLen in both directions.
func TestRelationDifferential(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		t.Run(fmt.Sprint("seed=", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			const pool = 3
			rels := make([]*Relation, pool)
			models := make([]modelSet, pool)
			for i := range rels {
				rels[i], models[i] = NewRelation(2), make(modelSet)
			}
			crossedUp, crossedDown := false, false
			for step := 0; step < 3000; step++ {
				growing := step/150%2 == 0
				i, j := rng.Intn(pool), rng.Intn(pool)
				r, m := rels[i], models[i]
				tu := genTuple(rng)
				k := modelKey(tu)
				before := r.Len()
				switch op := rng.Intn(20); {
				case op < 8 && growing, op < 3:
					_, had := m[k]
					if r.Add(tu) == had {
						t.Fatalf("step %d: Add(%v) changed=%v, model had it %v", step, tu, !had, had)
					}
					if !had {
						m[k] = tu
					}
				case op < 11:
					_, had := m[k]
					if r.Remove(tu) != had {
						t.Fatalf("step %d: Remove(%v) disagrees with model (had %v)", step, tu, had)
					}
					delete(m, k)
				case op < 12:
					_, had := m[k]
					if r.Contains(tu) != had {
						t.Fatalf("step %d: Contains(%v) disagrees with model", step, tu)
					}
				case op < 13:
					changed := false
					for kk, v := range models[j] {
						if _, ok := m[kk]; !ok {
							m[kk], changed = v, true
						}
					}
					if r.UnionWith(rels[j]) != changed {
						t.Fatalf("step %d: UnionWith changed flag wrong", step)
					}
				case op < 14:
					changed := false
					for kk := range models[j] {
						if _, ok := m[kk]; ok {
							delete(m, kk)
							changed = true
						}
					}
					if i == j {
						m = make(modelSet)
						models[i] = m
					}
					if r.SubtractAll(rels[j]) != changed {
						t.Fatalf("step %d: SubtractAll changed flag wrong", step)
					}
				case op < 15:
					want := make(modelSet)
					for kk, v := range m {
						if _, ok := models[j][kk]; ok {
							want[kk] = v
						}
					}
					checkRelation(t, r.Intersect(rels[j]), want)
				case op < 16:
					want := make(modelSet)
					for kk, v := range m {
						if _, ok := models[j][kk]; !ok {
							want[kk] = v
						}
					}
					checkRelation(t, r.Minus(rels[j]), want)
				case op < 17:
					// Clone into another slot; both evolve independently.
					rels[j], models[j] = r.Clone(), m.clone()
				default:
					// Snapshot into another slot, then mutate both sides.
					s := r.Snapshot()
					rels[j], models[j] = s, m.clone()
					if i != j {
						a, b := genTuple(rng), genTuple(rng)
						r.Add(a)
						m[modelKey(a)] = a
						s.Remove(b)
						delete(models[j], modelKey(b))
					}
				}
				for p := range rels {
					checkRelation(t, rels[p], models[p])
				}
				after := rels[i].Len()
				crossedUp = crossedUp || before <= indexMinLen && after > indexMinLen
				crossedDown = crossedDown || before > indexMinLen && after <= indexMinLen
			}
			if !crossedUp || !crossedDown {
				t.Fatalf("sizes never crossed indexMinLen both ways (up %v, down %v)", crossedUp, crossedDown)
			}
		})
	}
}

// CountedRelation against a count model: Adjust transitions, Len, Count,
// Each and the materialized Relation, across the small/indexed boundary.
func TestCountedRelationDifferential(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		t.Run(fmt.Sprint("seed=", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			c := NewCounted(2)
			counts := make(map[string]int)
			tuples := make(map[string]Tuple)
			maxLen, minAfterMax := 0, 1<<30
			for step := 0; step < 3000; step++ {
				// Growing phases mostly add support to fresh tuples;
				// shrinking phases mostly cancel a stored entry's count,
				// which deletes it. Some steps push counts negative.
				tu, d := genTuple(rng), rng.Intn(3)+1
				if step/200%2 == 1 && len(c.tuples) > 0 && rng.Intn(4) > 0 {
					tu = c.tuples[rng.Intn(len(c.tuples))]
					d = -c.Count(tu)
				} else if rng.Intn(4) == 0 {
					d = -d
				}
				k := modelKey(tu)
				old := counts[k]
				appeared, vanished := c.Adjust(tu, d)
				counts[k] = old + d
				if _, ok := tuples[k]; !ok {
					tuples[k] = tu
				}
				if counts[k] == 0 {
					delete(counts, k)
					delete(tuples, k)
				}
				if want := d != 0 && old <= 0 && old+d > 0; appeared != want {
					t.Fatalf("step %d: Adjust(%v, %d) from %d: appeared %v", step, tu, d, old, appeared)
				}
				if want := d != 0 && old > 0 && old+d <= 0; vanished != want {
					t.Fatalf("step %d: Adjust(%v, %d) from %d: vanished %v", step, tu, d, old, vanished)
				}

				checkStorage(t, &c.tupleSet, true)
				if len(c.counts) != len(c.tuples) || len(c.tuples) != len(counts) {
					t.Fatalf("step %d: %d counts, %d tuples, model %d entries", step, len(c.counts), len(c.tuples), len(counts))
				}
				pos := make(modelSet)
				for kk, n := range counts {
					if got := c.Count(tuples[kk]); got != n {
						t.Fatalf("step %d: Count(%v) = %d, want %d", step, tuples[kk], got, n)
					}
					if n > 0 {
						pos[kk] = tuples[kk]
					}
				}
				if c.Len() != len(pos) {
					t.Fatalf("step %d: Len = %d, want %d", step, c.Len(), len(pos))
				}
				c.Each(func(tu Tuple, n int) {
					if counts[modelKey(tu)] != n || n <= 0 {
						t.Fatalf("step %d: Each yielded %v×%d", step, tu, n)
					}
				})
				checkRelation(t, c.Relation(), pos)
				if n := len(c.tuples); n > maxLen {
					maxLen, minAfterMax = n, n
				} else if n < minAfterMax {
					minAfterMax = n
				}
			}
			if maxLen <= indexMinLen || minAfterMax > indexMinLen {
				t.Fatalf("sizes never crossed indexMinLen both ways (max %d, min after max %d)", maxLen, minAfterMax)
			}
		})
	}
}

// White-box collision handling at indexed size: the tuples of chain h are
// all forced onto one hash and interleaved with tuples forced onto a
// second hash g, so removals hit the chain head, a middle entry, the tail
// and the last position, and the swap-remove moves a last tuple from the
// other chain and from the same one.
func TestRelationCollisionChainsIndexed(t *testing.T) {
	const h, g = uint64(0xdeadbeef), uint64(0xfeedface)
	r := NewRelation(1)
	want := make(map[int64]uint64) // tuple value → forced hash
	add := func(v int64, hash uint64) {
		if !r.addHashed(hash, Tuple{Int(v)}) {
			t.Fatalf("add %d rejected", v)
		}
		want[v] = hash
	}
	for v := int64(0); v < 12; v++ {
		add(v, h)
		if v%4 == 3 {
			add(100+v, g)
		}
	}
	if r.heads == nil {
		t.Fatalf("%d tuples must be indexed", r.Len())
	}
	if r.addHashed(h, Tuple{Int(4)}) {
		t.Fatal("duplicate in a collision chain must be rejected by Equal, not hash")
	}
	val := func(i int32) int64 { return r.tuples[i][0].AsInt() }
	last := func() int32 { return int32(len(r.tuples) - 1) }
	tail := func(hash uint64) int32 {
		i := r.heads[hash]
		for r.next[i] >= 0 {
			i = r.next[i]
		}
		return i
	}
	remove := func(what string, i int32) {
		t.Helper()
		v := val(i)
		one := NewRelation(1)
		one.addHashed(want[v], Tuple{Int(v)})
		if !r.SubtractAll(one) {
			t.Fatalf("%s: removing %d reported no change", what, v)
		}
		delete(want, v)
		checkStorage(t, &r.tupleSet, false)
		if r.Len() != len(want) {
			t.Fatalf("%s: Len = %d, want %d", what, r.Len(), len(want))
		}
		if r.containsHashed(h, Tuple{Int(v)}) || r.containsHashed(g, Tuple{Int(v)}) {
			t.Fatalf("%s: %d still present", what, v)
		}
		for u, hash := range want {
			if !r.containsHashed(hash, Tuple{Int(u)}) {
				t.Fatalf("%s: lost %d", what, u)
			}
		}
	}

	if r.hashes[last()] != g || r.heads[h] == last() {
		t.Fatal("layout: the last tuple must belong to chain g")
	}
	remove("chain head, a tuple of the other chain moves", r.heads[h])
	remove("last position, nothing moves", last())
	if r.hashes[last()] != h || tail(h) == last() {
		t.Fatal("layout: the last tuple must belong to chain h, away from its tail")
	}
	remove("chain tail, a tuple of the same chain moves", tail(h))
	mid := r.next[r.heads[h]]
	if mid == tail(h) || r.next[mid] == tail(h) {
		t.Fatal("layout: chain h too short for a middle entry")
	}
	remove("chain middle", r.next[mid])
	// Drain the rest, alternating front and back, down through the
	// unindexed sizes.
	for len(want) > 0 {
		i := int32(0)
		if len(want)%2 == 0 {
			i = last()
		}
		remove("drain", i)
	}
}
