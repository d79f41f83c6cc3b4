package value

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"
)

// Hash must agree with Equal: Equal values always share a hash, and over
// the tiny domain the quick generator draws from, distinct values sharing a
// 64-bit hash would indicate a degenerate hash (a genuine collision there
// has probability ~2^-64), so the property is checked in both directions.
func TestQuickValueHashAgreesWithEqual(t *testing.T) {
	f := func(a, b Value) bool {
		if a.Equal(b) {
			return a.Hash() == b.Hash()
		}
		return a.Hash() != b.Hash()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestQuickTupleHashAgreesWithEqual(t *testing.T) {
	f := func(a1, a2, b1, b2 Value) bool {
		t1 := Tuple{a1, a2}
		t2 := Tuple{b1, b2}
		return (t1.Hash() == t2.Hash()) == t1.Equal(t2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestHashNumericWidening(t *testing.T) {
	if Int(1).Hash() != Float(1).Hash() {
		t.Error("Int(1) and Float(1) must share a hash (Equal treats them as equal)")
	}
	if (Tuple{Int(7), Str("x")}).Hash() != (Tuple{Float(7), Str("x")}).Hash() {
		t.Error("tuple hash must widen numerics like Tuple.Equal")
	}
	if Float(0).Hash() != Float(math.Copysign(0, -1)).Hash() {
		t.Error("-0.0 equals +0.0 and must share its hash")
	}
	if Int(0).Hash() != Float(math.Copysign(0, -1)).Hash() {
		t.Error("Int(0) and Float(-0.0) are Equal and must share a hash")
	}
	// Large integers lose precision when widened; neighbours may share a
	// bucket, but Equal still separates them — membership must stay exact.
	big := int64(1) << 53
	r := NewRelation(1)
	r.Add(Tuple{Int(big)})
	r.Add(Tuple{Int(big + 1)})
	if r.Len() != 2 || !r.Contains(Tuple{Int(big)}) || !r.Contains(Tuple{Int(big + 1)}) {
		t.Error("widening-collided integers must remain distinct set members")
	}
}

func TestHashCrossKindSeparation(t *testing.T) {
	distinct := []Value{Null(), Str(""), Bool(false), Bool(true), Int(0), Int(1), Str("0"), Str("1"), Str("null")}
	for i, a := range distinct {
		for j, b := range distinct {
			if i == j {
				continue
			}
			if !a.Equal(b) && a.Hash() == b.Hash() {
				t.Errorf("distinct values %v and %v collide", a, b)
			}
		}
	}
}

// Element boundaries must not be confusable: ("ab","c") vs ("a","bc") hash
// each element independently before mixing, so they land in different
// buckets even though their concatenated bytes agree.
func TestTupleHashElementBoundaries(t *testing.T) {
	if (Tuple{Str("ab"), Str("c")}).Hash() == (Tuple{Str("a"), Str("bc")}).Hash() {
		t.Error("tuple hash is not boundary-safe across string elements")
	}
	if (Tuple{Int(1), Int(23)}).Hash() == (Tuple{Int(12), Int(3)}).Hash() {
		t.Error("tuple hash is not boundary-safe across numeric elements")
	}
}

// White-box test of the collision-resolution path: force several distinct
// tuples into one bucket and check that set semantics (dedup, membership,
// size, union/equal) still hold tuple-wise, not hash-wise.
func TestRelationCollisionBuckets(t *testing.T) {
	const h = uint64(0xdeadbeef)
	a, b, c := Tuple{Int(1)}, Tuple{Int(2)}, Tuple{Int(3)}

	r := NewRelation(1)
	if !r.addHashed(h, a) || !r.addHashed(h, b) || !r.addHashed(h, c) {
		t.Fatal("adds into a shared bucket must succeed")
	}
	if r.addHashed(h, a) {
		t.Error("duplicate in a collision bucket must be rejected by Equal, not hash")
	}
	if r.Len() != 3 {
		t.Errorf("Len = %d, want 3", r.Len())
	}
	for _, tu := range []Tuple{a, b, c} {
		if !r.containsHashed(h, tu) {
			t.Errorf("collision bucket lost %v", tu)
		}
	}

	// Equality between relations must compare tuples inside buckets.
	s := NewRelation(1)
	s.addHashed(h, c)
	s.addHashed(h, a)
	s.addHashed(h, b)
	if !r.Equal(s) {
		t.Error("relations with identical tuples in one collision bucket must be Equal")
	}
	s2 := NewRelation(1)
	s2.addHashed(h, a)
	s2.addHashed(h, b)
	s2.addHashed(h, Tuple{Int(4)})
	if r.Equal(s2) {
		t.Error("same bucket shape with different tuples must not be Equal")
	}

	// Clone must copy bucket slices: mutating the clone's membership must
	// not leak into the original.
	cl := r.Clone()
	if !cl.Equal(r) {
		t.Error("clone must equal original")
	}
	cl.addHashed(h, Tuple{Int(9)})
	if r.Len() != 3 || cl.Len() != 4 {
		t.Error("clone shares bucket storage with original")
	}
}

func TestRelationRemoveFromCollisionBucket(t *testing.T) {
	// Remove hashes the tuple itself, so build the collision with real
	// hashes here: all tuples added normally, then remove one and check the
	// others survive regardless of bucket layout.
	r := NewRelation(2)
	tuples := []Tuple{
		{Int(1), Str("a")},
		{Int(1), Str("b")},
		{Float(1), Str("c")},
		{Int(2), Str("a")},
	}
	for _, tu := range tuples {
		r.Add(tu)
	}
	if !r.Remove(Tuple{Float(1), Str("b")}) { // Int(1) ≡ Float(1)
		t.Fatal("Remove must find the tuple through numeric widening")
	}
	if r.Contains(Tuple{Int(1), Str("b")}) {
		t.Error("removed tuple still present")
	}
	for _, tu := range []Tuple{{Int(1), Str("a")}, {Int(1), Str("c")}, {Int(2), Str("a")}} {
		if !r.Contains(tu) {
			t.Errorf("Remove dropped unrelated tuple %v", tu)
		}
	}
	if r.Len() != 3 {
		t.Errorf("Len = %d, want 3", r.Len())
	}
}

// BenchmarkRelationAdd measures set insertion without the old per-tuple
// string key and defensive clone.
func BenchmarkRelationAdd(b *testing.B) {
	tuples := make([]Tuple, 4096)
	for i := range tuples {
		tuples[i] = Tuple{Int(int64(i)), Str("payload"), Int(int64(i % 97))}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := NewRelation(3)
		for _, tu := range tuples {
			r.Add(tu)
		}
	}
}

// BenchmarkRelationSmall has the shape of the validation oracle's tiny
// databases: a fresh two-tuple relation, one scan, two membership probes.
func BenchmarkRelationSmall(b *testing.B) {
	x, y := Tuple{Int(1), Str("a")}, Tuple{Int(2), Str("b")}
	miss := Tuple{Int(3), Str("c")}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r := NewRelation(2)
		r.Add(x)
		r.Add(y)
		n := 0
		for range r.All() {
			n++
		}
		if n != 2 || !r.Contains(y) || r.Contains(miss) {
			b.Fatal("wrong relation")
		}
		benchSink = r // escape to the heap, as the oracle's relations do
	}
}

var benchSink *Relation

// BenchmarkRelationScan walks every tuple of a relation, the driver scan
// of a streamed rule.
func BenchmarkRelationScan(b *testing.B) {
	for _, n := range []int{10000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			r := NewRelation(2)
			for i := 0; i < n; i++ {
				r.Add(Tuple{Int(int64(i)), Int(int64(i % 100))})
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var sum int64
				for t := range r.All() {
					sum += t[1].AsInt()
				}
				if sum == 0 {
					b.Fatal("empty scan")
				}
			}
		})
	}
}

func BenchmarkRelationContains(b *testing.B) {
	r := NewRelation(2)
	for i := 0; i < 100000; i++ {
		r.Add(Tuple{Int(int64(i)), Int(int64(i % 100))})
	}
	probe := Tuple{Int(51234), Int(34)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !r.Contains(probe) {
			b.Fatal("probe must hit")
		}
	}
}

func BenchmarkTupleHash(b *testing.B) {
	t := Tuple{Int(123456), Str("some-name"), Float(3.25), Bool(true)}
	b.ReportAllocs()
	b.ResetTimer()
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink ^= t.Hash()
	}
	_ = sink
}
