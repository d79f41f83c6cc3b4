package value

import "math"

// Tuple identity is hash-native: every set and index structure in the
// system (Relation, the evaluator's hash indexes) keys tuples by a 64-bit
// hash and resolves collisions with Equal. The hash must therefore agree
// with Equal exactly: Equal values hash identically, and unequal values may
// collide but are separated by Equal.
//
// Numeric widening is the subtle case. Equal treats Int(1) and Float(1) as
// the same value, so both kinds hash through their widened float64 bit
// pattern. Negative zero is normalized to positive zero first (0.0 == -0.0
// as float64, so they must share a hash). Integers beyond 2^53 lose
// precision when widened and may share a hash with a neighbour; Equal
// still separates them, so this costs a collision, never correctness.

// HashSeed is the initial accumulator for incremental tuple hashing with
// HashMix. Tuple.Hash is exactly HashMix folded over the elements, which
// lets callers hash a projection of a tuple in place without materializing
// the projected tuple.
const HashSeed uint64 = 14695981039346656037 // FNV-1a 64-bit offset basis

const hashPrime uint64 = 1099511628211 // FNV-1a 64-bit prime

// Per-kind tags keep values of different kinds from trivially colliding
// (e.g. Null vs the empty string). Int and Float share the numeric tag so
// widening works.
const (
	tagNull    uint64 = 0x9e3779b97f4a7c15
	tagNumeric uint64 = 0xbf58476d1ce4e5b9
	tagString  uint64 = 0x94d049bb133111eb
	tagBool    uint64 = 0xd6e8feb86659fd93
)

// mix64 is the splitmix64 finalizer: a cheap, well-distributed bijection
// on 64-bit words, used to spread fixed-width payloads (numeric bits,
// booleans) across the hash space.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Hash returns a 64-bit hash of v consistent with Equal: v.Equal(w) implies
// v.Hash() == w.Hash().
func (v Value) Hash() uint64 {
	switch v.kind {
	case KindNull:
		return tagNull
	case KindInt:
		return hashNumeric(float64(v.i))
	case KindFloat:
		return hashNumeric(v.f)
	case KindString:
		h := HashSeed ^ tagString
		for i := 0; i < len(v.s); i++ {
			h = (h ^ uint64(v.s[i])) * hashPrime
		}
		return h
	case KindBool:
		if v.b {
			return mix64(tagBool ^ 1)
		}
		return mix64(tagBool)
	default:
		return tagNull
	}
}

func hashNumeric(f float64) uint64 {
	if f == 0 {
		f = 0 // normalize -0.0: it compares equal to +0.0
	}
	return mix64(tagNumeric ^ math.Float64bits(f))
}

// HashMix folds one value into a running tuple hash. Folding the elements
// of a tuple over HashSeed yields Tuple.Hash; folding a subset of elements
// hashes that projection without building an intermediate tuple.
func HashMix(h uint64, v Value) uint64 {
	return (h ^ v.Hash()) * hashPrime
}

// Hash returns a 64-bit hash of t consistent with Tuple.Equal (element-wise
// Equal with numeric widening).
func (t Tuple) Hash() uint64 {
	h := HashSeed
	for _, v := range t {
		h = HashMix(h, v)
	}
	return h
}
