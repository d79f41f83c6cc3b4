package eval

import (
	"fmt"

	"birds/internal/datalog"
	"birds/internal/value"
)

// ContradictionError reports a well-definedness violation at runtime: the
// putback program derived both +r(t) and -r(t) for the same tuple t
// (Definition 3.1).
type ContradictionError struct {
	Relation string
	Tuple    value.Tuple
}

func (e *ContradictionError) Error() string {
	return fmt.Sprintf("eval: contradictory delta on %s: tuple %s is both inserted and deleted",
		e.Relation, e.Tuple)
}

// CheckNonContradictory verifies that for every source relation the derived
// insertion and deletion sets are disjoint (the ΔS of §3.1 must be
// non-contradictory before it can be applied).
func CheckNonContradictory(db *Database, sources []*datalog.RelDecl) error {
	for _, s := range sources {
		ins := db.Rel(datalog.Ins(s.Name))
		del := db.Rel(datalog.Del(s.Name))
		if ins == nil || del == nil {
			continue
		}
		small, other := ins, del
		if del.Len() < ins.Len() {
			small, other = del, ins
		}
		var bad value.Tuple
		small.EachUntil(func(t value.Tuple) bool {
			if other.Contains(t) {
				bad = t
				return false
			}
			return true
		})
		if bad != nil {
			return &ContradictionError{Relation: s.Name, Tuple: bad}
		}
	}
	return nil
}

// ApplyDeltas applies the evaluated delta relations to the source relations
// in place: Ri ← (Ri \ Δ−Ri) ∪ Δ+Ri. It first checks non-contradiction.
// Index structures on db are maintained incrementally. It returns the
// number of tuples actually deleted and inserted.
func ApplyDeltas(db *Database, sources []*datalog.RelDecl) (deleted, inserted int, err error) {
	if err := CheckNonContradictory(db, sources); err != nil {
		return 0, 0, err
	}
	for _, s := range sources {
		p := datalog.Pred(s.Name)
		db.Ensure(p, s.Arity())
		if del := db.Rel(datalog.Del(s.Name)); del != nil {
			del.Each(func(t value.Tuple) {
				if db.Delete(p, t) {
					deleted++
				}
			})
		}
		if ins := db.Rel(datalog.Ins(s.Name)); ins != nil {
			ins.Each(func(t value.Tuple) {
				if db.Insert(p, t) {
					inserted++
				}
			})
		}
	}
	return deleted, inserted, nil
}

// ApplyDeltasExact is ApplyDeltas returning, instead of counts, the exact
// net delta of every source whose contents changed — the shape the
// counting-IVM propagation (EvalDelta) consumes. Tuples whose membership
// did not change (inserting a present tuple, deleting an absent one) are
// excluded.
func ApplyDeltasExact(db *Database, sources []*datalog.RelDecl) (map[datalog.PredSym]Delta, error) {
	if err := CheckNonContradictory(db, sources); err != nil {
		return nil, err
	}
	out := make(map[datalog.PredSym]Delta, len(sources))
	for _, s := range sources {
		p := datalog.Pred(s.Name)
		db.Ensure(p, s.Arity())
		d := NewDelta(s.Arity())
		if del := db.Rel(datalog.Del(s.Name)); del != nil {
			del.Each(func(t value.Tuple) {
				if db.Delete(p, t) {
					d.Del.Add(t)
				}
			})
		}
		if ins := db.Rel(datalog.Ins(s.Name)); ins != nil {
			ins.Each(func(t value.Tuple) {
				if db.Insert(p, t) {
					d.Ins.Add(t)
				}
			})
		}
		if !d.Empty() {
			out[p] = d
		}
	}
	return out, nil
}

// SnapshotSources returns deep copies of the source relations of db, for
// comparing database states around an update (e.g. the GetPut check).
func SnapshotSources(db *Database, sources []*datalog.RelDecl) map[string]*value.Relation {
	out := make(map[string]*value.Relation, len(sources))
	for _, s := range sources {
		out[s.Name] = db.RelOrEmpty(datalog.Pred(s.Name), s.Arity()).Clone()
	}
	return out
}

// SourcesEqual reports whether the source relations of db match a snapshot.
func SourcesEqual(db *Database, sources []*datalog.RelDecl, snap map[string]*value.Relation) bool {
	for _, s := range sources {
		if !db.RelOrEmpty(datalog.Pred(s.Name), s.Arity()).Equal(snap[s.Name]) {
			return false
		}
	}
	return true
}
