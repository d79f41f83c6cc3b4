package bench

import (
	"fmt"
	"math/rand"

	"birds/internal/datalog"
	"birds/internal/engine"
	"birds/internal/value"
)

// DML-maintenance benchmark fixture: a base table of parameterizable size
// with a selection view and a join view registered on top, plus a
// steady-state write transaction. BenchmarkDMLMaintenance (package birds)
// sweeps the base size at a fixed per-transaction delta; with
// counting-based incremental maintenance the per-write cost must stay flat
// as the base grows — the regime of Figure 6's incremental curve, but for
// the engine's table-write path instead of the view-update path.

const dmlLuxuryProgram = `
source items(iid:int, iname:string, price:int).
view luxury(iid:int, iname:string, price:int).
-items(I,N,P) :- items(I,N,P), P > 1000, not luxury(I,N,P).
`

const dmlOwnedProgram = `
source items(iid:int, iname:string, price:int).
source owners(oid:int, iid:int).
view owned(oid:int, iid:int, price:int).
-owners(O,I) :- owners(O,I), not ownedkeep(O).
ownedkeep(O) :- owned(O,_,_).
`

// SetupDMLMaintenance builds an engine database with n base rows in items
// (and n/4 owner rows), a selection view (luxury) and a join view (owned),
// both registered without oracle validation — the benchmark measures
// maintenance, not validation. One warm-up transaction is executed so the
// support counts are initialized and every measured write is steady-state.
func SetupDMLMaintenance(n int, seed int64) (*engine.DB, error) {
	rng := rand.New(rand.NewSource(seed))
	db := engine.NewDB()
	if err := decl(db, "items(iid:int, iname:string, price:int)."); err != nil {
		return nil, err
	}
	if err := decl(db, "owners(oid:int, iid:int)."); err != nil {
		return nil, err
	}
	rows := make([]value.Tuple, 0, n)
	for i := 0; i < n; i++ {
		rows = append(rows, value.Tuple{ints(i), str(fmt.Sprintf("item%d", i)), ints(rng.Intn(2000) + 1)})
	}
	if err := db.LoadTable("items", rows); err != nil {
		return nil, err
	}
	owners := make([]value.Tuple, 0, n/4+1)
	for i := 0; i <= n/4; i++ {
		owners = append(owners, value.Tuple{ints(i), ints(rng.Intn(n))})
	}
	if err := db.LoadTable("owners", owners); err != nil {
		return nil, err
	}

	luxuryGet, err := datalog.ParseRule("luxury(I,N,P) :- items(I,N,P), P > 1000.")
	if err != nil {
		return nil, err
	}
	if _, err := db.CreateView(dmlLuxuryProgram, engine.ViewOptions{
		SkipValidation: true, ExpectedGet: []*datalog.Rule{luxuryGet},
	}); err != nil {
		return nil, err
	}
	ownedGet, err := datalog.ParseRule("owned(O,I,P) :- owners(O,I), items(I,_,P).")
	if err != nil {
		return nil, err
	}
	if _, err := db.CreateView(dmlOwnedProgram, engine.ViewOptions{
		SkipValidation: true, ExpectedGet: []*datalog.Rule{ownedGet},
	}); err != nil {
		return nil, err
	}

	// Warm-up: the first write initializes the views' support counts (the
	// one O(|DB|) step); measured iterations then run at O(|Δ|).
	if err := DMLMaintenanceTxn(db, n, 0); err != nil {
		return nil, err
	}
	return db, nil
}

// DMLMaintenanceTxn runs the fixed-delta steady-state write of iteration i:
// insert one fresh item row (and every fourth iteration one owner row),
// then delete the rows of the previous iteration, keeping the base size
// constant while every dependent view is maintained in place.
func DMLMaintenanceTxn(db *engine.DB, n, i int) error {
	id := n + i
	if err := db.Exec(engine.Insert("items", ints(id), str(fmt.Sprintf("hot%d", id)), ints(1500))); err != nil {
		return err
	}
	if i%4 == 0 {
		if err := db.Exec(engine.Insert("owners", ints(n+i), ints(id))); err != nil {
			return err
		}
	}
	if i > 0 {
		if err := db.Exec(engine.Delete("items", engine.Eq("iid", ints(id-1)))); err != nil {
			return err
		}
		if (i-1)%4 == 0 {
			if err := db.Exec(engine.Delete("owners", engine.Eq("oid", ints(n+i-1)))); err != nil {
				return err
			}
		}
	}
	return nil
}

// DMLMaintenanceViews names the views the fixture registers, in dependency
// order — callers assert they stay clean (never fall back to the dirty
// path) across the measured writes.
func DMLMaintenanceViews() []string { return []string{"luxury", "owned"} }

// BatchedHotWindow is the number of primed hot rows the batched fixture
// keeps alive: each write deletes the row inserted BatchedHotWindow
// transactions earlier, so at any batch size up to the window no
// insert/delete pair cancels inside a batch — the benchmark measures
// propagation amortization, not coalescing luck.
const BatchedHotWindow = 600

// SetupBatchedDML builds the DML-maintenance fixture at base size n (plus
// the primed hot window) and returns it with a group-commit Batcher that
// flushes every batch transactions. batch=1 degenerates to one maintenance
// pass per write — the unbatched baseline with identical admission
// bookkeeping.
func SetupBatchedDML(n, batch int, seed int64) (*engine.DB, *engine.Batcher, error) {
	rng := rand.New(rand.NewSource(seed))
	db := engine.NewDB()
	if err := decl(db, "items(iid:int, iname:string, price:int)."); err != nil {
		return nil, nil, err
	}
	if err := decl(db, "owners(oid:int, iid:int)."); err != nil {
		return nil, nil, err
	}
	rows := make([]value.Tuple, 0, n+BatchedHotWindow)
	for i := 0; i < n; i++ {
		rows = append(rows, value.Tuple{ints(i), str(fmt.Sprintf("item%d", i)), ints(rng.Intn(2000) + 1)})
	}
	for i := 0; i < BatchedHotWindow; i++ {
		rows = append(rows, value.Tuple{ints(n + i), str(fmt.Sprintf("hot%d", n+i)), ints(1500)})
	}
	if err := db.LoadTable("items", rows); err != nil {
		return nil, nil, err
	}
	owners := make([]value.Tuple, 0, n/4+1)
	for i := 0; i <= n/4; i++ {
		owners = append(owners, value.Tuple{ints(i), ints(rng.Intn(n))})
	}
	if err := db.LoadTable("owners", owners); err != nil {
		return nil, nil, err
	}

	luxuryGet, err := datalog.ParseRule("luxury(I,N,P) :- items(I,N,P), P > 1000.")
	if err != nil {
		return nil, nil, err
	}
	if _, err := db.CreateView(dmlLuxuryProgram, engine.ViewOptions{
		SkipValidation: true, ExpectedGet: []*datalog.Rule{luxuryGet},
	}); err != nil {
		return nil, nil, err
	}
	ownedGet, err := datalog.ParseRule("owned(O,I,P) :- owners(O,I), items(I,_,P).")
	if err != nil {
		return nil, nil, err
	}
	if _, err := db.CreateView(dmlOwnedProgram, engine.ViewOptions{
		SkipValidation: true, ExpectedGet: []*datalog.Rule{ownedGet},
	}); err != nil {
		return nil, nil, err
	}

	// Warm-up write 0 initializes the support counts (the one O(|DB|)
	// step) and establishes the steady-state alive window {n+1 .. n+W}.
	if err := db.Exec(
		engine.Insert("items", ints(n+BatchedHotWindow), str(fmt.Sprintf("hot%d", n+BatchedHotWindow)), ints(1500)),
		engine.Delete("items", engine.Eq("iid", ints(n))),
	); err != nil {
		return nil, nil, err
	}
	if batch < 1 {
		batch = 1
	}
	return db, db.Batch(engine.BatchOptions{MaxTxns: batch}), nil
}

// SetupBatchedDMLDurableOpts is SetupBatchedDML with a write-ahead log
// attached in the given durability configuration after the fixture is
// built: the bulk loads, view registrations and warm-up are not part of the
// measured stream, so every measured admission/flush pays exactly the
// configured durability cost.
func SetupBatchedDMLDurableOpts(n, batch int, seed int64, opts engine.DurabilityOptions) (*engine.DB, *engine.Batcher, error) {
	db, bt, err := SetupBatchedDML(n, batch, seed)
	if err != nil {
		return nil, nil, err
	}
	if err := db.EnableDurability(opts); err != nil {
		return nil, nil, err
	}
	return db, bt, nil
}
