package bench

import (
	"fmt"
	"math/rand"

	"birds/internal/engine"
	"birds/internal/value"
)

// Fig6View describes one panel of Figure 6: a view program, a data
// generator for the base tables at a given size, and a per-round update
// workload (one insert of a fresh view tuple and one delete of the tuple
// inserted the round before, keeping the database size stable).
type Fig6View struct {
	Name        string
	Program     string
	ExpectedGet string
	Setup       func(db *engine.DB, n int, rng *rand.Rand) error
	// Update returns the statements of round i (i starts at 1).
	Update func(n, round int) [][]engine.Statement
}

func ints(n int) value.Value   { return value.Int(int64(n)) }
func str(s string) value.Value { return value.Str(s) }

func decl(db *engine.DB, src string) error {
	p, err := parseDecl(src)
	if err != nil {
		return err
	}
	return db.CreateTable(p)
}

// Fig6Views returns the four panels of Figure 6.
func Fig6Views() []Fig6View {
	return []Fig6View{
		{
			Name:        "luxuryitems",
			Program:     LuxuryItemsProgram,
			ExpectedGet: `luxuryitems(I,N,P) :- items(I,N,P), P > 1000.`,
			Setup: func(db *engine.DB, n int, rng *rand.Rand) error {
				if err := decl(db, "items(iid:int, iname:string, price:int)."); err != nil {
					return err
				}
				rows := make([]value.Tuple, 0, n)
				for i := 0; i < n; i++ {
					rows = append(rows, value.Tuple{ints(i), str(fmt.Sprintf("item%d", i)), ints(rng.Intn(2000) + 1)})
				}
				return db.LoadTable("items", rows)
			},
			Update: func(n, round int) [][]engine.Statement {
				id := n + round
				out := [][]engine.Statement{{
					engine.Insert("luxuryitems", ints(id), str(fmt.Sprintf("lux%d", id)), ints(1500)),
				}}
				if round > 1 {
					out = append(out, []engine.Statement{
						engine.Delete("luxuryitems", engine.Eq("iid", ints(id-1))),
					})
				}
				return out
			},
		},
		{
			Name:        "officeinfo",
			Program:     OfficeInfoProgram,
			ExpectedGet: `officeinfo(E,O) :- works(E,O,_).`,
			Setup: func(db *engine.DB, n int, rng *rand.Rand) error {
				if err := decl(db, "works(ename:string, office:string, phone:int)."); err != nil {
					return err
				}
				rows := make([]value.Tuple, 0, n)
				for i := 0; i < n; i++ {
					rows = append(rows, value.Tuple{
						str(fmt.Sprintf("emp%d", i)),
						str(fmt.Sprintf("office%d", i%97)),
						ints(rng.Intn(10000)),
					})
				}
				return db.LoadTable("works", rows)
			},
			Update: func(n, round int) [][]engine.Statement {
				id := n + round
				out := [][]engine.Statement{{
					engine.Insert("officeinfo", str(fmt.Sprintf("emp%d", id)), str("office1")),
				}}
				if round > 1 {
					out = append(out, []engine.Statement{
						engine.Delete("officeinfo", engine.Eq("ename", str(fmt.Sprintf("emp%d", id-1)))),
					})
				}
				return out
			},
		},
		{
			Name:        "outstanding_task",
			Program:     OutstandingTaskProgram,
			ExpectedGet: `outstanding_task(T,N,U) :- tasks(T,N,U,0), users(U,_).`,
			Setup: func(db *engine.DB, n int, rng *rand.Rand) error {
				if err := decl(db, "tasks(tid:int, tname:string, uid:int, done:int)."); err != nil {
					return err
				}
				if err := decl(db, "users(uid:int, uname:string)."); err != nil {
					return err
				}
				nUsers := n/10 + 1
				users := make([]value.Tuple, 0, nUsers)
				for i := 0; i < nUsers; i++ {
					users = append(users, value.Tuple{ints(i), str(fmt.Sprintf("user%d", i))})
				}
				if err := db.LoadTable("users", users); err != nil {
					return err
				}
				rows := make([]value.Tuple, 0, n)
				for i := 0; i < n; i++ {
					rows = append(rows, value.Tuple{
						ints(i), str(fmt.Sprintf("task%d", i)), ints(rng.Intn(nUsers)), ints(rng.Intn(2)),
					})
				}
				return db.LoadTable("tasks", rows)
			},
			Update: func(n, round int) [][]engine.Statement {
				id := n + round
				out := [][]engine.Statement{{
					engine.Insert("outstanding_task", ints(id), str(fmt.Sprintf("task%d", id)), ints(0)),
				}}
				if round > 1 {
					out = append(out, []engine.Statement{
						engine.Delete("outstanding_task", engine.Eq("tid", ints(id-1))),
					})
				}
				return out
			},
		},
		{
			Name:        "vw_brands",
			Program:     VwBrandsProgram,
			ExpectedGet: "vw_brands(N) :- brands1(_,N).\nvw_brands(N) :- brands2(_,N).",
			Setup: func(db *engine.DB, n int, rng *rand.Rand) error {
				if err := decl(db, "brands1(bid:int, bname:string)."); err != nil {
					return err
				}
				if err := decl(db, "brands2(bid:int, bname:string)."); err != nil {
					return err
				}
				half := n / 2
				rows1 := make([]value.Tuple, 0, half)
				rows2 := make([]value.Tuple, 0, n-half)
				for i := 0; i < half; i++ {
					rows1 = append(rows1, value.Tuple{ints(i), str(fmt.Sprintf("brandA%d", i))})
				}
				for i := half; i < n; i++ {
					rows2 = append(rows2, value.Tuple{ints(i), str(fmt.Sprintf("brandB%d", i))})
				}
				if err := db.LoadTable("brands1", rows1); err != nil {
					return err
				}
				return db.LoadTable("brands2", rows2)
			},
			Update: func(n, round int) [][]engine.Statement {
				id := n + round
				out := [][]engine.Statement{{
					engine.Insert("vw_brands", str(fmt.Sprintf("brandNew%d", id))),
				}}
				if round > 1 {
					out = append(out, []engine.Statement{
						engine.Delete("vw_brands", engine.Eq("bname", str(fmt.Sprintf("brandNew%d", id-1)))),
					})
				}
				return out
			},
		},
	}
}

// Fig6ViewByName looks a panel up by name.
func Fig6ViewByName(name string) (Fig6View, error) {
	for _, v := range Fig6Views() {
		if v.Name == name {
			return v, nil
		}
	}
	return Fig6View{}, fmt.Errorf("bench: unknown Figure 6 view %q", name)
}

// SetupFig6 builds a database of the given size with the view installed in
// the requested execution mode. Validation is skipped (the same strategies
// are validated by the Table 1 harness); the expected get is supplied.
// The last argument is ignored: evaluation is always sequential. It remains
// only because existing callers pass it.
func SetupFig6(v Fig6View, n int, incremental bool, seed int64, _ int) (*engine.DB, error) {
	db := engine.NewDB()
	rng := rand.New(rand.NewSource(seed))
	if err := v.Setup(db, n, rng); err != nil {
		return nil, err
	}
	get, err := ParseGetRules(v.ExpectedGet)
	if err != nil {
		return nil, err
	}
	if _, err := db.CreateView(v.Program, engine.ViewOptions{
		Incremental:    incremental,
		SkipValidation: true,
		ExpectedGet:    get,
	}); err != nil {
		return nil, err
	}
	return db, nil
}
