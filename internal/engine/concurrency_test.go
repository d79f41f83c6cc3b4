package engine

import (
	"sync"
	"testing"

	"birds/internal/value"
)

// Concurrent readers, writers and Explain (which uses the view's ∂put
// evaluator) must serialize without races or lost updates (run under -race
// in CI).
func TestConcurrentExecAndRead(t *testing.T) {
	db := setupUnion(t, true)
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for w := 0; w < 4; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				x := value.Int(int64(100 + w*1000 + i))
				if err := db.Exec(Insert("v", x)); err != nil {
					errs <- err
					return
				}
				if _, err := db.Get("v"); err != nil {
					errs <- err
					return
				}
				if _, err := db.Explain("v"); err != nil {
					errs <- err
					return
				}
				if err := db.Exec(Delete("v", Eq("a", x))); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	// All workers' tuples were inserted then deleted: back to the start.
	v, err := db.Get("v")
	if err != nil {
		t.Fatal(err)
	}
	if !v.Equal(value.RelationOf(1, tup(1), tup(2), tup(4))) {
		t.Errorf("v = %v after concurrent churn", v)
	}
}

func TestConcurrentReadersOnly(t *testing.T) {
	db := setupUnion(t, false)
	// Materialize once so every subsequent read is a clean-view read and
	// stays on the RLock fast path.
	if _, err := db.Get("v"); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if _, err := db.Get("v"); err != nil {
					t.Error(err)
					return
				}
				if _, err := db.Get("r1"); err != nil {
					t.Error(err)
					return
				}
				db.IsView("v")
				db.View("v")
				db.Relations()
			}
		}()
	}
	wg.Wait()
}

// Readers racing a writer over a view the writer keeps updating: since
// base-table DML maintains the view's relation in place (counting IVM),
// concurrent readers go through Get, whose O(1) copy-on-write snapshot
// must never race (run under -race in CI) or observe an inconsistent view.
func TestConcurrentReadersWithInvalidatingWriter(t *testing.T) {
	db := setupUnion(t, false)
	var writer, readers sync.WaitGroup
	stop := make(chan struct{})
	writer.Add(1)
	go func() {
		defer writer.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			x := value.Int(int64(1000 + i))
			// Writing the base table marks the view stale.
			if err := db.Exec(Insert("r1", x)); err != nil {
				t.Error(err)
				return
			}
			if err := db.Exec(Delete("r1", Eq("a", x))); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for w := 0; w < 4; w++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for i := 0; i < 50; i++ {
				v, err := db.Get("v")
				if err != nil {
					t.Error(err)
					return
				}
				// The union view always contains the stable base tuples.
				for _, want := range []value.Tuple{tup(1), tup(2), tup(4)} {
					if !v.Contains(want) {
						t.Errorf("view missing stable tuple %v", want)
						return
					}
				}
			}
		}()
	}
	// Snapshot readers on the very table the writer mutates in place: the
	// live relation would race here, Get's snapshot must not.
	for w := 0; w < 2; w++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for i := 0; i < 50; i++ {
				snap, err := db.Get("r1")
				if err != nil {
					t.Error(err)
					return
				}
				if !snap.Contains(tup(1)) {
					t.Error("snapshot of r1 lost stable tuple (1)")
					return
				}
			}
		}()
	}
	for w := 0; w < 2; w++ {
		readers.Add(2)
		go func() {
			defer readers.Done()
			for i := 0; i < 200; i++ {
				db.Relations()
				db.IsView("v")
			}
		}()
		go func() {
			defer readers.Done()
			for i := 0; i < 200; i++ {
				if _, err := db.Get("r2"); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	readers.Wait()
	close(stop)
	writer.Wait()
}
