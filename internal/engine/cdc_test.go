package engine

import (
	"context"
	"testing"
	"time"

	"birds/internal/cdc"
	"birds/internal/value"
)

// Tests for the engine's CDC publish hooks: every visibility point (direct
// transaction, view-targeted transaction, group-commit flush, bulk load)
// either carries the exact net delta or — on the dirty-flag fallback —
// marks subscribers lost so they resync instead of silently diverging.

func cdcRecv(t *testing.T, sub *cdc.Subscription) cdc.Event {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	ev, err := sub.Recv(ctx)
	if err != nil {
		t.Fatalf("Recv: %v", err)
	}
	return ev
}

// drainTo receives events until the mirror's seq reaches the hub seq,
// folding each into the mirror.
func drainTo(t *testing.T, sub *cdc.Subscription, mirror *value.Relation, target uint64) *value.Relation {
	t.Helper()
	for {
		ev := cdcRecv(t, sub)
		mirror = cdc.ApplyEvent(mirror, ev)
		if ev.Seq >= target {
			return mirror
		}
	}
}

func TestSubscribeViewMirrorsGet(t *testing.T) {
	db := maintainDB(t)
	if err := db.Exec(Insert("r2", value.Int(1), value.Int(10))); err != nil {
		t.Fatal(err)
	}

	sub, err := db.Subscribe("j", cdc.SubOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()

	first := cdcRecv(t, sub)
	if !first.Resync || first.Snapshot == nil {
		t.Fatalf("first event must be the initial snapshot, got %+v", first)
	}
	mirror := cdc.ApplyEvent(nil, first)

	// Direct transactions on both source tables; each changes j.
	if err := db.Exec(Insert("r1", value.Int(7), value.Int(1))); err != nil {
		t.Fatal(err)
	}
	if err := db.Exec(Insert("r2", value.Int(1), value.Int(20))); err != nil {
		t.Fatal(err)
	}
	// View-targeted transaction: delete from j propagates to r1 and
	// publishes the view's own delta. (j's strategy only deletes r1 rows
	// whose key leaves j, so the delete takes all of a's rows.)
	if err := db.Exec(Delete("j", Eq("a", value.Int(7)))); err != nil {
		t.Fatal(err)
	}

	for i := 0; i < 3; i++ {
		ev := cdcRecv(t, sub)
		if ev.Resync {
			t.Fatalf("unexpected resync on exact-delta paths: %+v", ev)
		}
		mirror = cdc.ApplyEvent(mirror, ev)
	}
	want, err := db.Get("j")
	if err != nil {
		t.Fatal(err)
	}
	if !mirror.Equal(want) {
		t.Fatalf("mirror %v != live view %v", mirror, want)
	}
	if st := sub.Stats(); st.LagSeqs != 0 || st.Dropped != 0 {
		t.Fatalf("stats: %+v", st)
	}
}

// TestBulkLoadFallbackResync is the regression test for the maintenance
// fallback: LoadTable marks dependent views dirty without computing a
// view delta, so a view subscriber must be resynced — never left on its
// stale mirror.
func TestBulkLoadFallbackResync(t *testing.T) {
	db := maintainDB(t)
	if err := db.Exec(Insert("r2", value.Int(1), value.Int(10))); err != nil {
		t.Fatal(err)
	}

	viewSub, err := db.Subscribe("j", cdc.SubOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer viewSub.Close()
	tableSub, err := db.Subscribe("r1", cdc.SubOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer tableSub.Close()
	viewMirror := cdc.ApplyEvent(nil, cdcRecv(t, viewSub))
	tableMirror := cdc.ApplyEvent(nil, cdcRecv(t, tableSub))

	rows := []value.Tuple{tup(1, 1), tup(2, 1), tup(3, 99)}
	if err := db.LoadTable("r1", rows); err != nil {
		t.Fatal(err)
	}

	// The table subscriber gets the exact inserted delta.
	ev := cdcRecv(t, tableSub)
	if ev.Resync || len(ev.Inserts) != 3 {
		t.Fatalf("table subscriber: want exact 3-row delta, got %+v", ev)
	}
	tableMirror = cdc.ApplyEvent(tableMirror, ev)
	wantR1, err := db.Get("r1")
	if err != nil {
		t.Fatal(err)
	}
	if !tableMirror.Equal(wantR1) {
		t.Fatalf("table mirror %v != live %v", tableMirror, wantR1)
	}

	// The view subscriber has no delta to get — it must see exactly one
	// resync whose snapshot is the refreshed view.
	ev = cdcRecv(t, viewSub)
	if !ev.Resync {
		t.Fatalf("view subscriber: want resync after bulk load, got %+v", ev)
	}
	viewMirror = cdc.ApplyEvent(viewMirror, ev)
	wantJ, err := db.Get("j")
	if err != nil {
		t.Fatal(err)
	}
	if !viewMirror.Equal(wantJ) {
		t.Fatalf("view mirror %v != live view %v after resync", viewMirror, wantJ)
	}
	if want := expectedView(t, db, "j"); !viewMirror.Equal(want) {
		t.Fatalf("view mirror %v != fresh evaluation %v after resync", viewMirror, want)
	}
	if wantJ.Len() != 2 {
		t.Fatalf("fixture: want 2 join rows, got %v", wantJ)
	}
	if st := viewSub.Stats(); st.Resyncs != 1 {
		t.Fatalf("want exactly one resync, got %+v", st)
	}

	// The stream is healthy again: the next write delivers an exact delta.
	if err := db.Exec(Insert("r2", value.Int(99), value.Int(5))); err != nil {
		t.Fatal(err)
	}
	ev = cdcRecv(t, viewSub)
	if ev.Resync || len(ev.Inserts) != 1 {
		t.Fatalf("want exact delta after resync, got %+v", ev)
	}
}

// TestSlowConsumerDoesNotBlockWrites parks a subscriber (never Recv-ing)
// and checks the write path stays non-blocking under the default drop
// policy, then drains: buffered prefix, exactly one resync, mirror
// bit-identical to the live view.
func TestSlowConsumerDoesNotBlockWrites(t *testing.T) {
	db := maintainDB(t)
	sub, err := db.Subscribe("j", cdc.SubOptions{Buffer: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()

	const writes = 300
	start := time.Now()
	for i := 0; i < writes; i++ {
		if err := db.Exec(Insert("r1", value.Int(int64(i)), value.Int(1))); err != nil {
			t.Fatal(err)
		}
		if err := db.Exec(Insert("r2", value.Int(1), value.Int(int64(i)))); err != nil {
			t.Fatal(err)
		}
	}
	// Generous wall-time bound: 600 unbatched IVM transactions take well
	// under this; a write path blocking on the stalled subscriber would
	// not (default block deadline would add 10ms per overflowing publish).
	if el := time.Since(start); el > 30*time.Second {
		t.Fatalf("writes took %v with a stalled subscriber", el)
	}

	st := sub.Stats()
	if st.Buffered > 8 {
		t.Fatalf("ring overflowed its bound: %+v", st)
	}
	if st.Dropped == 0 {
		t.Fatalf("expected drops with a stalled subscriber: %+v", st)
	}

	_, target, err := db.SnapshotAt("j")
	if err != nil {
		t.Fatal(err)
	}
	// The first event is the initial snapshot (a Resync by construction);
	// loss resyncs are counted from the second event on.
	mirror := cdc.ApplyEvent(nil, cdcRecv(t, sub))
	resyncs := 0
	for {
		ev := cdcRecv(t, sub)
		if ev.Resync {
			resyncs++
		}
		mirror = cdc.ApplyEvent(mirror, ev)
		if ev.Seq >= target {
			break
		}
	}
	if resyncs != 1 {
		t.Fatalf("want exactly one resync on drain, got %d", resyncs)
	}
	want, err := db.Get("j")
	if err != nil {
		t.Fatal(err)
	}
	if !mirror.Equal(want) {
		t.Fatalf("mirror has %d rows, live view %d", mirror.Len(), want.Len())
	}
	if hs := db.CDCStats(); hs.Resyncs != 1 || hs.Subscribers != 1 {
		t.Fatalf("hub stats: %+v", hs)
	}
}

// TestBlockPolicyBoundsWriteDelay: a stalled block-policy subscriber may
// delay the writer once (its deadline), then is lost and never consulted
// again until it resyncs.
func TestBlockPolicyBoundsWriteDelay(t *testing.T) {
	db := maintainDB(t)
	sub, err := db.Subscribe("r1", cdc.SubOptions{
		Buffer:        1,
		Policy:        cdc.BlockWithDeadline,
		BlockDeadline: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()

	const writes = 20
	start := time.Now()
	for i := 0; i < writes; i++ {
		if err := db.Exec(Insert("r1", value.Int(int64(i)), value.Int(0))); err != nil {
			t.Fatal(err)
		}
	}
	// One deadline wait for the first overflow, then drop-until-resync:
	// nowhere near writes×deadline.
	if el := time.Since(start); el > writes*50*time.Millisecond/2 {
		t.Fatalf("block policy delayed %d writes by %v — deadline must bound total delay to one wait", writes, el)
	}

	_, target, err := db.SnapshotAt("r1")
	if err != nil {
		t.Fatal(err)
	}
	mirror := drainTo(t, sub, nil, target)
	want, _ := db.Get("r1")
	if !mirror.Equal(want) {
		t.Fatalf("mirror %d rows != live %d rows", mirror.Len(), want.Len())
	}
	if st := sub.Stats(); st.Resyncs != 1 {
		t.Fatalf("want exactly one resync, got %+v", st)
	}
}

// TestBatchFlushIsOneVisibilityPoint: transactions coalesced by a Batcher
// become visible together, so subscribers see them as one event with one
// sequence number per relation.
func TestBatchFlushIsOneVisibilityPoint(t *testing.T) {
	db := maintainDB(t)
	if err := db.Exec(Insert("r2", value.Int(1), value.Int(10))); err != nil {
		t.Fatal(err)
	}
	r1Sub, err := db.Subscribe("r1", cdc.SubOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer r1Sub.Close()
	jSub, err := db.Subscribe("j", cdc.SubOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer jSub.Close()
	cdcRecv(t, r1Sub) // initial snapshots
	cdcRecv(t, jSub)

	b := db.Batch(BatchOptions{MaxTxns: -1})
	for i := 0; i < 5; i++ {
		if err := b.Exec(Insert("r1", value.Int(int64(i)), value.Int(1))); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.Flush(); err != nil {
		t.Fatal(err)
	}

	evR1 := cdcRecv(t, r1Sub)
	evJ := cdcRecv(t, jSub)
	if evR1.Resync || len(evR1.Inserts) != 5 {
		t.Fatalf("want one 5-row batch delta on r1, got %+v", evR1)
	}
	if evJ.Resync || len(evJ.Inserts) != 5 {
		t.Fatalf("want one 5-row maintained delta on j, got %+v", evJ)
	}
	if evR1.Seq != evJ.Seq {
		t.Fatalf("one flush split into seqs %d and %d", evR1.Seq, evJ.Seq)
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestSubscribeUnknownRelation: the error surfaces at Subscribe, not on
// the stream.
func TestSubscribeUnknownRelation(t *testing.T) {
	db := maintainDB(t)
	if _, err := db.Subscribe("nope", cdc.SubOptions{}); err == nil {
		t.Fatal("want error for unknown relation")
	}
	// No hub state should leak from the failed subscribe.
	if st := db.CDCStats(); st.Subscribers != 0 {
		t.Fatalf("failed subscribe leaked state: %+v", st)
	}
}

// TestQuietHubAllocatesLikeNoHub pins the cdc package's zero-subscriber
// claim: once its only subscription is closed, a database's write path
// allocates exactly what it does on a database that never subscribed.
func TestQuietHubAllocatesLikeNoHub(t *testing.T) {
	allocs := func(subscribe bool) float64 {
		db := NewDB()
		if err := db.CreateTable(mustDecl(t, "t(a:int).")); err != nil {
			t.Fatal(err)
		}
		if subscribe {
			sub, err := db.Subscribe("t", cdc.SubOptions{})
			if err != nil {
				t.Fatal(err)
			}
			sub.Close()
		}
		ins, del := Insert("t", value.Int(1)), Delete("t", Eq("a", value.Int(1)))
		n := 0
		return testing.AllocsPerRun(200, func() {
			s := ins
			if n++; n%2 == 0 {
				s = del
			}
			if err := db.Exec(s); err != nil {
				t.Fatal(err)
			}
		})
	}
	if never, quiet := allocs(false), allocs(true); never != quiet {
		t.Fatalf("allocs per one-row Exec: %v with no hub, %v with a quiet hub", never, quiet)
	}
}
