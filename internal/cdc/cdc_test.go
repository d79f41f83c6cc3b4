package cdc_test

// Unit tests for the hub/subscription machinery against a miniature
// "engine": a mutex (standing in for the engine write lock), a live
// relation the publisher maintains, and a resnap closure that snapshots
// it under that mutex — the same protocol engine.Subscribe installs.

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"birds/internal/cdc"
	"birds/internal/value"
	"birds/internal/wal"
)

// fakeEngine is the minimal publisher side of the CDC protocol.
type fakeEngine struct {
	mu   sync.Mutex // the "engine write lock"
	hub  *cdc.Hub
	seq  uint64 // the commit sequence, advanced by publish
	view string
	live *value.Relation
}

func newFakeEngine(view string) *fakeEngine {
	return &fakeEngine{hub: cdc.NewHub(), view: view, live: value.NewRelation(1)}
}

// subscribe opens a subscription with the engine-side resnap closure.
func (e *fakeEngine) subscribe(opts cdc.SubOptions) *cdc.Subscription {
	e.mu.Lock()
	defer e.mu.Unlock()
	var sub *cdc.Subscription
	resnap := func() (*value.Relation, uint64, error) {
		e.mu.Lock()
		defer e.mu.Unlock()
		snap := e.live.Snapshot()
		sub.Rearm(e.seq)
		return snap, e.seq, nil
	}
	sub = e.hub.Subscribe(e.view, e.seq, e.live.Snapshot(), opts, resnap)
	return sub
}

// publish applies one visibility point to the live relation and the hub.
func (e *fakeEngine) publish(ins, del []value.Tuple) {
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, t := range del {
		e.live.Remove(t)
	}
	for _, t := range ins {
		e.live.Add(t)
	}
	e.seq++
	e.hub.Publish(&wal.Changeset{Seq: e.seq, Tables: []wal.TableDelta{{Name: e.view, Ins: ins, Del: del}}}, nil)
}

func row(i int) value.Tuple { return value.Tuple{value.Int(int64(i))} }

func recvOne(t *testing.T, sub *cdc.Subscription) cdc.Event {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	ev, err := sub.Recv(ctx)
	if err != nil {
		t.Fatalf("Recv: %v", err)
	}
	return ev
}

func TestSnapshotThenOrderedDeltas(t *testing.T) {
	e := newFakeEngine("v")
	e.publish([]value.Tuple{row(1)}, nil) // pre-subscription state
	sub := e.subscribe(cdc.SubOptions{})
	defer sub.Close()

	first := recvOne(t, sub)
	if !first.Resync || first.Snapshot == nil || first.Snapshot.Len() != 1 {
		t.Fatalf("first event must be the snapshot, got %+v", first)
	}
	mirror := cdc.ApplyEvent(nil, first)

	e.publish([]value.Tuple{row(2)}, nil)
	e.publish([]value.Tuple{row(3)}, []value.Tuple{row(1)})
	e.publish(nil, []value.Tuple{row(2)})

	last := first.Seq
	for i := 0; i < 3; i++ {
		ev := recvOne(t, sub)
		if ev.Resync {
			t.Fatalf("unexpected resync at event %d", i)
		}
		if ev.Seq <= last {
			t.Fatalf("seq not strictly increasing: %d after %d", ev.Seq, last)
		}
		last = ev.Seq
		mirror = cdc.ApplyEvent(mirror, ev)
	}
	e.mu.Lock()
	same := mirror.Equal(e.live)
	e.mu.Unlock()
	if !same {
		t.Fatalf("mirror diverged: %v vs %v", mirror, e.live)
	}
	st := sub.Stats()
	if st.Delivered != 4 || st.Dropped != 0 || st.Resyncs != 0 || st.LagSeqs != 0 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestBatchIsOneSeqAcrossViews(t *testing.T) {
	h := cdc.NewHub()
	subA := h.Subscribe("a", 0, value.NewRelation(1).Snapshot(), cdc.SubOptions{}, nil)
	defer subA.Close()
	subB := h.Subscribe("b", 0, value.NewRelation(1).Snapshot(), cdc.SubOptions{}, nil)
	defer subB.Close()

	// One visibility point touching both relations: one Publish call.
	h.Publish(&wal.Changeset{Seq: 1, Tables: []wal.TableDelta{
		{Name: "a", Ins: []value.Tuple{row(1)}},
		{Name: "b", Ins: []value.Tuple{row(2)}},
	}}, nil)

	recvOne(t, subA) // initial snapshots
	recvOne(t, subB)
	evA, evB := recvOne(t, subA), recvOne(t, subB)
	if evA.Seq != evB.Seq {
		t.Fatalf("one visibility point split into seqs %d and %d", evA.Seq, evB.Seq)
	}
}

func TestDropAndResyncExactlyOnce(t *testing.T) {
	e := newFakeEngine("v")
	sub := e.subscribe(cdc.SubOptions{Buffer: 2}) // snapshot takes one slot
	defer sub.Close()

	for i := 1; i <= 5; i++ { // 1 fits, 4 dropped
		e.publish([]value.Tuple{row(i)}, nil)
	}

	// Buffered prefix first: snapshot, then the single event that fit.
	if ev := recvOne(t, sub); !ev.Resync {
		t.Fatalf("want snapshot first, got %+v", ev)
	}
	if ev := recvOne(t, sub); ev.Resync || len(ev.Inserts) != 1 {
		t.Fatalf("want the buffered delta, got %+v", ev)
	}
	// Then exactly one resync carrying the full current state.
	ev := recvOne(t, sub)
	if !ev.Resync {
		t.Fatalf("want resync after loss, got %+v", ev)
	}
	if ev.Snapshot.Len() != 5 {
		t.Fatalf("resync snapshot has %d rows, want 5", ev.Snapshot.Len())
	}
	// The stream is healthy again: no second resync, new deltas flow.
	e.publish([]value.Tuple{row(6)}, nil)
	if ev := recvOne(t, sub); ev.Resync || len(ev.Inserts) != 1 {
		t.Fatalf("stream not healthy after resync: %+v", ev)
	}
	st := sub.Stats()
	if st.Resyncs != 1 {
		t.Fatalf("want exactly 1 resync, got %d (stats %+v)", st.Resyncs, st)
	}
	if st.Dropped != 4 {
		t.Fatalf("want 4 dropped, got %d", st.Dropped)
	}
}

func TestBlockWithDeadlineWaitsForConsumer(t *testing.T) {
	e := newFakeEngine("v")
	sub := e.subscribe(cdc.SubOptions{Buffer: 2, Policy: cdc.BlockWithDeadline, BlockDeadline: 2 * time.Second})
	defer sub.Close()

	e.publish([]value.Tuple{row(1)}, nil) // ring now full (snapshot + delta)
	done := make(chan struct{})
	go func() {
		e.publish([]value.Tuple{row(2)}, nil) // must wait for a Recv
		close(done)
	}()
	select {
	case <-done:
		t.Fatal("publisher did not block on a full ring")
	case <-time.After(50 * time.Millisecond):
	}
	recvOne(t, sub) // frees a slot
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("publisher still blocked after consumer drained")
	}
	recvOne(t, sub)
	recvOne(t, sub)
	if st := sub.Stats(); st.Resyncs != 0 || st.Dropped != 0 {
		t.Fatalf("no loss expected: %+v", st)
	}
}

func TestBlockWithDeadlineFallsBackToResync(t *testing.T) {
	e := newFakeEngine("v")
	sub := e.subscribe(cdc.SubOptions{Buffer: 1, Policy: cdc.BlockWithDeadline, BlockDeadline: 30 * time.Millisecond})
	defer sub.Close()

	start := time.Now()
	for i := 1; i <= 10; i++ {
		e.publish([]value.Tuple{row(i)}, nil)
	}
	// Only the first overflow waits out the deadline; once lost, the rest
	// are dropped without delay.
	if el := time.Since(start); el > 10*30*time.Millisecond {
		t.Fatalf("every publish waited (%v) — lost subscriptions must not delay the writer", el)
	}
	recvOne(t, sub) // snapshot
	ev := recvOne(t, sub)
	if !ev.Resync || ev.Snapshot.Len() != 10 {
		t.Fatalf("want resync with full state, got %+v", ev)
	}
	if st := sub.Stats(); st.Resyncs != 1 {
		t.Fatalf("want exactly 1 resync, got %+v", st)
	}
}

func TestCloseUnblocksPublisherAndEndsStream(t *testing.T) {
	e := newFakeEngine("v")
	sub := e.subscribe(cdc.SubOptions{Buffer: 1, Policy: cdc.BlockWithDeadline, BlockDeadline: 10 * time.Second})

	done := make(chan struct{})
	go func() {
		e.publish([]value.Tuple{row(1)}, nil) // ring full with the snapshot
		close(done)
	}()
	time.Sleep(20 * time.Millisecond)
	sub.Close()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("Close did not unblock the publisher")
	}
	// Buffered prefix still drains, then ErrClosed.
	recvOne(t, sub)
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if _, err := sub.Recv(ctx); !errors.Is(err, cdc.ErrClosed) {
		t.Fatalf("want ErrClosed, got %v", err)
	}
	if st := e.hub.Stats(); st.Subscribers != 0 {
		t.Fatalf("closed subscription still registered: %+v", st)
	}
	if st := sub.Stats(); st.Delivered != 1 {
		t.Fatalf("post-close drain not counted: %+v", st)
	}
}

func TestRecvHonorsContext(t *testing.T) {
	e := newFakeEngine("v")
	sub := e.subscribe(cdc.SubOptions{})
	defer sub.Close()
	recvOne(t, sub) // snapshot
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	if _, err := sub.Recv(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want DeadlineExceeded, got %v", err)
	}
}

func TestMarkAllLostForcesResyncEverywhere(t *testing.T) {
	e := newFakeEngine("v")
	s1 := e.subscribe(cdc.SubOptions{})
	defer s1.Close()
	s2 := e.subscribe(cdc.SubOptions{})
	defer s2.Close()
	recvOne(t, s1)
	recvOne(t, s2)

	e.mu.Lock()
	e.live.Add(row(42)) // state changed with no event — e.g. state swap
	e.hub.MarkAllLost(e.seq)
	e.mu.Unlock()

	for _, sub := range []*cdc.Subscription{s1, s2} {
		ev := recvOne(t, sub)
		if !ev.Resync || !ev.Snapshot.Contains(row(42)) {
			t.Fatalf("want resync with swapped state, got %+v", ev)
		}
	}
	if st := e.hub.Stats(); st.Resyncs != 2 {
		t.Fatalf("want 2 resyncs, got %+v", st)
	}
}

func TestLagCounting(t *testing.T) {
	e := newFakeEngine("v")
	sub := e.subscribe(cdc.SubOptions{Buffer: 8})
	defer sub.Close()
	recvOne(t, sub)
	for i := 1; i <= 3; i++ {
		e.publish([]value.Tuple{row(i)}, nil)
	}
	if st := sub.Stats(); st.LagSeqs != 3 || st.Buffered != 3 {
		t.Fatalf("want lag 3, got %+v", st)
	}
	recvOne(t, sub)
	recvOne(t, sub)
	recvOne(t, sub)
	if st := sub.Stats(); st.LagSeqs != 0 {
		t.Fatalf("want lag 0 after drain, got %+v", st)
	}
	if hs := e.hub.Stats(); hs.MaxLagSeqs != 0 || hs.Subscribers != 1 {
		t.Fatalf("hub stats: %+v", hs)
	}
}
