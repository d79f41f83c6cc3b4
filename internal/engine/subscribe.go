package engine

import (
	"fmt"
	"sort"

	"birds/internal/cdc"
	"birds/internal/datalog"
	"birds/internal/eval"
	"birds/internal/value"
)

// Live view subscriptions (change-data-capture).
//
// The counting IVM computes the exact net delta of every maintained view
// at every visibility point and used to throw it away after maintainViews.
// Subscribe exposes it: each visibility point that publishes a WAL record
// also publishes its per-relation deltas to the cdc.Hub, under the same
// write lock — so hub sequence order is commit order, and a batch's deltas
// share one sequence number (all-or-nothing visibility, same as readers).
// That point is commitLocked (durable.go) for direct, view-targeted and
// group-commit transactions, and LoadTable for bulk loads. Both apply the
// empty rule: a write that changed nothing publishes nothing — no seq, no
// event, no resync — just as it appends no WAL record.
//
// The hub is nil until the first Subscribe, and publish hooks bail on a
// nil or quiet hub before allocating anything: the steady-state write path
// with zero subscribers is unchanged.

// Subscribe opens a change-data-capture subscription on a table or view.
// The returned subscription's first event is a Resync carrying an O(1)
// copy-on-write snapshot taken under the engine write lock, so folding the
// event stream into it (cdc.ApplyEvent) reproduces the live relation at
// every event's sequence number. See the cdc package for the delivery
// contract (ordering, bounded buffers, slow-consumer policies, resync).
//
// Exactly one goroutine should consume the subscription via Recv, and must
// Close it when done. Subscribing to a stale view refreshes it first.
// Subscriptions survive read-only degradation (reads keep working) and
// Reopen (the consumer sees a Resync against the recovered state).
func (db *DB) Subscribe(name string, opts cdc.SubOptions) (*cdc.Subscription, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	decl := db.relDecl(name)
	if decl == nil {
		return nil, fmt.Errorf("engine: unknown relation %q", name)
	}
	if db.dirty[name] {
		if err := db.refresh(name); err != nil {
			return nil, err
		}
	}
	if db.hub == nil {
		db.hub = cdc.NewHub()
	}
	h := db.hub
	snap := db.store.RelOrEmpty(datalog.Pred(name), decl.Arity()).Snapshot()
	// The resync pull: invoked by the consumer (never the publisher) when
	// the subscription was marked lost and its buffered prefix is drained.
	// It re-acquires the engine lock, refreshes the relation if the loss
	// left it dirty, snapshots it, and re-arms the subscription before the
	// lock is released — so no event published after the snapshot can be
	// missed, and every event already in flight has a smaller seq.
	var sub *cdc.Subscription
	resnap := func() (*value.Relation, uint64, error) {
		db.mu.Lock()
		defer db.mu.Unlock()
		d := db.relDecl(name)
		if d == nil {
			return nil, 0, fmt.Errorf("engine: unknown relation %q", name)
		}
		if db.dirty[name] {
			if err := db.refresh(name); err != nil {
				return nil, 0, err
			}
		}
		s := db.store.RelOrEmpty(datalog.Pred(name), d.Arity()).Snapshot()
		seq := h.Seq()
		sub.Rearm(seq)
		return s, seq, nil
	}
	sub = h.Subscribe(name, snap, opts, resnap)
	return sub, nil
}

// publishLocked fans one visibility point's net deltas out to the
// subscription hub: one Publish call, one sequence number, all changed
// relations together. Views the maintenance pass could only mark dirty
// (fallback: bulk load, dirty source, maintenance error) have no delta —
// their subscribers are marked lost instead, surfacing as an explicit
// Resync rather than silent divergence. Must run under the write lock,
// after maintainViews; with no subscribers it returns before allocating.
func (db *DB) publishLocked(changed map[string]eval.Delta) {
	h := db.hub
	if h == nil || h.Quiet() {
		return
	}
	var ups []cdc.Update
	for name, d := range changed {
		if d.Empty() || !h.Subscribed(name) {
			continue
		}
		ups = append(ups, cdc.Update{View: name, Inserts: d.Ins.Tuples(), Deletes: d.Del.Tuples()})
	}
	sort.Slice(ups, func(i, j int) bool { return ups[i].View < ups[j].View })
	var lost []string
	for _, name := range db.viewOrder {
		if db.dirty[name] && h.Subscribed(name) {
			lost = append(lost, name)
		}
	}
	h.Publish(ups, lost)
}

// CDCStats returns the subscription hub's aggregate counters (zero when
// nothing ever subscribed).
func (db *DB) CDCStats() cdc.HubStats {
	db.mu.RLock()
	h := db.hub
	db.mu.RUnlock()
	if h == nil {
		return cdc.HubStats{}
	}
	return h.Stats()
}

// SnapshotAt returns an O(1) copy-on-write snapshot of a relation together
// with the hub sequence number it corresponds to, taken under one write
// lock acquisition (a stale view is refreshed first). The mirror harness
// uses it to compare a subscriber's reconstruction against the live view
// at a known sequence number; with no hub the sequence is 0.
func (db *DB) SnapshotAt(name string) (*value.Relation, uint64, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	decl := db.relDecl(name)
	if decl == nil {
		return nil, 0, fmt.Errorf("engine: unknown relation %q", name)
	}
	if db.dirty[name] {
		if err := db.refresh(name); err != nil {
			return nil, 0, err
		}
	}
	var seq uint64
	if db.hub != nil {
		seq = db.hub.Seq()
	}
	return db.store.RelOrEmpty(datalog.Pred(name), decl.Arity()).Snapshot(), seq, nil
}
