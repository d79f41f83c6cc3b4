package engine

import (
	"birds/internal/cdc"
	"birds/internal/value"
	"birds/internal/wal"
)

// Live view subscriptions (change-data-capture).
//
// The counting IVM computes the exact net delta of every maintained view
// at every visibility point. Subscribe exposes it: each visibility point
// builds one wal.Changeset under the write lock, numbered by the engine's
// commit seq, whose base-table entries the WAL logs and whose watched
// entries the cdc.Hub publishes — so event order is commit order, an
// event's Seq is its record's LSN, and a batch's deltas share one sequence
// number (all-or-nothing visibility, same as readers). That point is
// commitLocked (durable.go) for direct, view-targeted and group-commit
// transactions, and LoadTable for bulk loads. Both apply the empty rule: a
// write that changed nothing is no visibility point — no seq, no event, no
// resync, no WAL record.
//
// The hub is nil until the first Subscribe. With no live subscription
// (nil or quiet hub) and no WAL, a commit renders nothing and only
// advances the seq: the steady-state write path with zero subscribers is
// unchanged.

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
	r, err := db.relLocked(name)
	if err != nil {
		return nil, err
	}
	if db.hub == nil {
		db.hub = cdc.NewHub()
	}
	h := db.hub
	snap := r.Snapshot()
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
		r, err := db.relLocked(name)
		if err != nil {
			return nil, 0, err
		}
		sub.Rearm(db.seq)
		return r.Snapshot(), db.seq, nil
	}
	sub = h.Subscribe(name, db.seq, snap, opts, resnap)
	return sub, nil
}

// publishLocked fans one visibility point's changeset out to the
// subscription hub: one Publish call, one sequence number, all changed
// relations together. Views the maintenance pass could only mark dirty
// (fallback: bulk load, dirty source, maintenance error) have no delta —
// their subscribers are marked lost instead, surfacing as an explicit
// Resync rather than silent divergence. Must run under the write lock,
// after maintainViews; with no subscribers it returns before allocating.
func (db *DB) publishLocked(cs *wal.Changeset) {
	h := db.hub
	if h == nil || h.Quiet() {
		return
	}
	var lost []string
	for _, name := range db.viewOrder {
		if db.dirty[name] && h.Subscribed(name) {
			lost = append(lost, name)
		}
	}
	h.Publish(cs, lost)
}

// CDCStats returns the subscription hub's aggregate counters (zero when
// nothing ever subscribed) and the engine's commit seq.
func (db *DB) CDCStats() cdc.HubStats {
	db.mu.RLock()
	h, seq := db.hub, db.seq
	db.mu.RUnlock()
	var st cdc.HubStats
	if h != nil {
		st = h.Stats()
	}
	st.Seq = seq
	return st
}

// SnapshotAt returns an O(1) copy-on-write snapshot of a relation together
// with the commit seq it corresponds to, taken under one lock acquisition
// (see read; a stale view is refreshed first). The mirror harness uses it
// to compare a subscriber's reconstruction against the live view at a
// known sequence number.
func (db *DB) SnapshotAt(name string) (snap *value.Relation, seq uint64, err error) {
	err = db.read(func(rel func(string) (*value.Relation, error)) error {
		r, err := rel(name)
		if err == nil {
			snap, seq = r.Snapshot(), db.seq
		}
		return err
	})
	return snap, seq, err
}
