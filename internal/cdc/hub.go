package cdc

import (
	"sync"
	"sync/atomic"

	"birds/internal/value"
	"birds/internal/wal"
)

// Hub fans per-relation deltas out to subscriptions. The engine owns the
// hub and the sequence number: it calls Subscribe, Publish and MarkAllLost
// under its write lock, handing each the current commit seq, which is
// what serializes publishers and makes event order commit order.
// Consumers (Recv, Close, Stats) synchronize only on hub and subscription
// mutexes, never on the engine lock — except the resync pull, which
// re-enters the engine through the closure the engine installed at
// Subscribe time.
//
// Lock order: engine lock → Hub.mu → Subscription.mu. Events are handed
// to subscriptions outside Hub.mu, so a publisher delayed by a
// BlockWithDeadline subscriber never holds the hub lock.
type Hub struct {
	mu   sync.RWMutex
	subs map[string][]*Subscription

	published uint64 // Publish calls that delivered an event or a loss
	// Counters of closed subscriptions, folded in by remove so hub totals
	// are monotonic across subscriber churn.
	retiredDelivered uint64
	retiredDropped   uint64
	retiredResyncs   uint64

	// active mirrors the live subscription count so the engine's publish
	// hook can skip all work without taking any lock.
	active atomic.Int64
}

// NewHub returns an empty hub.
func NewHub() *Hub {
	return &Hub{subs: make(map[string][]*Subscription)}
}

// Quiet reports whether the hub has no live subscriptions. Lock-free; the
// engine's publish hook uses it to keep the zero-subscriber write path
// allocation-free.
func (h *Hub) Quiet() bool { return h.active.Load() == 0 }

// Subscribed reports whether any live subscription watches the relation.
func (h *Hub) Subscribed(view string) bool {
	h.mu.RLock()
	defer h.mu.RUnlock()
	return len(h.subs[view]) > 0
}

// Subscribe registers a subscription whose stream opens with a Resync
// event carrying snap at seq. Must be called under the engine write lock,
// with snap and seq taken under that same lock: the snapshot then
// corresponds exactly to the sequence number, which is what makes
// snapshot ⊕ replayed deltas ≡ live view. resnap is the engine-provided
// resync pull: it must re-acquire the engine lock, produce a fresh
// snapshot plus its sequence number, and re-arm the subscription (Rearm)
// before releasing the lock.
func (h *Hub) Subscribe(view string, seq uint64, snap *value.Relation, opts SubOptions, resnap func() (*value.Relation, uint64, error)) *Subscription {
	if opts.Buffer <= 0 {
		opts.Buffer = DefaultBuffer
	}
	if opts.BlockDeadline <= 0 {
		opts.BlockDeadline = DefaultBlockDeadline
	}
	s := &Subscription{
		hub:    h,
		view:   view,
		opts:   opts,
		resnap: resnap,
		ring:   make([]Event, opts.Buffer),
		notify: make(chan struct{}, 1),
		space:  make(chan struct{}, 1),
	}
	h.mu.Lock()
	s.ring[0] = Event{Seq: seq, View: view, Resync: true, Snapshot: snap}
	s.count = 1
	s.lastEnq, s.lastDeq = seq, seq
	h.subs[view] = append(h.subs[view], s)
	h.mu.Unlock()
	h.active.Add(1)
	return s
}

// delivery pairs an event with its target, collected under Hub.mu and
// delivered outside it.
type delivery struct {
	sub *Subscription
	ev  Event
}

// Publish records one visibility point: every entry of cs (base table or
// view) is offered to the relation's subscribers under cs.Seq, and every
// subscription of a relation in lost (a view the engine could only mark
// dirty — no delta exists) is marked lost so its consumer resyncs. Entries
// nobody watches are ignored. The hub owns the entries' tuple slices from
// then on. Must run under the engine write lock; callers should skip the
// call entirely when Quiet().
func (h *Hub) Publish(cs *wal.Changeset, lost []string) {
	h.mu.Lock()
	var dels []delivery
	for _, entries := range [2][]wal.TableDelta{cs.Tables, cs.Views} {
		for _, td := range entries {
			ev := Event{Seq: cs.Seq, View: td.Name, Inserts: td.Ins, Deletes: td.Del}
			for _, s := range h.subs[td.Name] {
				dels = append(dels, delivery{s, ev})
			}
		}
	}
	var lostSubs []*Subscription
	for _, name := range lost {
		lostSubs = append(lostSubs, h.subs[name]...)
	}
	if len(dels) > 0 || len(lostSubs) > 0 {
		h.published++
	}
	h.mu.Unlock()
	for _, d := range dels {
		d.sub.offer(d.ev)
	}
	for _, s := range lostSubs {
		s.markLost(cs.Seq)
	}
}

// MarkAllLost marks every live subscription lost at seq — used when the
// engine state is replaced wholesale (Reopen after degraded mode), where no
// delta relates the old state to the new. Every consumer then resyncs
// against the recovered state. Must run under the engine write lock.
func (h *Hub) MarkAllLost(seq uint64) {
	h.mu.Lock()
	var all []*Subscription
	for _, subs := range h.subs {
		all = append(all, subs...)
	}
	h.mu.Unlock()
	for _, s := range all {
		s.markLost(seq)
	}
}

// remove unregisters a closed subscription and folds its counters into
// the hub's retired totals.
func (h *Hub) remove(sub *Subscription) {
	h.mu.Lock()
	defer h.mu.Unlock()
	subs := h.subs[sub.view]
	for i, s := range subs {
		if s == sub {
			h.subs[sub.view] = append(subs[:i], subs[i+1:]...)
			if len(h.subs[sub.view]) == 0 {
				delete(h.subs, sub.view)
			}
			st := sub.Stats()
			h.retiredDelivered += st.Delivered
			h.retiredDropped += st.Dropped
			h.retiredResyncs += st.Resyncs
			h.active.Add(-1)
			return
		}
	}
}

// HubStats is a point-in-time aggregate over the hub and its live
// subscriptions (plus totals of already-closed ones).
type HubStats struct {
	Subscribers int `json:"subscribers"`
	// Seq is the engine's commit sequence number, which the hub does not
	// keep: the engine fills it in (Hub.Stats leaves it zero).
	Seq       uint64 `json:"seq"`
	Published uint64 `json:"published"`
	Delivered uint64 `json:"delivered"`
	Dropped   uint64 `json:"dropped"`
	Resyncs   uint64 `json:"resyncs"`
	// MaxLagSeqs is the largest LagSeqs over live subscriptions: how many
	// commits the furthest-behind consumer trails by.
	MaxLagSeqs uint64 `json:"max_lag_seqs"`
}

// Stats aggregates hub counters.
func (h *Hub) Stats() HubStats {
	h.mu.RLock()
	defer h.mu.RUnlock()
	st := HubStats{
		Published: h.published,
		Delivered: h.retiredDelivered,
		Dropped:   h.retiredDropped,
		Resyncs:   h.retiredResyncs,
	}
	for _, subs := range h.subs {
		for _, s := range subs {
			ss := s.Stats()
			st.Subscribers++
			st.Delivered += ss.Delivered
			st.Dropped += ss.Dropped
			st.Resyncs += ss.Resyncs
			if ss.LagSeqs > st.MaxLagSeqs {
				st.MaxLagSeqs = ss.LagSeqs
			}
		}
	}
	return st
}
