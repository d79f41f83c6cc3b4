// Package cdc is the change-data-capture subsystem: a subscription hub
// that captures the per-view net deltas the counting IVM computes at every
// visibility point (direct transaction, group-commit flush, bulk load —
// the same points that get a WAL record) and fans them out to many
// subscribers.
//
// Delivery contract:
//
//   - A subscription opens with one Resync event carrying an O(1)
//     copy-on-write snapshot of the relation, taken under the same engine
//     lock that defines its sequence number. Folding every subsequent
//     event into that snapshot (ApplyEvent) reproduces the live relation
//     exactly as of each event's sequence number.
//   - Events arrive in strictly increasing Seq order. Seq is the engine's
//     commit sequence: every visibility point takes the next number, and
//     on a durable engine that number is also the LSN of the point's WAL
//     record, so "mirror at seq N" and "recovered at LSN N" are one
//     claim. A group-commit batch that changes several subscribed
//     relations publishes all of their deltas under its single Seq, so a
//     batch is observed all-or-nothing. Gaps in a subscription's Seq are
//     normal: other relations changed at the commits in between.
//   - Buffers are bounded. A subscriber that falls behind either delays
//     the publisher briefly (BlockWithDeadline) or loses events — and
//     loss is never silent: the subscription is marked lost, and the next
//     Recv after the buffered prefix drains returns exactly one Resync
//     event with a fresh snapshot to restart the mirror from.
//   - When the engine itself cannot produce a delta (a maintenance
//     fallback marks the view dirty — bulk load, maintenance error, dirty
//     source), subscribers of that view are marked lost the same way, so
//     a mirror never silently diverges.
//
// The hub costs nothing when no subscriber exists: the engine renders no
// delta and skips the publish hook entirely, whether the hub is nil (never
// subscribed) or quiet (every subscription closed) — the write path makes
// the same allocations either way.
package cdc

import (
	"errors"
	"time"

	"birds/internal/value"
)

// Policy selects what a publisher does when a subscriber's buffer is full.
type Policy uint8

const (
	// DropAndResync (the default) never delays the publisher: the
	// subscription is marked lost, later events are dropped, and the
	// subscriber receives one explicit Resync event after draining the
	// buffered prefix.
	DropAndResync Policy = iota
	// BlockWithDeadline delays the publisher up to BlockDeadline waiting
	// for the subscriber to drain; if the deadline expires the publisher
	// falls back to DropAndResync for this loss. The write path is thus
	// delayed at most once per loss, never blocked indefinitely.
	BlockWithDeadline
)

func (p Policy) String() string {
	if p == BlockWithDeadline {
		return "block"
	}
	return "drop"
}

// Defaults applied by Hub.Subscribe when SubOptions fields are zero.
const (
	DefaultBuffer        = 256
	DefaultBlockDeadline = 10 * time.Millisecond
)

// SubOptions configures one subscription.
type SubOptions struct {
	// Buffer is the per-subscriber event ring capacity (events, not rows).
	// The initial snapshot event occupies one slot. <= 0 selects
	// DefaultBuffer.
	Buffer int
	// Policy is the slow-consumer policy; the zero value is DropAndResync.
	Policy Policy
	// BlockDeadline bounds the publisher delay under BlockWithDeadline.
	// <= 0 selects DefaultBlockDeadline.
	BlockDeadline time.Duration
}

// Event is one element of a subscription's stream.
//
// A delta event (Resync false) carries the exact net row delta of one
// visibility point: Inserts are rows that became members, Deletes rows
// that ceased to be, and the two never overlap. A resync event (Resync
// true) carries a full Snapshot instead and restarts the mirror: the first
// event of every subscription is a resync, and so is the recovery event
// after a loss. The Snapshot is an immutable copy-on-write view — a
// client may keep applying later deltas to it (mutation quietly diverts it
// onto private storage) but must not assume it is private storage.
type Event struct {
	Seq      uint64
	View     string
	Resync   bool
	Snapshot *value.Relation // resync events only
	Inserts  []value.Tuple   // delta events only
	Deletes  []value.Tuple
}

// ErrClosed is returned by Recv once the subscription is closed and its
// buffered events are drained.
var ErrClosed = errors.New("cdc: subscription closed")

// ApplyEvent folds one event into a client-side mirror and returns the new
// mirror: a resync event replaces the mirror with the event's snapshot,
// a delta event applies Deletes then Inserts in place. Starting from nil
// and folding every event of a subscription yields a relation identical to
// the live view at every event's sequence number.
func ApplyEvent(mirror *value.Relation, ev Event) *value.Relation {
	if ev.Resync {
		return ev.Snapshot
	}
	for _, t := range ev.Deletes {
		mirror.Remove(t)
	}
	for _, t := range ev.Inserts {
		mirror.Add(t)
	}
	return mirror
}
