package cdc

import (
	"context"
	"fmt"
	"sync"
	"time"

	"birds/internal/value"
)

// Subscription is one subscriber's end of the hub: a bounded ring of
// events filled by publishers (engine write path) and drained by exactly
// one consumer goroutine via Recv. All methods are safe for concurrent
// use, but events are a stream — concurrent Recv calls would split it.
type Subscription struct {
	hub    *Hub
	view   string
	opts   SubOptions
	resnap func() (*value.Relation, uint64, error)

	mu     sync.Mutex
	ring   []Event
	head   int
	count  int
	lost   bool // events were (or will be) missed; consumer must resync
	closed bool

	delivered uint64
	dropped   uint64
	resyncs   uint64
	lastEnq   uint64 // seq of the last event offered (delivered or dropped)
	lastDeq   uint64 // seq of the last event the consumer received

	notify chan struct{} // cap 1: ring gained an event / lost / closed
	space  chan struct{} // cap 1: ring gained free space / closed
}

// View returns the subscribed relation name.
func (s *Subscription) View() string { return s.view }

// signal posts a non-blocking wakeup on a capacity-1 channel.
func signal(ch chan struct{}) {
	select {
	case ch <- struct{}{}:
	default:
	}
}

// offer enqueues one event, applying the slow-consumer policy when the
// ring is full. Publishers are serialized by the engine write lock, so at
// most one offer runs at a time; the ring's buffered prefix is kept on
// loss (it is a valid prefix of the stream — the consumer drains it, then
// resyncs).
func (s *Subscription) offer(ev Event) {
	var deadline time.Time
	expired := false
	for {
		s.mu.Lock()
		switch {
		case s.closed:
			s.mu.Unlock()
			return
		case s.lost:
			s.dropped++
			s.lastEnq = ev.Seq
			s.mu.Unlock()
			return
		case s.count < len(s.ring):
			s.ring[(s.head+s.count)%len(s.ring)] = ev
			s.count++
			s.lastEnq = ev.Seq
			s.mu.Unlock()
			signal(s.notify)
			return
		}
		// Ring full.
		if s.opts.Policy == BlockWithDeadline && !expired {
			// Clear a stale space signal while still holding the lock (the
			// ring is full right now, so any buffered signal is obsolete),
			// then wait outside it for the consumer to drain.
			select {
			case <-s.space:
			default:
			}
			s.mu.Unlock()
			if deadline.IsZero() {
				deadline = time.Now().Add(s.opts.BlockDeadline)
			}
			t := time.NewTimer(time.Until(deadline))
			select {
			case <-s.space:
				t.Stop()
			case <-t.C:
				expired = true
			}
			continue
		}
		s.lost = true
		s.dropped++
		s.lastEnq = ev.Seq
		s.mu.Unlock()
		signal(s.notify)
		return
	}
}

// markLost marks the subscription lost without an event — the engine's
// signal that the stream cannot represent what just happened (fallback
// refresh, state replacement). The buffered prefix stays deliverable.
func (s *Subscription) markLost(seq uint64) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.lost = true
	if seq > s.lastEnq {
		s.lastEnq = seq
	}
	s.mu.Unlock()
	signal(s.notify)
}

// Rearm clears the lost flag after a resync snapshot was taken at seq.
// Called only by the engine's resnap closure, under the engine write lock
// — which is what guarantees no event can be published (and missed)
// between the snapshot and the re-arm.
func (s *Subscription) Rearm(seq uint64) {
	s.mu.Lock()
	s.lost = false
	if seq > s.lastEnq {
		s.lastEnq = seq
	}
	s.mu.Unlock()
}

// Recv returns the next event of the stream, blocking until one is
// available or ctx is done. Buffered events are delivered first — even
// after Close or a loss. Once the buffer is drained: a lost subscription
// pulls a fresh snapshot through the engine and returns exactly one Resync
// event; a closed subscription returns ErrClosed.
func (s *Subscription) Recv(ctx context.Context) (Event, error) {
	for {
		s.mu.Lock()
		if s.count > 0 {
			ev := s.ring[s.head]
			s.ring[s.head] = Event{}
			s.head = (s.head + 1) % len(s.ring)
			s.count--
			s.delivered++
			s.lastDeq = ev.Seq
			s.mu.Unlock()
			signal(s.space)
			return ev, nil
		}
		if s.closed {
			s.mu.Unlock()
			return Event{}, ErrClosed
		}
		if s.lost {
			s.mu.Unlock()
			snap, seq, err := s.resnap()
			if err != nil {
				return Event{}, fmt.Errorf("cdc: resync %q: %w", s.view, err)
			}
			// resnap re-armed the subscription under the engine lock; any
			// event published since has seq > this snapshot's and sits
			// behind the resync in the ring.
			s.mu.Lock()
			s.resyncs++
			s.delivered++
			if seq > s.lastDeq {
				s.lastDeq = seq
			}
			s.mu.Unlock()
			return Event{Seq: seq, View: s.view, Resync: true, Snapshot: snap}, nil
		}
		s.mu.Unlock()
		select {
		case <-ctx.Done():
			return Event{}, ctx.Err()
		case <-s.notify:
		}
	}
}

// Close ends the subscription: publishers stop offering to it, a blocked
// publisher wakes, the consumer may still drain buffered events and then
// gets ErrClosed. Idempotent.
func (s *Subscription) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	s.mu.Unlock()
	signal(s.notify)
	signal(s.space)
	s.hub.remove(s)
}

// SubStats is a point-in-time snapshot of one subscription's counters.
type SubStats struct {
	Delivered uint64 `json:"delivered"`
	Dropped   uint64 `json:"dropped"`
	Resyncs   uint64 `json:"resyncs"`
	// LagSeqs is the last offered seq minus the last received seq: the
	// commits the consumer is behind, counting commits that did not
	// change its relation.
	LagSeqs  uint64 `json:"lag_seqs"`
	Buffered int    `json:"buffered"`
	Lost     bool   `json:"lost"`
}

// Stats returns the subscription's counters.
func (s *Subscription) Stats() SubStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := SubStats{
		Delivered: s.delivered,
		Dropped:   s.dropped,
		Resyncs:   s.resyncs,
		Buffered:  s.count,
		Lost:      s.lost,
	}
	if s.lastEnq > s.lastDeq {
		st.LagSeqs = s.lastEnq - s.lastDeq
	}
	return st
}
