package fault

import "time"

// linkCap is a Link's channel capacity. The ghost exchange keeps at
// most two rounds' halos in flight on one link, and each may be
// duplicated, so Send never blocks there.
const linkCap = 4

// packet carries one payload plus the delivery metadata the receiver
// needs to dedupe duplicates, honor injected delays and spot drops.
type packet[T any] struct {
	seq       uint64
	payload   T
	lost      bool      // dropped on the wire: a gap marker for seq
	notBefore time.Time // zero = deliver immediately
}

// Link is one direction of a point-to-point channel between two
// simulated ranks, with the injector sitting on the wire. Sends are
// sequence-numbered, and the sender retains what it sent. A dropped
// message leaves a gap marker in the channel in its place; the
// receiver that meets the gap takes the sender's retained copy at once
// (counted as a retransmit), as TCP's fast retransmit reacts to a
// sequence gap rather than to a timer. Duplicated deliveries are
// discarded by sequence number; delayed deliveries are held until
// their release time.
//
// A Link with a nil injector is a plain reliable channel. Each
// endpoint of a Link must be used by one goroutine at a time, so the
// sequence counters need no lock.
type Link[T any] struct {
	in       *Injector
	from, to int
	ch       chan packet[T]
	sent     uint64 // sender side: last sequence sent
	got      uint64 // receiver side: last sequence accepted
}

// NewLink wires one directed link from -> to through the injector
// (nil for a reliable link).
func NewLink[T any](in *Injector, from, to int) *Link[T] {
	return &Link[T]{in: in, from: from, to: to, ch: make(chan packet[T], linkCap)}
}

// Send transmits payload, applying the injector's fate: a dropped
// message travels as a gap marker that carries the retained copy,
// a duplicated one is enqueued twice, and a delayed one carries a
// release time the receiver honors. abort aborts a full-channel send
// (returns false).
func (l *Link[T]) Send(payload T, abort <-chan struct{}) bool {
	l.sent++
	p := packet[T]{seq: l.sent, payload: payload}
	n := 1
	switch l.in.MessageFate(l.from, l.to, p.seq) {
	case Drop:
		p.lost = true
	case Delay:
		p.notBefore = time.Now().Add(l.in.MessageDelay())
	case Dup:
		n = 2
	}
	for range n {
		select {
		case l.ch <- p:
		case <-abort:
			return false
		}
	}
	return true
}

// Close ends the link from the sender's side. The receiver still gets
// everything sent before it, in order, and then ok=false.
func (l *Link[T]) Close() { close(l.ch) }

// Recv returns the next fresh payload. It discards duplicates, waits
// out injected delays, and recovers a dropped message from the
// sender's retained copy. Returns ok=false when abort closes or the
// link is closed with nothing fresh left in it.
func (l *Link[T]) Recv(abort <-chan struct{}) (T, bool) {
	var zero T
	for {
		var p packet[T]
		var open bool
		select {
		case p, open = <-l.ch:
		case <-abort:
			return zero, false
		}
		switch {
		case !open:
			return zero, false
		case p.seq <= l.got:
			continue // a duplicate
		case !p.notBefore.IsZero() && !wait(p.notBefore, abort):
			return zero, false
		}
		l.got = p.seq
		if p.lost {
			l.in.NoteRetransmit(l.from, l.to, p.seq)
		}
		return p.payload, true
	}
}

// wait sleeps until t unless abort closes first; it reports whether
// t was reached.
func wait(t time.Time, abort <-chan struct{}) bool {
	d := time.Until(t)
	if d <= 0 {
		return true
	}
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-timer.C:
		return true
	case <-abort:
		return false
	}
}
