package fault

import (
	"sync"
	"time"
)

// packet carries one payload plus the delivery metadata the receiver
// needs to dedupe duplicates and honor injected delays.
type packet[T any] struct {
	seq       uint64
	payload   T
	notBefore time.Time // zero = deliver immediately
}

// Link is one direction of a point-to-point channel between two
// simulated ranks, with the injector sitting on the wire. Sends are
// sequence-numbered; the sender retains its last payload in a
// retransmit buffer, so a receiver that times out waiting for a
// dropped message pulls the retained copy instead (counted as a
// retransmit). Duplicated deliveries are discarded by sequence
// number; delayed deliveries are held until their release time.
//
// A Link with a nil injector is a plain reliable channel. Each
// endpoint of a Link must be used by one goroutine at a time (the
// ghost ranks' usage pattern); mu guards the sequence numbers and the
// retransmit buffer, which both endpoints touch.
type Link[T any] struct {
	in       *Injector
	from, to int

	ch chan packet[T]

	mu       sync.Mutex
	lastSeq  uint64 // sender side: last sequence sent
	last     T      // sender side: retained payload for retransmit
	haveLast bool

	recvSeq uint64 // receiver side: last sequence accepted
}

// NewLink wires one directed link from -> to through the injector
// (nil for a reliable link). cap is the channel capacity; ghost uses
// 1 plus headroom for duplicates.
func NewLink[T any](in *Injector, from, to, cap int) *Link[T] {
	if cap < 1 {
		cap = 1
	}
	return &Link[T]{
		in:   in,
		from: from,
		to:   to,
		// Every in-flight message may be duplicated, and an undrained
		// duplicate from the previous round may still sit in the
		// channel when the next round's send lands, so size the buffer
		// for the worst case — Send must never block in the barrier-
		// synchronized usage pattern.
		ch: make(chan packet[T], 2*cap+2),
	}
}

// Send transmits payload, applying the injector's fate: dropped
// messages are retained (retransmit buffer) but not delivered,
// duplicated messages are enqueued twice, delayed messages carry a
// release time the receiver honors. Send never blocks in the ghost
// usage pattern (round barrier bounds in-flight messages below cap).
// abort aborts a full-channel send (returns false).
func (l *Link[T]) Send(payload T, abort <-chan struct{}) bool {
	l.mu.Lock()
	l.lastSeq++
	seq := l.lastSeq
	l.last = payload
	l.haveLast = true
	l.mu.Unlock()

	fate := l.in.MessageFate(l.from, l.to, seq)
	if fate == Drop {
		return true // retained for retransmit; never hits the wire
	}
	p := packet[T]{seq: seq, payload: payload}
	if fate == Delay {
		p.notBefore = time.Now().Add(l.in.MessageDelay())
	}
	n := 1
	if fate == Dup {
		n = 2
	}
	for i := 0; i < n; i++ {
		select {
		case l.ch <- p:
		case <-abort:
			return false
		}
	}
	return true
}

// Recv returns the next fresh payload. It discards duplicates, sleeps
// out injected delays, and — when timeout elapses with nothing fresh
// (the dropped-message case) — recovers the sender's retained copy
// from the retransmit buffer. A zero timeout waits forever (the
// fault-free configuration). Returns ok=false when abort closes or a
// timed-out recovery finds no retained payload (peer death).
func (l *Link[T]) Recv(timeout time.Duration, abort <-chan struct{}) (T, bool) {
	var zero T
	for {
		var timer *time.Timer
		var expired <-chan time.Time
		if timeout > 0 {
			timer = time.NewTimer(timeout)
			expired = timer.C
		}
		got, st := l.recvOne(expired, abort)
		if timer != nil {
			timer.Stop()
		}
		switch st {
		case recvFresh:
			return got, true
		case recvAborted:
			return zero, false
		case recvTimedOut:
			return l.retransmit()
		}
		// duplicate: loop and wait again with a fresh timer
	}
}

// retransmit is Recv's timeout path. Nothing fresh arrived: the
// message was dropped (pull the retransmit buffer) or the peer is dead
// (give up and let the heartbeat layer handle it).
func (l *Link[T]) retransmit() (T, bool) {
	var zero T
	l.mu.Lock()
	if !l.haveLast || l.lastSeq <= l.recvSeq {
		l.mu.Unlock()
		return zero, false
	}
	payload, seq := l.last, l.lastSeq
	l.recvSeq = seq
	l.mu.Unlock()
	l.in.NoteRetransmit(l.from, l.to, seq)
	return payload, true
}

// recvStatus is the outcome of one recvOne wait.
type recvStatus int

const (
	recvFresh    recvStatus = iota // a payload not accepted before
	recvStale                      // a duplicate, discarded
	recvAborted                    // abort closed
	recvTimedOut                   // the timer fired first
)

// recvOne waits for one delivery.
func (l *Link[T]) recvOne(expired <-chan time.Time, abort <-chan struct{}) (T, recvStatus) {
	var zero T
	select {
	case p := <-l.ch:
		if !p.notBefore.IsZero() {
			if d := time.Until(p.notBefore); d > 0 {
				time.Sleep(d)
			}
		}
		l.mu.Lock()
		stale := p.seq <= l.recvSeq
		if !stale {
			l.recvSeq = p.seq
		}
		l.mu.Unlock()
		if stale {
			return zero, recvStale
		}
		return p.payload, recvFresh
	case <-expired:
		return zero, recvTimedOut
	case <-abort:
		return zero, recvAborted
	}
}
