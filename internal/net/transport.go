package net

// transport.go defines the transport abstraction and its socket
// implementation. A Transport makes Listeners and dials Conns; a Conn
// moves typed frames. The socket transport runs the frame codec over
// TCP or Unix stream sockets; chan.go provides the in-process fast
// path behind the same interface, so substrates pick per run without
// code changes.

import (
	"bufio"
	"errors"
	"fmt"
	gonet "net"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"
)

// Msg is one application message: a frame type (>= FrameApp) and its
// payload. Payload encoding is the application's business — the ghost
// and mapreduce protocols use the ckpt codec.
type Msg struct {
	Type    uint8
	Payload []byte
}

// ErrTimeout is returned by Conn.Recv when the timeout elapses with no
// frame; the connection is still usable.
var ErrTimeout = fmt.Errorf("net: receive timed out")

// Conn is one framed, bidirectional connection. Send is safe for
// concurrent use (heartbeats and application traffic share a conn) and
// does not retain m.Payload once it returns; Recv must be called from
// one goroutine at a time.
type Conn interface {
	Send(m Msg) error
	// Recv returns the next application or control frame. timeout 0
	// blocks forever; otherwise ErrTimeout after the deadline.
	Recv(timeout time.Duration) (Msg, error)
	// Close sends the close marker (best effort) and tears down the
	// connection. Idempotent.
	Close() error
	RemoteAddr() string
}

// RecvInto is c.Recv with the frame read into buf's array when it is
// big enough. A caller that decodes each payload before its next read
// passes back the last one, and a steady stream of same-sized frames
// then allocates nothing; one that keeps payloads calls Recv. Conns
// without a buffered receive path (chan, wrappers) fall back to Recv.
func RecvInto(c Conn, timeout time.Duration, buf []byte) (Msg, error) {
	if r, ok := c.(interface {
		recvInto(time.Duration, []byte) (Msg, error)
	}); ok {
		return r.recvInto(timeout, buf)
	}
	return c.Recv(timeout)
}

// Listener accepts inbound Conns.
type Listener interface {
	Accept() (Conn, error)
	Close() error
	// Addr is the bound address in the transport's own notation —
	// handed to workers as their -join target.
	Addr() string
}

// Transport binds and dials one address family.
type Transport interface {
	Scheme() string
	Listen(addr string) (Listener, error)
	Dial(addr string) (Conn, error)
}

// New returns the transport for a scheme: "tcp", "unix", or "chan".
func New(scheme string) (Transport, error) {
	switch scheme {
	case "tcp", "unix":
		return &sockTransport{network: scheme}, nil
	case "chan":
		return ChanTransport{}, nil
	}
	return nil, fmt.Errorf("net: unknown transport %q (want tcp, unix, or chan)", scheme)
}

// peerSeq numbers this process's peer listeners, so each gets a name
// of its own.
var peerSeq atomic.Int64

// PeerListen binds a listener for a fleet worker's peers, placed by
// the coordinator address join in tr's own notation: a unix socket in
// the coordinator socket's directory, named for this process; an
// ephemeral port on the coordinator's host for tcp; a fresh name under
// join on chan. Its Addr is what the worker announces in its hello.
func PeerListen(tr Transport, join string) (Listener, error) {
	n := peerSeq.Add(1)
	switch tr.Scheme() {
	case "unix":
		path := filepath.Join(filepath.Dir(join), fmt.Sprintf("peer-%d-%d.sock", os.Getpid(), n))
		// The name is this process's, so a file already there was left
		// by a dead process that had the same pid.
		os.Remove(path)
		return tr.Listen(path)
	case "tcp":
		host, _, err := gonet.SplitHostPort(join)
		if err != nil {
			return nil, fmt.Errorf("net: peer listen near %q: %w", join, err)
		}
		return tr.Listen(gonet.JoinHostPort(host, "0"))
	}
	return tr.Listen(fmt.Sprintf("%s/peer-%d", join, n))
}

// dialTimeout bounds a single socket connect; reconnect policy above
// this layer decides how often to try again.
const dialTimeout = 5 * time.Second

type sockTransport struct{ network string }

func (t *sockTransport) Scheme() string { return t.network }

func (t *sockTransport) Listen(addr string) (Listener, error) {
	ln, err := gonet.Listen(t.network, addr)
	if err != nil {
		return nil, fmt.Errorf("net: listen %s %s: %w", t.network, addr, err)
	}
	return &sockListener{ln: ln}, nil
}

func (t *sockTransport) Dial(addr string) (Conn, error) {
	c, err := gonet.DialTimeout(t.network, addr, dialTimeout)
	if err != nil {
		return nil, fmt.Errorf("net: dial %s %s: %w", t.network, addr, err)
	}
	if tc, ok := c.(*gonet.TCPConn); ok {
		tc.SetNoDelay(true) // round-trip latency matters more than packing
	}
	return newSockConn(c), nil
}

type sockListener struct{ ln gonet.Listener }

func (l *sockListener) Accept() (Conn, error) {
	c, err := l.ln.Accept()
	if err != nil {
		return nil, err
	}
	if tc, ok := c.(*gonet.TCPConn); ok {
		tc.SetNoDelay(true)
	}
	return newSockConn(c), nil
}

func (l *sockListener) Close() error { return l.ln.Close() }
func (l *sockListener) Addr() string { return l.ln.Addr().String() }

// sockConn frames a stream socket. The write mutex serializes the
// heartbeat goroutine with application sends, and guards the buffer
// every frame is assembled in; reads buffer through bufio so small
// frames don't pay a syscall per header. A body at least as big as the
// read buffer bypasses it, straight into the payload, so the buffer
// only needs to hold a few small frames.
type sockConn struct {
	c  gonet.Conn
	br *bufio.Reader

	wmu    sync.Mutex
	wbuf   []byte // the last frame sent; its array is reused
	closed bool
	once   sync.Once
}

func newSockConn(c gonet.Conn) *sockConn {
	return &sockConn{c: c, br: bufio.NewReaderSize(c, 4<<10)}
}

func (s *sockConn) Send(m Msg) error {
	s.wmu.Lock()
	defer s.wmu.Unlock()
	if s.closed {
		return ErrPeerClosed
	}
	frame, err := frameFormat.Append(s.wbuf[:0], uint64(m.Type), m.Payload)
	if err != nil {
		return err
	}
	s.wbuf = frame
	_, err = s.c.Write(frame)
	return err
}

func (s *sockConn) Recv(timeout time.Duration) (Msg, error) { return s.recvInto(timeout, nil) }

func (s *sockConn) recvInto(timeout time.Duration, buf []byte) (Msg, error) {
	var deadline time.Time
	if timeout > 0 {
		deadline = time.Now().Add(timeout)
	}
	if err := s.c.SetReadDeadline(deadline); err != nil {
		return Msg{}, err
	}
	typ, payload, err := readFrameInto(s.br, buf)
	if err != nil {
		var ne gonet.Error
		if errors.As(err, &ne) && ne.Timeout() {
			return Msg{}, ErrTimeout
		}
		return Msg{}, err
	}
	return Msg{Type: typ, Payload: payload}, nil
}

func (s *sockConn) Close() error {
	s.once.Do(func() {
		// The deadline comes first: a Send blocked on a peer that does
		// not read then gives the lock up within a second.
		s.c.SetWriteDeadline(time.Now().Add(time.Second))
		s.wmu.Lock()
		if !s.closed {
			s.closed = true
			// Best-effort close marker so the peer sees a clean shutdown
			// rather than a truncation.
			writeFrame(s.c, frameClose, nil)
		}
		s.wmu.Unlock()
		s.c.Close()
	})
	return nil
}

func (s *sockConn) RemoteAddr() string { return s.c.RemoteAddr().String() }
