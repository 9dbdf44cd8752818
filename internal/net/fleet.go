package net

// fleet.go is the coordinator half of the process-fleet protocol. A
// Coordinator listens on one transport address and supervises a fixed
// set of ranks:
//
//   - registration: a worker's first frame is a hello (proto, rank,
//     pid, and the address its peers can reach it at, if it has one);
//     the coordinator answers with a welcome carrying the lease
//     duration, so workers need no out-of-band timing configuration.
//   - heartbeat leases: every frame from a worker refreshes its lease;
//     a worker silent for a full lease is declared dead and its
//     connection is severed. Death is also detected eagerly when the
//     connection itself breaks (a SIGKILLed process closes its socket).
//   - respawn supervision: with a Spawn hook, each dead rank is
//     relaunched under capped exponential backoff with deterministic
//     jitter; MaxRespawns consecutive launches that never register
//     declare the rank permanently lost, and the application degrades
//     gracefully (the ghost coordinator computes the lost block
//     itself; mapreduce reassigns or inlines the tasks).
//   - idempotent rejoin: the coordinator only reports Joined/Dead/Lost
//     transitions and delivers frames; the application layer answers a
//     rejoin by re-sending the rank's state or task, which the
//     deterministic substrates make safe to recompute.
//   - clean retirement: Stop marks every rank retiring before it sends
//     the application's stop message, so the exits that follow are not
//     deaths and the supervisor launches nothing for them.
//
// Everything the application sees arrives on one Events channel, so
// protocol state machines stay single-threaded.

import (
	"fmt"
	"os"
	"sync"
	"time"

	"repro/internal/ckpt"
	"repro/internal/obs"
)

// EventKind classifies a fleet event.
type EventKind uint8

const (
	// PeerJoined: the rank registered (Rejoin reports whether it had
	// been connected before — a reconnection rather than a first join).
	PeerJoined EventKind = iota
	// PeerDead: the rank's connection broke or its lease expired.
	PeerDead
	// PeerLost: the supervisor exhausted MaxRespawns consecutive
	// launches without a registration; the rank will not come back.
	PeerLost
	// PeerMsg: an application frame from the rank.
	PeerMsg
)

// deathCause says why the coordinator declared a worker dead. The
// "worker dead" log event carries it as its integer "cause" field:
// 1 connection broke, 2 lease expired, 3 welcome failed.
type deathCause int64

const (
	// causeConnBroke: reading the worker's connection failed.
	causeConnBroke deathCause = iota + 1
	// causeLeaseExpired: the worker sent nothing for a whole lease.
	causeLeaseExpired
	// causeWelcomeFailed: the welcome frame could not be sent.
	causeWelcomeFailed
)

func (c deathCause) String() string {
	switch c {
	case causeConnBroke:
		return "connection broke"
	case causeLeaseExpired:
		return "lease expired"
	case causeWelcomeFailed:
		return "welcome failed"
	}
	return fmt.Sprintf("deathCause(%d)", int64(c))
}

// Event is one fleet occurrence, delivered on Coordinator.Events.
type Event struct {
	Rank   int
	Kind   EventKind
	Rejoin bool   // PeerJoined only
	Addr   string // PeerJoined only: the worker's peer address, "" if none
	Msg    Msg    // PeerMsg only
}

// FleetConfig configures a Coordinator.
type FleetConfig struct {
	Transport Transport
	// Listen is the bind address ("" picks a sensible default for the
	// scheme where possible; tcp accepts ":0").
	Listen  string
	Workers int
	// Proto names the application protocol (e.g. "ghost/3"); hellos
	// carrying a different name are rejected.
	Proto string
	// Lease is the heartbeat lease (default 2s): a worker silent this
	// long is dead. Workers heartbeat at a third of it.
	Lease time.Duration
	// JoinTimeout bounds how long a spawned worker may take to
	// register before the launch counts as failed (default 3x Lease).
	JoinTimeout time.Duration
	// Backoff paces respawns (and is echoed to nothing else); the zero
	// value means 50ms base, 5s cap.
	Backoff Backoff
	// Spawn launches the worker process (or goroutine) for a rank,
	// pointed at addr. nil disables supervision: workers join on their
	// own and dead ranks simply wait for a reconnection.
	Spawn func(rank int, addr string) error
	// MaxRespawns caps consecutive launches that never register before
	// the rank is declared lost (default 8). A successful registration
	// resets the count — a crash-looping worker is respawned forever,
	// which is exactly what the chaos harness exercises.
	MaxRespawns int
	Obs         obs.Sink
}

// ErrNotConnected is returned by Coordinator.Send for a rank with no
// live connection; the caller re-sends after the next PeerJoined.
var ErrNotConnected = fmt.Errorf("net: rank not connected")

// peer is the coordinator's per-rank state.
type peer struct {
	rank        int
	conn        Conn // nil while disconnected
	incarnation int  // bumps per registration; stale readers detect themselves
	lastSeen    time.Time
	everJoined  bool
	lost        bool
	retiring    bool          // Stop was called: an exit is the clean end, not a death
	joinHint    chan struct{} // buffered-1 nudges for the supervisor;
	deadHint    chan struct{} // authoritative state lives under mu
}

// FleetStats is a snapshot of the coordinator's transport counters.
type FleetStats struct {
	Sent, Received           int64 // application frames
	BytesSent, BytesReceived int64
	Heartbeats               int64
	Rejoins                  int64
	Respawns                 int64
	LeaseExpired             int64
	Deaths                   int64
	Lost                     int64
}

// Coordinator supervises a fleet of ranks over one listener.
type Coordinator struct {
	cfg    FleetConfig
	ln     Listener
	events chan Event
	done   chan struct{}
	wg     sync.WaitGroup

	mu     sync.Mutex
	peers  []*peer
	closed bool
	stats  FleetStats
}

// NewCoordinator binds the listener and starts the accept loop, lease
// checker, and (with a Spawn hook) one supervisor per rank. Callers
// drive the run off Events and must call Close when done.
func NewCoordinator(cfg FleetConfig) (*Coordinator, error) {
	if cfg.Transport == nil {
		return nil, fmt.Errorf("net: coordinator needs a transport")
	}
	if cfg.Workers <= 0 {
		return nil, fmt.Errorf("net: coordinator needs Workers >= 1, got %d", cfg.Workers)
	}
	if cfg.Lease <= 0 {
		cfg.Lease = 2 * time.Second
	}
	if cfg.JoinTimeout <= 0 {
		cfg.JoinTimeout = 3 * cfg.Lease
	}
	if cfg.MaxRespawns <= 0 {
		cfg.MaxRespawns = 8
	}
	ln, err := cfg.Transport.Listen(cfg.Listen)
	if err != nil {
		return nil, err
	}
	c := &Coordinator{
		cfg:    cfg,
		ln:     ln,
		events: make(chan Event, 64+16*cfg.Workers),
		done:   make(chan struct{}),
		peers:  make([]*peer, cfg.Workers),
	}
	for i := range c.peers {
		c.peers[i] = &peer{
			rank:     i,
			joinHint: make(chan struct{}, 1),
			deadHint: make(chan struct{}, 1),
		}
	}
	c.wg.Add(2)
	go c.acceptLoop()
	go c.leaseLoop()
	if cfg.Spawn != nil {
		for i := 0; i < cfg.Workers; i++ {
			c.wg.Add(1)
			go c.supervise(i)
		}
	}
	return c, nil
}

// Addr is the bound listen address workers should join.
func (c *Coordinator) Addr() string { return c.ln.Addr() }

// Events delivers joins, deaths, losses, and application frames in
// arrival order. The channel is never closed before Close returns.
func (c *Coordinator) Events() <-chan Event { return c.events }

// Stats snapshots the transport counters.
func (c *Coordinator) Stats() FleetStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// Send delivers an application frame to a rank, or ErrNotConnected.
// A send error means the connection is going down; the caller will see
// a PeerDead event and can re-send after the rejoin.
func (c *Coordinator) Send(rank int, m Msg) error {
	c.mu.Lock()
	p := c.peers[rank]
	conn := p.conn
	c.mu.Unlock()
	if conn == nil {
		return fmt.Errorf("%w: rank %d", ErrNotConnected, rank)
	}
	if err := conn.Send(m); err != nil {
		return err
	}
	c.mu.Lock()
	c.stats.Sent++
	c.stats.BytesSent += int64(len(m.Payload))
	c.mu.Unlock()
	c.count("net.frames_sent", 1)
	c.count("net.bytes_sent", int64(len(m.Payload)))
	return nil
}

// Stop retires the fleet: under mu every rank is marked retiring, then
// m, the application's stop message, is sent to each live connection,
// best effort. A retiring rank's later exit emits no PeerDead, counts
// no death, and triggers no Spawn; a retiring rank's hello is refused.
// Close is still needed to tear the fleet down.
func (c *Coordinator) Stop(m Msg) {
	c.mu.Lock()
	var live []int
	for _, p := range c.peers {
		p.retiring = true
		if p.conn != nil {
			live = append(live, p.rank)
		}
	}
	c.mu.Unlock()
	for _, rank := range live {
		c.Send(rank, m) // best effort: a rank already gone needs no stop
	}
}

// Connected reports whether the rank currently holds a live
// registered connection.
func (c *Coordinator) Connected(rank int) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.peers[rank].conn != nil
}

// Close tears the fleet down: listener and every live connection are
// closed (workers see a clean close marker), supervisors stop, and the
// events channel is closed once all internal goroutines have exited.
func (c *Coordinator) Close() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		c.wg.Wait()
		return
	}
	c.closed = true
	conns := make([]Conn, 0, len(c.peers))
	for _, p := range c.peers {
		if p.conn != nil {
			conns = append(conns, p.conn)
			p.conn = nil
		}
	}
	c.mu.Unlock()
	close(c.done)
	c.ln.Close()
	for _, conn := range conns {
		conn.Close()
	}
	c.wg.Wait()
	close(c.events)
}

// emit delivers an event unless the coordinator is shutting down.
func (c *Coordinator) emit(ev Event) {
	select {
	case c.events <- ev:
	case <-c.done:
	}
}

func (c *Coordinator) count(name string, delta int64) {
	if m := c.cfg.Obs.Metrics; m != nil {
		m.Counter(name).Add(delta)
	}
}

func (c *Coordinator) log(level obs.Level, msg string, args ...obs.Arg) {
	c.cfg.Obs.Log.Event(level, "net", msg, args...) // nil-safe
}

func (c *Coordinator) acceptLoop() {
	defer c.wg.Done()
	for {
		conn, err := c.ln.Accept()
		if err != nil {
			return // listener closed
		}
		c.wg.Add(1)
		go c.register(conn)
	}
}

// register runs the hello/welcome handshake on a fresh connection and
// installs it as its rank's live conn.
func (c *Coordinator) register(conn Conn) {
	defer c.wg.Done()
	m, err := conn.Recv(c.cfg.JoinTimeout)
	if err != nil || m.Type != frameHello {
		conn.Close()
		return
	}
	dec := ckpt.NewDec(m.Payload)
	proto := dec.Str()
	rank := int(dec.I64())
	pid := dec.I64()
	var addr string
	if len(dec.Rest()) > 0 {
		addr = dec.Str()
	}
	if dec.Err() != nil || proto != c.cfg.Proto || rank < 0 || rank >= c.cfg.Workers {
		c.log(obs.LevelWarn, "rejected hello",
			obs.Arg{Key: "rank", Value: int64(rank)})
		conn.Close()
		return
	}

	c.mu.Lock()
	p := c.peers[rank]
	if c.closed || p.lost || p.retiring {
		c.mu.Unlock()
		conn.Close()
		return
	}
	old := p.conn
	p.conn = conn
	p.incarnation++
	inc := p.incarnation
	p.lastSeen = time.Now()
	rejoin := p.everJoined
	p.everJoined = true
	if rejoin {
		c.stats.Rejoins++
	}
	c.mu.Unlock()

	if old != nil {
		old.Close() // a reconnect supersedes the stale conn
	}
	var e ckpt.Enc
	e.I64(int64(c.cfg.Lease / time.Millisecond))
	if err := conn.Send(Msg{Type: frameWelcome, Payload: e.Bytes()}); err != nil {
		c.peerDown(p, conn, inc, causeWelcomeFailed)
		return
	}
	select {
	case p.joinHint <- struct{}{}:
	default:
	}
	if rejoin {
		c.count("net.rejoins", 1)
		c.log(obs.LevelInfo, "worker rejoined",
			obs.Arg{Key: "rank", Value: int64(rank)},
			obs.Arg{Key: "pid", Value: pid},
			obs.Arg{Key: "incarnation", Value: int64(inc)})
	} else {
		c.log(obs.LevelInfo, "worker joined",
			obs.Arg{Key: "rank", Value: int64(rank)},
			obs.Arg{Key: "pid", Value: pid})
	}
	c.emit(Event{Rank: rank, Kind: PeerJoined, Rejoin: rejoin, Addr: addr})
	c.reader(p, conn, inc)
}

// reader pumps one registered connection until it dies.
func (c *Coordinator) reader(p *peer, conn Conn, inc int) {
	for {
		m, err := conn.Recv(0)
		if err != nil {
			c.peerDown(p, conn, inc, causeConnBroke)
			return
		}
		c.mu.Lock()
		if p.conn == conn && p.incarnation == inc {
			p.lastSeen = time.Now()
		}
		c.mu.Unlock()
		switch {
		case m.Type == frameHeartbeat:
			c.mu.Lock()
			c.stats.Heartbeats++
			c.mu.Unlock()
		case m.Type >= FrameApp:
			c.mu.Lock()
			c.stats.Received++
			c.stats.BytesReceived += int64(len(m.Payload))
			c.mu.Unlock()
			c.count("net.frames_recv", 1)
			c.count("net.bytes_recv", int64(len(m.Payload)))
			c.emit(Event{Rank: p.rank, Kind: PeerMsg, Msg: m})
		}
	}
}

// peerDown records a death if (conn, inc) is still the rank's live
// incarnation; stale calls (a reader noticing a conn the lease checker
// already severed, or shutdown) are no-ops beyond closing the conn. A
// retiring rank's exit only clears the conn.
func (c *Coordinator) peerDown(p *peer, conn Conn, inc int, cause deathCause) {
	c.mu.Lock()
	if c.closed || p.conn != conn || p.incarnation != inc {
		c.mu.Unlock()
		conn.Close()
		return
	}
	p.conn = nil
	retiring := p.retiring
	if !retiring {
		c.stats.Deaths++
	}
	c.mu.Unlock()
	conn.Close()
	if retiring {
		return
	}
	select {
	case p.deadHint <- struct{}{}:
	default:
	}
	c.count("net.deaths", 1)
	c.log(obs.LevelWarn, "worker dead",
		obs.Arg{Key: "rank", Value: int64(p.rank)},
		obs.Arg{Key: "incarnation", Value: int64(inc)},
		obs.Arg{Key: "cause", Value: int64(cause)})
	c.emit(Event{Rank: p.rank, Kind: PeerDead})
}

// leaseLoop expires silent workers and heartbeats the live ones (so
// workers can use a symmetric idle timeout on their side).
func (c *Coordinator) leaseLoop() {
	defer c.wg.Done()
	tick := time.NewTicker(c.cfg.Lease / 4)
	defer tick.Stop()
	for {
		select {
		case <-c.done:
			return
		case <-tick.C:
		}
		now := time.Now()
		type victim struct {
			p    *peer
			conn Conn
			inc  int
		}
		var expired []victim
		var live []Conn
		c.mu.Lock()
		for _, p := range c.peers {
			if p.conn == nil {
				continue
			}
			if now.Sub(p.lastSeen) > c.cfg.Lease {
				expired = append(expired, victim{p, p.conn, p.incarnation})
			} else {
				live = append(live, p.conn)
			}
		}
		c.mu.Unlock()
		for _, v := range expired {
			c.mu.Lock()
			c.stats.LeaseExpired++
			c.mu.Unlock()
			c.count("net.lease_expired", 1)
			c.log(obs.LevelWarn, "worker lease expired",
				obs.Arg{Key: "rank", Value: int64(v.p.rank)})
			c.peerDown(v.p, v.conn, v.inc, causeLeaseExpired)
		}
		for _, conn := range live {
			conn.Send(Msg{Type: frameHeartbeat}) // best effort
		}
	}
}

// supervise keeps one rank populated: spawn, wait for registration,
// wait for death, repeat — with jittered exponential backoff between
// consecutive launches that never register, and a PeerLost verdict
// after MaxRespawns of them.
func (c *Coordinator) supervise(rank int) {
	defer c.wg.Done()
	p := c.peers[rank]
	attempt := 0
	for {
		select {
		case <-c.done:
			return
		default:
		}
		c.mu.Lock()
		retiring := p.retiring
		c.mu.Unlock()
		if retiring {
			return
		}
		if c.Connected(rank) {
			// Wait for a death hint, then re-check authoritative state.
			select {
			case <-p.deadHint:
			case <-c.done:
				return
			}
			continue
		}
		attempt++
		if attempt > c.cfg.MaxRespawns {
			c.mu.Lock()
			p.lost = true
			c.stats.Lost++
			c.mu.Unlock()
			c.count("net.workers_lost", 1)
			c.log(obs.LevelError, "worker lost",
				obs.Arg{Key: "rank", Value: int64(rank)},
				obs.Arg{Key: "launches", Value: int64(attempt - 1)})
			c.emit(Event{Rank: rank, Kind: PeerLost})
			return
		}
		if attempt > 1 {
			delay := c.cfg.Backoff.Delay(fmt.Sprintf("respawn:%d", rank), attempt-1)
			select {
			case <-time.After(delay):
			case <-c.done:
				return
			}
		}
		c.mu.Lock()
		if p.retiring { // Stop landed during the backoff
			c.mu.Unlock()
			return
		}
		c.stats.Respawns++
		c.mu.Unlock()
		c.count("net.respawns", 1)
		c.log(obs.LevelInfo, "spawning worker",
			obs.Arg{Key: "rank", Value: int64(rank)},
			obs.Arg{Key: "attempt", Value: int64(attempt)})
		if err := c.cfg.Spawn(rank, c.Addr()); err != nil {
			c.log(obs.LevelError, "spawn failed",
				obs.Arg{Key: "rank", Value: int64(rank)})
			continue
		}
		select {
		case <-p.joinHint:
			attempt = 0 // registered: only consecutive failures count
		case <-time.After(c.cfg.JoinTimeout):
		case <-c.done:
			return
		}
	}
}

// helloPayload encodes a worker's registration. The peer address is
// appended only when there is one, so a worker without peers sends the
// hello TestFrameGolden pins and older coordinators accept.
func helloPayload(proto string, rank int, addr string) []byte {
	var e ckpt.Enc
	e.Str(proto)
	e.I64(int64(rank))
	e.I64(int64(os.Getpid()))
	if addr != "" {
		e.Str(addr)
	}
	return e.Bytes()
}
