package ghost

// Deterministic tests for the ways a fleet rank loses its resident
// block. A hookTransport on the coordinator's side sees every frame
// of every rank's connections and can hold or fail one, which pins the
// event orders that otherwise only show up under load.

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/ckpt"
	"repro/internal/grid"
	pnet "repro/internal/net"
	"repro/internal/obs"
)

// hookTransport wraps the chan transport's listening side. Accepted
// connections learn their rank from the hello and count incarnations
// per rank; the hooks run inside the coordinator's own goroutines.
type hookTransport struct {
	pnet.Transport
	// recv runs after a frame is read, before the coordinator sees it.
	recv func(c *hookConn, m pnet.Msg)
	// send runs before a frame is written; an error fails the send.
	send func(c *hookConn, m pnet.Msg) error
	// sent runs after a frame is written.
	sent func(c *hookConn, m pnet.Msg)

	mu   sync.Mutex
	incs map[int]int
}

type hookConn struct {
	pnet.Conn
	t         *hookTransport
	rank, inc int // set by the hello; inc counts from 1 per rank
}

func (t *hookTransport) Listen(addr string) (pnet.Listener, error) {
	ln, err := t.Transport.Listen(addr)
	if err != nil {
		return nil, err
	}
	return &hookListener{Listener: ln, t: t}, nil
}

type hookListener struct {
	pnet.Listener
	t *hookTransport
}

func (l *hookListener) Accept() (pnet.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &hookConn{Conn: c, t: l.t, rank: -1}, nil
}

func (c *hookConn) ident() (rank, inc int) {
	c.t.mu.Lock()
	defer c.t.mu.Unlock()
	return c.rank, c.inc
}

func (c *hookConn) Recv(timeout time.Duration) (pnet.Msg, error) {
	m, err := c.Conn.Recv(timeout)
	if err != nil {
		return m, err
	}
	if rank, _ := c.ident(); rank < 0 {
		// The first frame is the hello: proto, rank, pid.
		d := ckpt.NewDec(m.Payload)
		d.Str()
		rank := int(d.I64())
		c.t.mu.Lock()
		if c.t.incs == nil {
			c.t.incs = map[int]int{}
		}
		c.t.incs[rank]++
		c.rank, c.inc = rank, c.t.incs[rank]
		c.t.mu.Unlock()
	}
	if c.t.recv != nil && m.Type >= pnet.FrameApp {
		c.t.recv(c, m)
	}
	return m, nil
}

func (c *hookConn) Send(m pnet.Msg) error {
	if c.t.send != nil {
		if err := c.t.send(c, m); err != nil {
			return err
		}
	}
	if err := c.Conn.Send(m); err != nil {
		return err
	}
	if c.t.sent != nil {
		c.t.sent(c, m)
	}
	return nil
}

// oneDial dials once; later dials fail, so a superseded worker gives
// up instead of reconnecting.
type oneDial struct {
	pnet.Transport
	used atomic.Bool
}

func (o *oneDial) Dial(addr string) (pnet.Conn, error) {
	if o.used.Load() {
		return nil, errors.New("test: no redial")
	}
	c, err := o.Transport.Dial(addr)
	if err == nil {
		o.used.Store(true)
	}
	return c, err
}

// sendWatch calls on for every frame a worker sends.
type sendWatch struct {
	pnet.Transport
	on func(m pnet.Msg)
}

func (w *sendWatch) Dial(addr string) (pnet.Conn, error) {
	c, err := w.Transport.Dial(addr)
	if err != nil {
		return nil, err
	}
	return &watchConn{Conn: c, on: w.on}, nil
}

type watchConn struct {
	pnet.Conn
	on func(m pnet.Msg)
}

func (c *watchConn) Send(m pnet.Msg) error {
	c.on(m)
	return c.Conn.Send(m)
}

// hdr reads a ghost frame's (generation, round).
func hdr(m pnet.Msg) (gen, round int) {
	gen, round, _, _ = readHeader(m.Payload)
	return gen, round
}

// stateGrid is a workload of 42 rounds at K=2 over 3 strips, so a
// loss at round 5 lands after a commit and before the first snapshot.
func stateGrid() *grid.Grid {
	g := grid.New(30, 20)
	g.Row(15)[10] = 500
	return g
}

// The tests below bound each run with a 20 s context, so a rank that
// never comes back fails the test instead of hanging it.

// startWorker runs one rank incarnation and reports its exit.
func startWorker(ctx context.Context, tr pnet.Transport, addr string, rank, dials int) <-chan error {
	done := make(chan error, 1)
	go func() {
		done <- FleetWorker(ctx, pnet.WorkerConfig{
			Transport: tr, Join: addr, Rank: rank,
			Backoff:         pnet.Backoff{Base: time.Millisecond, Max: 10 * time.Millisecond},
			MaxDialAttempts: dials,
		})
	}()
	return done
}

// runState runs stateGrid over 3 strips at K=2 on fc and checks the
// fixed point, topples and work accounting against the in-process
// run. It returns the report and the run's metrics.
func runState(t *testing.T, ctx context.Context, fc *pnet.FleetConfig) (Report, *obs.Registry) {
	t.Helper()
	ref := stateGrid()
	want, err := New(ref, WithRanks(3), WithWidth(2)).Run()
	if err != nil {
		t.Fatal(err)
	}
	if want.Exchanges < 10 || want.Exchanges >= snapEvery {
		t.Fatalf("workload runs %d rounds; the tests need 10..%d", want.Exchanges, snapEvery-1)
	}
	m := obs.NewRegistry()
	g := stateGrid()
	rep, err := New(g, WithRanks(3), WithWidth(2), WithFleet(fc),
		WithObs(obs.Sink{Metrics: m})).RunContext(ctx)
	if err != nil {
		t.Fatalf("fleet run: %v", err)
	}
	if !g.Equal(ref) || rep.Topples != want.Topples || rep.Iterations != want.Iterations {
		t.Fatalf("fleet run diverged: topples %d want %d, iterations %d want %d",
			rep.Topples, want.Topples, rep.Iterations, want.Iterations)
	}
	return rep, m
}

const lossRound = 5

// TestFleetRejoinWithoutPeerDead: rank 1 re-registers while its old
// connection is alive, so the coordinator supersedes the stale conn and
// the old reader's peerDown is a no-op — no PeerDead is ever emitted.
// The rejoin alone must count as a loss and, rounds having committed,
// roll the run back.
func TestFleetRejoinWithoutPeerDead(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	chanTr, _ := pnet.New("chan")
	const addr = "ghost-state-supersede"
	welcomed := make(chan struct{})
	ht := &hookTransport{Transport: chanTr}
	var once, welcome sync.Once
	ht.recv = func(c *hookConn, m pnet.Msg) {
		rank, inc := c.ident()
		if _, r := hdr(m); rank == 1 && inc == 1 && m.Type == msgReport && r == lossRound {
			// Hold the report until the new incarnation is registered.
			once.Do(func() {
				startWorker(ctx, chanTr, addr, 1, 1000)
				<-welcomed
			})
		}
	}
	ht.sent = func(c *hookConn, m pnet.Msg) {
		if rank, inc := c.ident(); rank == 1 && inc == 2 {
			welcome.Do(func() { close(welcomed) }) // the first frame out
		}
	}
	for r := 0; r < 3; r++ {
		tr := chanTr
		if r == 1 {
			tr = &oneDial{Transport: chanTr}
		}
		startWorker(ctx, tr, addr, r, 1000)
	}
	rep, m := runState(t, ctx, &pnet.FleetConfig{Transport: ht, Listen: addr, Lease: time.Second})
	if d := m.Counter("net.deaths").Value(); d != 0 {
		t.Fatalf("net.deaths = %d; the superseded conn must not die", d)
	}
	if m.Counter("net.rejoins").Value() != 1 || rep.Recoveries != 1 {
		t.Fatalf("rejoins %d, recoveries %d; want 1 each", m.Counter("net.rejoins").Value(), rep.Recoveries)
	}
	if m.Counter("ghost.fleet.rollbacks").Value() != 1 {
		t.Fatalf("rollbacks = %d, want 1", m.Counter("ghost.fleet.rollbacks").Value())
	}
}

// TestFleetStepToFreshIncarnation: a step reaches rank 1's new
// incarnation before the coordinator has seen it join. The worker must
// answer "no state" and keep serving; the coordinator then treats the
// join as a loss and the stale "no state" as noise.
func TestFleetStepToFreshIncarnation(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	chanTr, _ := pnet.New("chan")
	const addr = "ghost-state-nostate"
	welcomed, noState := make(chan struct{}), make(chan struct{})
	var sawNoState atomic.Bool
	var fresh <-chan error
	ht := &hookTransport{Transport: chanTr}
	var once, welcome sync.Once
	ht.recv = func(c *hookConn, m pnet.Msg) {
		rank, inc := c.ident()
		if _, r := hdr(m); rank == 1 && inc == 1 && m.Type == msgReport && r == lossRound {
			once.Do(func() {
				watch := &sendWatch{Transport: chanTr, on: func(m pnet.Msg) {
					if m.Type == msgNoState && !sawNoState.Swap(true) {
						close(noState)
					}
				}}
				fresh = startWorker(ctx, watch, addr, 1, 1000)
				<-welcomed
			})
		}
	}
	ht.sent = func(c *hookConn, m pnet.Msg) {
		if rank, inc := c.ident(); rank == 1 && inc == 2 {
			// The welcome is out and the conn installed, but PeerJoined
			// waits until the worker has answered a step.
			welcome.Do(func() {
				close(welcomed)
				select {
				case <-noState:
				case <-time.After(5 * time.Second):
				}
			})
		}
	}
	for r := 0; r < 3; r++ {
		tr := chanTr
		if r == 1 {
			tr = &oneDial{Transport: chanTr}
		}
		startWorker(ctx, tr, addr, r, 1000)
	}
	start := time.Now()
	_, m := runState(t, ctx, &pnet.FleetConfig{Transport: ht, Listen: addr, Lease: time.Second})
	if !sawNoState.Load() {
		t.Fatal("the fresh incarnation never answered no state")
	}
	if el := time.Since(start); el > 3*time.Second {
		t.Fatalf("run took %v: the fresh incarnation must not wait out a lease", el)
	}
	if m.Counter("ghost.fleet.rollbacks").Value() != 1 {
		t.Fatalf("rollbacks = %d, want 1", m.Counter("ghost.fleet.rollbacks").Value())
	}
	select {
	case err := <-fresh:
		if err != nil {
			t.Fatalf("fresh incarnation exited with %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("fresh incarnation did not stop with the run")
	}
}

// TestFleetFailedSendRollsBack: the coordinator's step to rank 1 for
// round lossRound fails and the connection drops. The worker reconnects
// with its block intact, but rounds have committed since the snapshot,
// so the global grid is stale inside the blocks: the coordinator must
// roll back rather than seed rank 1 from it.
func TestFleetFailedSendRollsBack(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	chanTr, _ := pnet.New("chan")
	const addr = "ghost-state-sendfail"
	var failed atomic.Bool
	ht := &hookTransport{Transport: chanTr}
	ht.send = func(c *hookConn, m pnet.Msg) error {
		rank, _ := c.ident()
		if _, r := hdr(m); rank == 1 && m.Type == msgStep && r == lossRound && !failed.Swap(true) {
			c.Conn.Close()
			return errors.New("test: send failed")
		}
		return nil
	}
	for r := 0; r < 3; r++ {
		startWorker(ctx, chanTr, addr, r, 1000)
	}
	rep, m := runState(t, ctx, &pnet.FleetConfig{Transport: ht, Listen: addr, Lease: time.Second})
	if !failed.Load() {
		t.Fatal("no send failed")
	}
	// The reconnect may also be counted once more if the rollback's seed
	// reaches the new connection before its join is seen.
	if m.Counter("ghost.fleet.rollbacks").Value() != 1 || rep.Recoveries < 1 {
		t.Fatalf("rollbacks %d, recoveries %d; want 1 and at least 1",
			m.Counter("ghost.fleet.rollbacks").Value(), rep.Recoveries)
	}
}

// TestFleetReportedRankReseeded: in round 1, with nothing committed
// since the snapshot, rank 0 reports and then dies while rank 2's
// report is held back. The new incarnation is re-seeded from the
// global grid without a rollback, and the dead incarnation's report is
// uncounted: the work accounting still equals the in-process run's.
func TestFleetReportedRankReseeded(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	chanTr, _ := pnet.New("chan")
	const addr = "ghost-state-reseed"
	firstCtx, kill := context.WithCancel(ctx)
	reseeded := make(chan struct{})
	ht := &hookTransport{Transport: chanTr}
	var killOnce, holdOnce, seedOnce sync.Once
	ht.recv = func(c *hookConn, m pnet.Msg) {
		rank, inc := c.ident()
		if _, r := hdr(m); m.Type != msgReport || r != 1 {
			return
		}
		switch {
		case rank == 0 && inc == 1:
			killOnce.Do(kill) // the report is read; the death follows it
		case rank == 2:
			holdOnce.Do(func() {
				select {
				case <-reseeded:
				case <-time.After(5 * time.Second):
				}
			})
		}
	}
	ht.sent = func(c *hookConn, m pnet.Msg) {
		if rank, inc := c.ident(); rank == 0 && inc == 2 && m.Type == msgSeed {
			seedOnce.Do(func() { close(reseeded) })
		}
	}
	first := startWorker(firstCtx, chanTr, addr, 0, 1000)
	go func() {
		<-first
		startWorker(ctx, chanTr, addr, 0, 1000)
	}()
	for r := 1; r < 3; r++ {
		startWorker(ctx, chanTr, addr, r, 1000)
	}
	rep, m := runState(t, ctx, &pnet.FleetConfig{Transport: ht, Listen: addr, Lease: time.Second})
	select {
	case <-reseeded:
	default:
		t.Fatal("rank 0 was never re-seeded")
	}
	want, _ := New(stateGrid(), WithRanks(3), WithWidth(2)).Run()
	if rep.OwnedCells != want.OwnedCells || rep.RedundantCells != want.RedundantCells ||
		rep.Exchanges != want.Exchanges {
		t.Fatalf("accounting %+v, in-process %+v: the lost report was counted", rep, want)
	}
	if m.Counter("ghost.fleet.rollbacks").Value() != 0 || rep.Recoveries != 1 {
		t.Fatalf("rollbacks %d, recoveries %d; want 0 and 1",
			m.Counter("ghost.fleet.rollbacks").Value(), rep.Recoveries)
	}
}

// TestFleetLostAfterCommitRollsBack: rank 1's connection drops after
// it reports round lossRound, and it never comes back. Once the
// supervisor declares it lost, the coordinator serves its block itself
// — from the snapshot, since rounds have committed: every rank rolls
// back.
func TestFleetLostAfterCommitRollsBack(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	chanTr, _ := pnet.New("chan")
	const addr = "ghost-state-lost"
	ht := &hookTransport{Transport: chanTr}
	ht.recv = func(c *hookConn, m pnet.Msg) {
		if rank, _ := c.ident(); rank == 1 && m.Type == msgReport {
			if _, r := hdr(m); r == lossRound {
				c.Conn.Close() // the worker cannot redial
			}
		}
	}
	var spawned sync.Map
	fc := &pnet.FleetConfig{
		Transport: ht, Listen: addr, Lease: time.Second,
		JoinTimeout: 50 * time.Millisecond, MaxRespawns: 2,
		Backoff: pnet.Backoff{Base: 2 * time.Millisecond, Max: 10 * time.Millisecond},
		Spawn: func(rank int, addr string) error {
			if _, again := spawned.LoadOrStore(rank, true); again {
				return nil // rank 1 stays down; the others never die
			}
			var tr pnet.Transport = chanTr
			if rank == 1 {
				tr = &oneDial{Transport: chanTr}
			}
			startWorker(ctx, tr, addr, rank, 1)
			return nil
		},
	}
	rep, m := runState(t, ctx, fc)
	if m.Counter("net.workers_lost").Value() != 1 {
		t.Fatalf("workers lost = %d, want 1", m.Counter("net.workers_lost").Value())
	}
	if m.Counter("ghost.fleet.rollbacks").Value() != 1 || rep.Recoveries != 1 {
		t.Fatalf("rollbacks %d, recoveries %d; want 1 each",
			m.Counter("ghost.fleet.rollbacks").Value(), rep.Recoveries)
	}
}
