package ghost

// Deterministic tests for the ways a fleet generation loses a rank. A
// hookTransport on the coordinator's side sees every frame of every
// rank's connection and can hold or fail one, which pins the event
// orders that otherwise only show up under load. Each loss lands at
// the end of the first window, after which the run must roll back to
// the last committed window and still reach the in-process result.

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
	"repro/internal/sandpile"
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

// oneDial dials the coordinator once; later dials of it fail, so a
// superseded worker gives up instead of reconnecting. Its peers'
// addresses stay reachable.
type oneDial struct {
	pnet.Transport
	mu   sync.Mutex
	join string
}

func (o *oneDial) Dial(addr string) (pnet.Conn, error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if addr == o.join {
		return nil, errors.New("test: no redial")
	}
	c, err := o.Transport.Dial(addr)
	if err == nil && o.join == "" {
		o.join = addr
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

// firstReport reports whether m is a report of the first window.
func firstReport(m pnet.Msg) bool {
	_, end, _, _ := readHeader(m.Payload)
	return m.Type == msgReport && end == snapEvery
}

// stateGrid is a workload of 355 rounds at K=2 over 3 strips, so a
// loss at the end of the first window lands long before the run's end.
func stateGrid() *grid.Grid { return windowGrid() }

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

// runState runs stateGrid over 3 strips at K=2 on fc and checks every
// report field against the in-process run. It returns the report and
// the run's metrics.
func runState(t *testing.T, ctx context.Context, fc *pnet.FleetConfig) (Report, *obs.Registry) {
	t.Helper()
	want, err := New(stateGrid(), WithRanks(3), WithWidth(2)).Run()
	if err != nil {
		t.Fatal(err)
	}
	if want.Exchanges <= 2*snapEvery {
		t.Fatalf("workload runs %d rounds; the tests need more than %d", want.Exchanges, 2*snapEvery)
	}
	m := obs.NewRegistry()
	g, ref := stateGrid(), stateGrid()
	sandpile.StabilizeSyncSeq(ref)
	rep, err := New(g, WithRanks(3), WithWidth(2), WithFleet(fc),
		WithObs(obs.Sink{Metrics: m})).RunContext(ctx)
	if err != nil {
		t.Fatalf("fleet run: %v", err)
	}
	if !g.Equal(ref) || !sameReport(rep, want) {
		t.Fatalf("fleet run %+v diverged from the in-process %+v", rep, want)
	}
	return rep, m
}

// rollbacks is the number of generations a run seeded after its first.
func rollbacks(m *obs.Registry) int64 { return m.Counter("ghost.fleet.rollbacks").Value() }

// TestFleetRejoinWithoutPeerDead: rank 1 re-registers while its old
// connection is alive, so the coordinator supersedes the stale conn and
// the old reader's peerDown is a no-op — no PeerDead is ever emitted.
// The rejoin alone must make the generation stale: every rank is
// re-seeded, with rank 1's new peer address.
func TestFleetRejoinWithoutPeerDead(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	chanTr, _ := pnet.New("chan")
	const addr = "ghost-state-supersede"
	welcomed := make(chan struct{})
	ht := &hookTransport{Transport: chanTr}
	var once, welcome sync.Once
	ht.recv = func(c *hookConn, m pnet.Msg) {
		if rank, inc := c.ident(); rank == 1 && inc == 1 && firstReport(m) {
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
	if m.Counter("net.rejoins").Value() != 1 || rep.Recoveries != 1 || rollbacks(m) != 1 {
		t.Fatalf("rejoins %d, recoveries %d, rollbacks %d; want 1 each",
			m.Counter("net.rejoins").Value(), rep.Recoveries, rollbacks(m))
	}
}

// TestFleetGrantToFreshIncarnation: a grant reaches rank 1's new
// incarnation before the coordinator has seen it join. The worker must
// answer that it runs no window and keep serving; the coordinator then
// re-seeds on the join and drops the answer as stale.
func TestFleetGrantToFreshIncarnation(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	chanTr, _ := pnet.New("chan")
	const addr = "ghost-state-nostate"
	welcomed, aborted := make(chan struct{}), make(chan struct{})
	var sawAbort atomic.Bool
	var fresh <-chan error
	ht := &hookTransport{Transport: chanTr}
	var once, welcome sync.Once
	ht.recv = func(c *hookConn, m pnet.Msg) {
		if rank, inc := c.ident(); rank == 1 && inc == 1 && firstReport(m) {
			once.Do(func() {
				watch := &sendWatch{Transport: chanTr, on: func(m pnet.Msg) {
					if m.Type == msgAbort && !sawAbort.Swap(true) {
						close(aborted)
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
			// waits until the worker has answered a grant.
			welcome.Do(func() {
				close(welcomed)
				select {
				case <-aborted:
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
	if !sawAbort.Load() {
		t.Fatal("the fresh incarnation never answered the grant")
	}
	if el := time.Since(start); el > 3*time.Second {
		t.Fatalf("run took %v: the fresh incarnation must not wait out a lease", el)
	}
	if rollbacks(m) != 1 {
		t.Fatalf("rollbacks = %d, want 1", rollbacks(m))
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

// TestFleetFailedSendRollsBack: the coordinator's grant to rank 1 after
// the first window fails and the connection drops. The worker
// reconnects with its block intact, but the coordinator cannot know
// what it missed: every rank must be re-seeded from the committed
// window.
func TestFleetFailedSendRollsBack(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	chanTr, _ := pnet.New("chan")
	const addr = "ghost-state-sendfail"
	var failed atomic.Bool
	ht := &hookTransport{Transport: chanTr}
	ht.send = func(c *hookConn, m pnet.Msg) error {
		if rank, _ := c.ident(); rank == 1 && m.Type == msgGrant && !failed.Swap(true) {
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
	if rollbacks(m) != 1 || rep.Recoveries != 1 {
		t.Fatalf("rollbacks %d, recoveries %d; want 1 each", rollbacks(m), rep.Recoveries)
	}
}

// TestFleetReportedRankReseeded: rank 0 reports the first window and
// then dies while rank 2's report is held back. The window never
// commits: every rank is re-seeded from round 0, the new incarnation
// included, and the dead incarnation's report is uncounted, so the
// accounting still equals the in-process run's.
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
		if !firstReport(m) {
			return
		}
		switch rank, inc := c.ident(); {
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
	if rollbacks(m) != 1 || rep.Recoveries != 1 {
		t.Fatalf("rollbacks %d, recoveries %d; want 1 each", rollbacks(m), rep.Recoveries)
	}
}

// TestFleetLostAfterCommitRollsBack: rank 1's connection drops as it
// reports the first window, and it never comes back. Once the
// supervisor declares it lost, the coordinator serves its block itself,
// as a peer of the other two, from the last committed window.
func TestFleetLostAfterCommitRollsBack(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	chanTr, _ := pnet.New("chan")
	const addr = "ghost-state-lost"
	ht := &hookTransport{Transport: chanTr}
	ht.recv = func(c *hookConn, m pnet.Msg) {
		if rank, _ := c.ident(); rank == 1 && firstReport(m) {
			c.Conn.Close() // the worker cannot redial
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
	if rollbacks(m) != 1 || rep.Recoveries != 1 {
		t.Fatalf("rollbacks %d, recoveries %d; want 1 each", rollbacks(m), rep.Recoveries)
	}
}

// TestFleetNoProgress: rank 1's worker always exits early in its first
// window, so no generation ever commits one. The run must give up with
// ErrNoProgress, naming round 0, well before its deadline.
func TestFleetNoProgress(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	chanTr, _ := pnet.New("chan")
	started := map[int]bool{}
	var mu sync.Mutex
	fc := &pnet.FleetConfig{
		Transport: chanTr, Listen: "ghost-state-barren", Lease: time.Second,
		Backoff: pnet.Backoff{Base: time.Millisecond, Max: 5 * time.Millisecond},
		Spawn: func(rank int, addr string) error {
			mu.Lock()
			defer mu.Unlock()
			if rank != 1 {
				if !started[rank] {
					started[rank] = true
					startWorker(ctx, chanTr, addr, rank, 1000)
				}
				return nil
			}
			// Each incarnation of rank 1 exits once its seed is in.
			wctx, exit := context.WithCancel(ctx)
			startWorker(wctx, &seedWatch{Transport: chanTr, on: exit}, addr, 1, 1)
			return nil
		},
	}
	g := stateGrid()
	m := obs.NewRegistry()
	_, err := New(g, WithRanks(3), WithWidth(2), WithFleet(fc), WithObs(obs.Sink{Metrics: m})).RunContext(ctx)
	var np *NoProgressError
	if !errors.Is(err, ErrNoProgress) || !errors.As(err, &np) {
		t.Fatalf("run returned %v, want ErrNoProgress", err)
	}
	if ctx.Err() != nil {
		t.Fatal("the run gave up only at its deadline")
	}
	if np.Committed != 0 || np.Generations != maxBarren {
		t.Fatalf("gave up after %d generations at round %d, want %d at 0", np.Generations, np.Committed, maxBarren)
	}
	if m.Counter("ghost.fleet.no_progress").Value() != 1 {
		t.Fatal("no ghost.fleet.no_progress count")
	}
}

// seedWatch calls on once a worker has received a seed.
type seedWatch struct {
	pnet.Transport
	on func()
}

func (w *seedWatch) Dial(addr string) (pnet.Conn, error) {
	c, err := w.Transport.Dial(addr)
	if err != nil {
		return nil, err
	}
	return &seedConn{Conn: c, on: w.on}, nil
}

type seedConn struct {
	pnet.Conn
	on func()
}

func (c *seedConn) Recv(timeout time.Duration) (pnet.Msg, error) {
	m, err := c.Conn.Recv(timeout)
	if err == nil && m.Type == msgSeed {
		c.on()
	}
	return m, err
}
