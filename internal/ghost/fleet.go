package ghost

// fleet.go is the one rank runtime. A run's ranks are either
// goroutines the coordinator serves in its own process (the default),
// or fleet worker processes joined through internal/net (WithFleet),
// where a SIGKILL is a real lost peer that a broken connection or a
// heartbeat lease reveals.
//
// Ranks swap halos with their neighbours directly, as MPI ranks do.
// Once per generation the coordinator seeds every rank with its owned
// block and its neighbours. Two ranks in the coordinator's process are
// joined by a fault.Link each way, which carries []uint32 halos from
// two buffers filled by round parity, with no encoding. A fleet worker
// listens for its peers on the run's own transport (pnet.PeerListen),
// announces that address in its hello, and links to each neighbour
// over one pnet.Conn, which the rank reads itself. Each rank then runs
// rounds on its own: the classic two-phase exchange and K steps. First
// E/W halo columns are exchanged over the owned rows, then N/S rows
// over the full local width, so the columns just received carry the
// diagonal neighbours' corners along without diagonal messages.
//
// The coordinator only grants windows of rounds. A window ends at the
// next multiple of snapEvery, the next due durable checkpoint or the
// maxIters round, whichever comes first; under WithFaults every window
// is one round. At its end every rank reports the window's per-round
// (changes, redundant) counts and its owned block. The coordinator
// adds the counts and stops the run at the first round whose total is
// zero: that round is a fixed point, so the rounds computed after it
// left the blocks unchanged. Otherwise it installs the blocks, writes
// a due checkpoint and grants the next window. The global grid is thus
// whole at every window end, and the coordinator handles a few frames
// per rank per window, none per round.
//
// Commits happen only at window ends, and recovery has one path. A
// rank's death, rejoin or loss, an injected crash, or a window a rank
// aborts because a peer link broke, makes the generation stale. A
// rank that aborts closes its peer links, so the abort reaches every
// rank. Once every rank can be reached again, the coordinator re-seeds
// all of them from the last committed window under a new generation,
// with fresh peer links. A rank in the coordinator's process always
// reports or aborts its window, so an in-process run re-seeds as soon
// as every rank has, with no timer; injected crashes therefore replay
// exactly. Every frame carries (generation, round), so frames that
// outlive a re-seed are recognised and dropped, and the automaton's
// determinism makes the replay exact. A rank whose worker is lost for
// good is served by the coordinator process itself, as a peer like any
// other: the run degrades to fewer processes, never to a wrong answer.
// A run whose generations keep failing before they commit a window
// stops with ErrNoProgress.

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sync"
	"time"
	"unsafe"

	"repro/internal/ckpt"
	"repro/internal/fault"
	"repro/internal/grid"
	pnet "repro/internal/net"
	"repro/internal/obs"
)

// GhostProto names the fleet wire protocol version.
const GhostProto = "ghost/3"

// snapEvery bounds a window in rounds: how much work a lost rank can
// cost, against one report of every owned block per window.
const snapEvery = 64

// maxBarren is how many generations in a row may commit no window
// before a fleet run gives up with ErrNoProgress.
const maxBarren = 8

// Fleet application frame types. Every payload opens with a 12-byte
// header: the generation (u32) and the round (u64).
const (
	// msgSeed (coordinator -> worker): install a block at the header's
	// round, link to the neighbours and run the first window. After the
	// header: the window's end round (u64), the geometry (K, ownH, ownW,
	// gTop, gBot, gLeft, gRh as u32), one neighbour per ghost side in
	// side order (its rank as u32, then its address as a u32 length and
	// bytes), then the owned block, row-major.
	msgSeed uint8 = pnet.FrameApp + iota
	// msgGrant (coordinator -> worker): run the next window. The
	// header's round is the last committed one; after it, the window's
	// end round (u64).
	msgGrant
	// msgLink (worker -> worker): the first frame on a peer link, from
	// the higher rank. The header's round is the generation's base;
	// after it, the sender's rank (u32).
	msgLink
	// msgHalo (worker -> worker): the halo that opens the header's round,
	// row-major.
	msgHalo
	// msgReport (worker -> coordinator): the window that ends at the
	// header's round. After the header: its number of rounds n (u32), n
	// (changes, redundant) pairs (u64 each), then the owned block.
	msgReport
	// msgAbort (worker -> coordinator): the worker runs no window of the
	// header's generation any more: a peer link broke, or a grant
	// reached an incarnation that holds no block. Header only.
	msgAbort
	// msgStop (coordinator -> worker): the run is over; exit cleanly.
	msgStop
)

const (
	headerLen = 4 + 8
	geomLen   = 7 * 4
	pairLen   = 8 + 8
)

// The sides of a block, in the order of the two-phase exchange.
const (
	west = iota
	east
	north
	south
	nSides
)

// errMalformed is returned for a fleet payload whose length or
// geometry does not match its frame type.
var errMalformed = errors.New("ghost: malformed fleet message")

// ErrNoProgress is what a fleet run fails with, as a
// *NoProgressError, when maxBarren generations in a row have been
// seeded without committing a window.
var ErrNoProgress = errors.New("ghost: fleet run makes no progress")

// NoProgressError is the ErrNoProgress of one run.
type NoProgressError struct {
	Committed   int // the last committed round
	Generations int // generations in a row that committed no window
}

func (e *NoProgressError) Error() string {
	return fmt.Sprintf("%v: %d generations in a row committed no window after round %d",
		ErrNoProgress, e.Generations, e.Committed)
}

func (e *NoProgressError) Is(target error) bool { return target == ErrNoProgress }

// rect is a rectangle of rank-local cells: rows [y0,y1), columns
// [x0,x1).
type rect struct{ y0, y1, x0, x1 int }

func (r rect) cells() int { return (r.y1 - r.y0) * (r.x1 - r.x0) }

func (ge geom) owned() rect {
	return rect{ge.gTop, ge.gTop + ge.ownH, ge.gLeft, ge.gLeft + ge.ownW}
}

// halo returns the cells a rank sends to its neighbour on side s and
// the cells that neighbour's halo fills, rank-local; ok is false on a
// side without a neighbour. E/W halos span the owned rows and N/S
// halos the full local width.
func (ge geom) halo(s int) (out, in rect, ok bool) {
	o, K, W := ge.owned(), ge.K, ge.localW()
	switch s {
	case west:
		return rect{o.y0, o.y1, o.x0, o.x0 + K}, rect{o.y0, o.y1, 0, o.x0}, ge.gLeft > 0
	case east:
		return rect{o.y0, o.y1, o.x1 - K, o.x1}, rect{o.y0, o.y1, o.x1, W}, ge.gRh > 0
	case north:
		return rect{o.y0, o.y0 + K, 0, W}, rect{0, o.y0, 0, W}, ge.gTop > 0
	default:
		return rect{o.y1 - K, o.y1, 0, W}, rect{o.y1, ge.localH(), 0, W}, ge.gBot > 0
	}
}

// origin maps rank-local cells to global ones: local (y, x) is global
// (y+dy, x+dx).
func (ge geom) origin() (dy, dx int) { return ge.top - ge.gTop, ge.left - ge.gLeft }

// littleEndian reports whether this host stores a uint32 in the wire's
// byte order, so a row of cells moves as one copy.
var littleEndian = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// rowBytes is a row of cells as its bytes in memory.
func rowBytes(row []uint32) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(row))), 4*len(row))
}

// appendRect appends the cells of r in g, shifted by (dy, dx),
// row-major.
func appendRect(b []byte, g *grid.Grid, r rect, dy, dx int) []byte {
	for y := r.y0; y < r.y1; y++ {
		row := g.Row(y + dy)[r.x0+dx : r.x1+dx]
		if littleEndian {
			b = append(b, rowBytes(row)...)
			continue
		}
		for _, v := range row {
			b = binary.LittleEndian.AppendUint32(b, v)
		}
	}
	return b
}

// readRect fills the cells of r in g, shifted by (dy, dx), from p,
// which must hold exactly r.cells() cells.
func readRect(p []byte, g *grid.Grid, r rect, dy, dx int) {
	for y := r.y0; y < r.y1; y++ {
		row := g.Row(y + dy)[r.x0+dx : r.x1+dx]
		if littleEndian {
			p = p[copy(rowBytes(row), p[:4*len(row)]):]
			continue
		}
		for x := range row {
			row[x] = binary.LittleEndian.Uint32(p)
			p = p[4:]
		}
	}
}

func appendHeader(b []byte, gen, round int) []byte {
	b = binary.LittleEndian.AppendUint32(b, uint32(gen))
	return binary.LittleEndian.AppendUint64(b, uint64(round))
}

// readHeader splits a payload into its (generation, round) header and
// body. A round no int can hold is malformed.
func readHeader(p []byte) (gen, round int, body []byte, err error) {
	if len(p) < headerLen {
		return 0, 0, nil, fmt.Errorf("%w: %d-byte payload has no header", errMalformed, len(p))
	}
	r := binary.LittleEndian.Uint64(p[4:])
	if r > math.MaxInt {
		return 0, 0, nil, fmt.Errorf("%w: round %d", errMalformed, r)
	}
	return int(binary.LittleEndian.Uint32(p)), int(r), p[headerLen:], nil
}

func headerMsg(typ uint8, gen, round int) pnet.Msg {
	return pnet.Msg{Type: typ, Payload: appendHeader(make([]byte, 0, headerLen), gen, round)}
}

// readEnd reads a window's end round, which must lie past round.
func readEnd(body []byte, round int) (int, error) {
	end := binary.LittleEndian.Uint64(body)
	if end <= uint64(round) || end > math.MaxInt {
		return 0, fmt.Errorf("%w: window from round %d to %d", errMalformed, round, end)
	}
	return int(end), nil
}

// readGeom decodes a seed's geometry and checks it before anything is
// sized from it. The owned block must fit the n bytes that remain.
func readGeom(body []byte) (geom, []byte, error) {
	if len(body) < geomLen {
		return geom{}, nil, fmt.Errorf("%w: seed too short for its geometry", errMalformed)
	}
	var v [7]uint64
	for i := range v {
		v[i] = uint64(binary.LittleEndian.Uint32(body[4*i:]))
	}
	K, ownH, ownW, gTop, gBot, gLeft, gRh := v[0], v[1], v[2], v[3], v[4], v[5], v[6]
	rest := body[geomLen:]
	n := uint64(len(rest))
	side := func(g uint64) bool { return g == 0 || g == K }
	ok := K >= 1 && ownH >= 1 && ownW >= 1 &&
		side(gTop) && side(gBot) && side(gLeft) && side(gRh) &&
		(gTop+gBot == 0 || ownH >= K) && (gLeft+gRh == 0 || ownW >= K) &&
		ownH <= n && ownW <= n && 4*ownH*ownW <= n
	if !ok {
		return geom{}, nil, fmt.Errorf("%w: seed geometry K=%d own=%dx%d bands=%d/%d/%d/%d does not fit %d bytes",
			errMalformed, K, ownH, ownW, gTop, gBot, gLeft, gRh, n)
	}
	return geom{K: int(K), ownH: int(ownH), ownW: int(ownW),
		gTop: int(gTop), gBot: int(gBot), gLeft: int(gLeft), gRh: int(gRh)}, rest, nil
}

func appendGeom(b []byte, ge geom) []byte {
	for _, v := range []int{ge.K, ge.ownH, ge.ownW, ge.gTop, ge.gBot, ge.gLeft, ge.gRh} {
		b = binary.LittleEndian.AppendUint32(b, uint32(v))
	}
	return b
}

// peer names a neighbouring rank and where it listens.
type peer struct {
	rank int
	addr string
}

// seed is a decoded msgSeed: a rank's generation, base round, first
// window end, geometry, neighbours (rank -1 on a side without one) and
// owned block. A seed the coordinator hands a rank it serves itself
// also carries the links to neighbours in its process, per side; they
// are never encoded.
type seed struct {
	gen, round, end int
	geom
	nbrs   [nSides]peer
	cells  []byte
	tx, rx [nSides]*fault.Link[[]uint32]
}

// appendSeed encodes a seed whose owned block is read from g, shifted
// by (dy, dx).
func appendSeed(b []byte, s seed, g *grid.Grid, dy, dx int) []byte {
	b = appendHeader(b, s.gen, s.round)
	b = binary.LittleEndian.AppendUint64(b, uint64(s.end))
	b = appendGeom(b, s.geom)
	for side := range nSides {
		if _, _, ok := s.halo(side); ok {
			b = binary.LittleEndian.AppendUint32(b, uint32(s.nbrs[side].rank))
			b = binary.LittleEndian.AppendUint32(b, uint32(len(s.nbrs[side].addr)))
			b = append(b, s.nbrs[side].addr...)
		}
	}
	return appendRect(b, g, s.owned(), dy, dx)
}

// decodeSeed decodes and checks a seed. The cells alias p.
func decodeSeed(p []byte) (s seed, err error) {
	var body []byte
	if s.gen, s.round, body, err = readHeader(p); err != nil {
		return seed{}, err
	}
	if len(body) < 8 {
		return seed{}, fmt.Errorf("%w: seed without a window end", errMalformed)
	}
	if s.end, err = readEnd(body, s.round); err != nil {
		return seed{}, err
	}
	if s.geom, body, err = readGeom(body[8:]); err != nil {
		return seed{}, err
	}
	for side := range nSides {
		s.nbrs[side].rank = -1
		if _, _, ok := s.halo(side); !ok {
			continue
		}
		if len(body) < 8 {
			return seed{}, fmt.Errorf("%w: seed cut off in its neighbours", errMalformed)
		}
		rank, n := binary.LittleEndian.Uint32(body), uint64(binary.LittleEndian.Uint32(body[4:]))
		if n > uint64(len(body)-8) || rank > math.MaxInt32 {
			return seed{}, fmt.Errorf("%w: seed neighbour rank %d with a %d-byte address", errMalformed, rank, n)
		}
		s.nbrs[side] = peer{rank: int(rank), addr: string(body[8 : 8+n])}
		body = body[8+n:]
	}
	if len(body) != 4*s.ownH*s.ownW {
		return seed{}, fmt.Errorf("%w: seed carries %d block bytes, want %d", errMalformed, len(body), 4*s.ownH*s.ownW)
	}
	s.cells = body
	return s, nil
}

func grantMsg(gen, round, end int) pnet.Msg {
	p := appendHeader(make([]byte, 0, headerLen+8), gen, round)
	return pnet.Msg{Type: msgGrant, Payload: binary.LittleEndian.AppendUint64(p, uint64(end))}
}

func decodeGrant(p []byte) (gen, round, end int, err error) {
	gen, round, body, err := readHeader(p)
	if err != nil {
		return 0, 0, 0, err
	}
	if len(body) != 8 {
		return 0, 0, 0, fmt.Errorf("%w: grant with a %d-byte body", errMalformed, len(body))
	}
	end, err = readEnd(body, round)
	return gen, round, end, err
}

func linkMsg(gen, round, rank int) pnet.Msg {
	p := appendHeader(make([]byte, 0, headerLen+4), gen, round)
	return pnet.Msg{Type: msgLink, Payload: binary.LittleEndian.AppendUint32(p, uint32(rank))}
}

func decodeLink(p []byte) (gen, round, rank int, err error) {
	gen, round, body, err := readHeader(p)
	if err != nil {
		return 0, 0, 0, err
	}
	if len(body) != 4 {
		return 0, 0, 0, fmt.Errorf("%w: link with a %d-byte body", errMalformed, len(body))
	}
	return gen, round, int(binary.LittleEndian.Uint32(body)), nil
}

// decodeHalo checks a halo against the cells it must fill and
// returns them, aliasing p.
func decodeHalo(p []byte, in rect) (gen, round int, cells []byte, err error) {
	gen, round, cells, err = readHeader(p)
	if err == nil && len(cells) != 4*in.cells() {
		err = fmt.Errorf("%w: halo of %d bytes, want %d", errMalformed, len(cells), 4*in.cells())
	}
	return gen, round, cells, err
}

// report is a decoded msgReport: one rank's window. A rank in the
// coordinator's process reports its grid instead of a block; it does
// not touch the grid until its next grant.
type report struct {
	gen, end int
	work     []roundWork // per round; owned is left zero
	block    []byte      // the owned block at end, aliasing the payload
	cur      *grid.Grid  // or the rank-local grid at end
}

func appendReport(b []byte, gen, end int, work []roundWork, g *grid.Grid, own rect) []byte {
	b = appendHeader(b, gen, end)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(work)))
	for _, w := range work {
		b = binary.LittleEndian.AppendUint64(b, uint64(w.changes))
		b = binary.LittleEndian.AppendUint64(b, w.redundant)
	}
	return appendRect(b, g, own, 0, 0)
}

// decodeReport decodes a report from the rank of geometry ge. The
// round count is checked against the payload before the counts are
// allocated, and no round may change more cells than the rank owns.
func decodeReport(p []byte, ge geom) (r report, err error) {
	var body []byte
	if r.gen, r.end, body, err = readHeader(p); err != nil {
		return report{}, err
	}
	if len(body) < 4 {
		return report{}, fmt.Errorf("%w: report without a round count", errMalformed)
	}
	n, block := uint64(binary.LittleEndian.Uint32(body)), uint64(4*ge.ownH*ge.ownW)
	body = body[4:]
	if uint64(len(body)) != n*pairLen+block {
		return report{}, fmt.Errorf("%w: report of %d rounds in %d bytes", errMalformed, n, len(body))
	}
	maxChanges := uint64(ge.K * ge.ownH * ge.ownW)
	r.work = make([]roundWork, n)
	for i := range r.work {
		changes := binary.LittleEndian.Uint64(body[i*pairLen:])
		if changes > maxChanges {
			return report{}, fmt.Errorf("%w: %d changes in a block of %d cells", errMalformed, changes, ge.ownH*ge.ownW)
		}
		r.work[i] = roundWork{changes: int(changes), redundant: binary.LittleEndian.Uint64(body[i*pairLen+8:])}
	}
	r.block = body[n*pairLen:]
	return r, nil
}

// block is one rank's resident state: its geometry, the last round it
// computed, and the rank-local grid with its scratch twin.
type block struct {
	geom
	round     int
	cur, next *grid.Grid
}

// install makes the block the seed's. The ghost zones are left as they
// are: the first exchange fills them.
func (b *block) install(s seed) {
	if b.cur == nil || b.localH() != s.localH() || b.localW() != s.localW() {
		b.cur, b.next = grid.New(s.localH(), s.localW()), grid.New(s.localH(), s.localW())
	}
	b.geom, b.round = s.geom, s.round
	readRect(s.cells, b.cur, b.owned(), 0, 0)
}

// step computes the next round's K steps over the block, whose ghost
// zones the round's exchange has filled.
func (b *block) step() roundWork {
	var w roundWork
	w, b.cur, b.next = computeBlock(b.geom, b.cur, b.next)
	b.round++
	return w
}

// abortGrace is how long the coordinator waits, after a worker aborts
// a window, for the death or rejoin that usually explains the abort
// before it re-seeds anyway: seeding at once would often race the news
// of the death and waste a generation on a dead rank.
const abortGrace = 100 * time.Millisecond

// linkTimeout bounds how long an accepted peer connection may take to
// say which generation and rank it links.
const linkTimeout = 10 * time.Second

// linkBackoff paces redials of a neighbour that does not answer yet.
var linkBackoff = pnet.Backoff{Base: time.Millisecond, Max: 50 * time.Millisecond}

// worker is one rank's side of the protocol: the resident block and
// the generation it runs. A fleet worker also has a peer listener that
// outlives generations. The coordinator holds a worker for every rank
// it serves itself: each rank of an in-process run, each lost rank of
// a fleet run.
type worker struct {
	tr   pnet.Transport
	ln   pnet.Listener // nil: no peer in another process links to the rank
	rank int
	b    block // only the live generation's goroutine touches it

	// Set on a rank the coordinator serves: where its reports and
	// aborts go, what injects its crashes, and its trace track.
	post  func(rankMsg)
	inj   *fault.Injector
	trace *obs.Tracer
	track obs.TrackID

	mu     sync.Mutex
	live   *generation // nil before the first seed
	early  []peerLink  // links for a generation not yet seeded here
	shake  pnet.Conn   // the accepted conn that has not said who it is
	closed bool
	done   chan struct{} // closed once the accept loop has returned
}

// peerLink is an accepted peer connection and what its link frame said.
type peerLink struct {
	gen, rank int
	conn      pnet.Conn
}

// newWorker binds the rank's peer listener next to the coordinator at
// join and starts accepting links.
func newWorker(tr pnet.Transport, join string, rank int) (*worker, error) {
	ln, err := pnet.PeerListen(tr, join)
	if err != nil {
		return nil, err
	}
	w := &worker{tr: tr, ln: ln, rank: rank, done: make(chan struct{})}
	go w.accept()
	return w, nil
}

// accept takes the peer connections one at a time. A dialer sends its
// link frame as soon as it connects, so reading that frame here holds
// the next accept up only behind a dialer that is alive but stuck, and
// for at most linkTimeout.
func (w *worker) accept() {
	defer close(w.done)
	for {
		conn, err := w.ln.Accept()
		if err != nil {
			return
		}
		w.mu.Lock()
		if w.closed {
			w.mu.Unlock()
			conn.Close()
			return
		}
		w.shake = conn
		w.mu.Unlock()
		w.handshake(conn)
	}
}

// handshake reads an accepted connection's link frame and hands the
// link to its generation: the live one, or a later one kept until its
// seed arrives. A link for an earlier generation is closed.
func (w *worker) handshake(conn pnet.Conn) {
	m, err := conn.Recv(linkTimeout)
	var gen, rank int
	if err == nil && m.Type != msgLink {
		err = errMalformed
	}
	if err == nil {
		gen, _, rank, err = decodeLink(m.Payload)
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	w.shake = nil
	g := w.live
	switch {
	case err != nil || w.closed:
		conn.Close()
	case g != nil && gen == g.gen:
		g.offer(peerLink{gen, rank, conn})
	case g == nil || gen > g.gen:
		w.early = append(w.early, peerLink{gen, rank, conn})
	default:
		conn.Close()
	}
}

// handle serves one coordinator frame. Only a malformed frame is an
// error: a reply that cannot be sent is left to the session, which
// reconnects.
func (w *worker) handle(m pnet.Msg, send func(pnet.Msg) error) error {
	switch m.Type {
	case msgStop:
		return pnet.ErrWorkerDone
	case msgSeed:
		s, err := decodeSeed(m.Payload)
		if err != nil {
			return err
		}
		w.start(s, send)
		return nil
	case msgGrant:
		gen, round, end, err := decodeGrant(m.Payload)
		if err != nil {
			return err
		}
		if !w.grant(gen, round, end) {
			_ = send(headerMsg(msgAbort, gen, round))
		}
		return nil
	}
	return fmt.Errorf("%w: unexpected frame type %d", errMalformed, m.Type)
}

// start ends the live generation and runs the seed's. It returns what
// the ended generation did in a window the seed rolls back.
func (w *worker) start(s seed, send func(pnet.Msg) error) tally {
	w.mu.Lock()
	old := w.live
	w.mu.Unlock()
	var lost tally
	if old != nil {
		old.stop()
		<-old.done
		if old.end > s.round {
			lost = old.spent
		}
	}
	w.b.install(s)
	g := &generation{
		w: w, gen: s.gen, base: s.round, end: s.end, nbrs: s.nbrs, send: send,
		accepted: make(chan peerLink, nSides),
		grants:   make(chan [2]int, 1),
		abort:    make(chan struct{}),
		done:     make(chan struct{}),
	}
	for side, tx := range s.tx {
		if tx != nil {
			g.links[side] = &link{tx: tx, rx: s.rx[side]}
		}
	}
	w.mu.Lock()
	w.live = g
	keep := w.early[:0]
	for _, l := range w.early {
		switch {
		case l.gen == g.gen:
			g.offer(l)
		case l.gen > g.gen:
			keep = append(keep, l)
		default:
			l.conn.Close()
		}
	}
	w.early = keep
	w.mu.Unlock()
	go g.run()
	return lost
}

// grant hands a window to the live generation if it is the grant's
// and still running; it reports whether it did.
func (w *worker) grant(gen, round, end int) bool {
	w.mu.Lock()
	g := w.live
	w.mu.Unlock()
	if g == nil || g.gen != gen {
		return false
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.over {
		return false
	}
	select {
	case g.grants <- [2]int{round, end}:
		return true
	default:
		return false
	}
}

// close stops the live generation, the listener (which removes a unix
// socket) and every connection not yet handed to a generation.
func (w *worker) close() {
	w.mu.Lock()
	w.closed = true
	g := w.live
	for _, l := range w.early {
		l.conn.Close()
	}
	w.early = nil
	if w.shake != nil {
		w.shake.Close()
	}
	w.mu.Unlock()
	if w.ln != nil {
		w.ln.Close()
		<-w.done
	}
	if g != nil {
		g.stop()
		<-g.done
	}
}

// generation is one seeded generation running on a worker: its peer
// links and the goroutine that runs its windows.
type generation struct {
	w              *worker
	gen, base, end int // end is the open window's
	nbrs           [nSides]peer
	send           func(pnet.Msg) error // to a coordinator in another process
	accepted       chan peerLink
	grants         chan [2]int // (from, end) of the next window
	abort, done    chan struct{}
	report         []byte // send scratch; Send does not retain payloads
	spent          tally  // the open window's work
	ranked         bool   // some conn's halo tops pipelineHalo: exchange in rank order
	mu             sync.Mutex
	links          [nSides]*link
	over, broken   bool
}

// tally is the work a rank did in one window: rounds started, halos
// sent, cells computed. A committed window is counted from the
// reports; a rolled-back one only through the tallies of the ranks the
// coordinator serves.
type tally struct {
	rounds, msgs            int
	bytes, owned, redundant uint64
}

// link is one peer link: a connection to a worker in another process,
// or a fault.Link pair to a rank in the same process. A neighbour is
// at most one round ahead, so a halo sent from bufs is not refilled
// until the receiver has copied it.
type link struct {
	conn pnet.Conn
	out  []byte // send scratch
	in   []byte // the last halo received; the next read refills it

	tx, rx *fault.Link[[]uint32]
	bufs   [2][]uint32 // tx payloads, by round parity
}

// offer hands an accepted link to the generation, or closes it once
// the generation is over. Called with w.mu held.
func (g *generation) offer(l peerLink) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if !g.over {
		select {
		case g.accepted <- l:
			return
		default:
		}
	}
	l.conn.Close()
}

// stop ends the generation: blocked waits return and every peer link
// closes, so the neighbours' generations end too.
func (g *generation) stop() {
	g.mu.Lock()
	if g.over {
		g.mu.Unlock()
		return
	}
	g.over = true
	close(g.abort)
	links := g.links
	for len(g.accepted) > 0 {
		(<-g.accepted).conn.Close()
	}
	g.mu.Unlock()
	for _, l := range links {
		if l != nil && l.conn != nil {
			l.conn.Close()
		}
	}
}

// fail stops the generation because a peer link broke or carried a
// frame the protocol does not allow. A link that breaks because stop
// closed it is no failure.
func (g *generation) fail() {
	g.mu.Lock()
	g.broken = g.broken || !g.over
	g.mu.Unlock()
	g.stop()
}

// abandon leaves a window the rank cannot finish. If a link broke or
// the rank crashed, as opposed to a seed or a stop ending the
// generation, the coordinator is told the window will not be reported.
// A link that breaks while the rank waits for a grant tells it
// nothing: the run is over, or the coordinator learns of the death
// that broke it.
func (g *generation) abandon() {
	g.mu.Lock()
	broken := g.broken
	g.mu.Unlock()
	if broken {
		g.up(rankMsg{rank: g.w.rank, abort: true, rep: report{gen: g.gen}})
	}
}

// up tells the coordinator of a report or an abort: as a rankMsg to a
// coordinator in this process, encoded to one in another. A frame that
// cannot be sent is lost with its session; the coordinator re-seeds
// when the rank rejoins.
func (g *generation) up(m rankMsg) {
	switch {
	case g.w.post != nil:
		g.w.post(m)
	case m.abort:
		_ = g.send(headerMsg(msgAbort, g.gen, g.base))
	default:
		g.report = appendReport(g.report[:0], g.gen, m.rep.end, m.rep.work, m.rep.cur, g.w.b.owned())
		_ = g.send(pnet.Msg{Type: msgReport, Payload: g.report})
	}
}

// run links the neighbours, then runs windows until the generation
// ends: each window's rounds, its report, and the wait for a grant.
// An injected crash at the start of a round aborts the window. done
// closes once it has returned; the links to ranks in this process are
// closed on the way out, after everything sent on them.
func (g *generation) run() {
	defer close(g.done)
	defer func() {
		for _, l := range g.links {
			if l != nil && l.tx != nil {
				l.tx.Close()
			}
		}
	}()
	if !g.connect() {
		g.abandon()
		return
	}
	w, b := g.w, &g.w.b
	work := make([]roundWork, 0, g.end-g.base)
	for {
		work, g.spent = work[:0], tally{}
		for b.round < g.end {
			if w.inj.CrashAt(w.rank, b.round+1) {
				g.fail()
				g.abandon()
				return
			}
			g.spent.rounds++
			ts := w.trace.Now()
			if !g.exchange(b.round + 1) {
				g.abandon()
				return
			}
			if w.trace != nil {
				w.trace.Span(w.track, "exchange", ts, w.trace.Now()-ts, obs.Arg{Key: "K", Value: int64(b.K)})
				ts = w.trace.Now()
			}
			rw := b.step()
			g.spent.owned += rw.owned
			g.spent.redundant += rw.redundant
			if w.trace != nil {
				w.trace.Span(w.track, "compute", ts, w.trace.Now()-ts, obs.Arg{Key: "changes", Value: int64(rw.changes)})
			}
			work = append(work, rw)
		}
		g.up(rankMsg{rank: w.rank, rep: report{gen: g.gen, end: g.end, work: work, cur: b.cur}})
		select {
		case gr := <-g.grants:
			if gr[0] != b.round {
				g.fail()
				g.abandon()
				return
			}
			g.end = gr[1]
		case <-g.abort:
			return
		}
	}
}

// connect opens the generation's conns: the rank dials each
// lower-ranked neighbour in another process and waits for the
// higher-ranked ones to dial it. It returns false once the generation
// is over.
func (g *generation) connect() bool {
	waiting := 0
	for s, nb := range g.nbrs {
		switch {
		case nb.rank < 0 || g.links[s] != nil: // no neighbour, or one in this process
		case nb.rank > g.w.rank:
			waiting++
		default:
			conn := g.dial(nb.addr)
			if conn == nil {
				return false
			}
			if conn.Send(linkMsg(g.gen, g.base, g.w.rank)) != nil {
				conn.Close()
				g.fail()
				return false
			}
			if !g.attach(s, conn) {
				return false
			}
		}
	}
	for waiting > 0 {
		select {
		case l := <-g.accepted:
			s := g.sideOf(l.rank)
			if s < 0 {
				l.conn.Close()
				continue
			}
			if !g.attach(s, l.conn) {
				return false
			}
			waiting--
		case <-g.abort:
			return false
		}
	}
	return true
}

// sideOf returns the unlinked side whose neighbour dials in as rank,
// -1 if there is none.
func (g *generation) sideOf(rank int) int {
	for s, nb := range g.nbrs {
		if nb.rank == rank && rank > g.w.rank && g.links[s] == nil {
			return s
		}
	}
	return -1
}

// dial connects to a neighbour's listener, redialling until it answers
// or the generation ends (nil): a neighbour that is not there yet has
// died, and the coordinator will re-seed.
func (g *generation) dial(addr string) pnet.Conn {
	for attempt := 1; ; attempt++ {
		if conn, err := g.w.tr.Dial(addr); err == nil {
			return conn
		}
		select {
		case <-time.After(linkBackoff.Delay(addr, attempt)):
		case <-g.abort:
			return nil
		}
	}
}

// attach installs a conn link on side s; on a generation that is
// already over it closes the connection instead.
func (g *generation) attach(s int, conn pnet.Conn) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.over {
		conn.Close()
		return false
	}
	g.links[s] = &link{conn: conn}
	if !g.w.b.pipelined(s) {
		g.ranked = true
	}
	return true
}

// pipelineHalo bounds the halo payload a conn may carry in a phase that
// sends before it receives. A neighbour is at most one round ahead, so
// at most two such frames a direction are ever unread, far below a
// unix or tcp socket's default send buffer: the sends cannot block.
const pipelineHalo = 8 << 10

// pipelined reports whether the halo frames on side s fit pipelineHalo.
// The neighbour's frames fill the same rectangle's cells.
func (ge geom) pipelined(s int) bool {
	out, _, _ := ge.halo(s)
	return headerLen+4*out.cells() <= pipelineHalo
}

// exchange fills the ghost zones for round: E/W first, then N/S over
// the full local width, which carries the corners just received.
func (g *generation) exchange(round int) bool {
	return g.phase(west, east, round) && g.phase(north, south, round)
}

// phase exchanges the halos of the lower side lo (W or N) and the
// higher side hi (E or S). A send on a conn can wait for its neighbour
// to read, so once some conn carries a halo past pipelineHalo each
// phase resolves in rank order: the rank receives from its lower
// neighbour before it sends back, and sends to its higher one before
// it receives. A row or column then completes from its lowest rank up,
// whatever the halo's size. Otherwise no send can block (links in this
// process, and conns whose halos fit the bound), so the sends go first
// and the receives after them, and neither neighbour waits a round
// trip. Both ends of a link size the same rectangle, so a link whose
// halo tops the bound has both ends in rank order; on any other link
// a send cannot block, whichever order either end runs.
func (g *generation) phase(lo, hi, round int) bool {
	if g.ranked {
		return g.recvHalo(lo, round) && g.sendHalo(lo, round) &&
			g.sendHalo(hi, round) && g.recvHalo(hi, round)
	}
	return g.sendHalo(lo, round) && g.sendHalo(hi, round) &&
		g.recvHalo(lo, round) && g.recvHalo(hi, round)
}

func (g *generation) sendHalo(s, round int) bool {
	l := g.links[s]
	if l == nil {
		return true
	}
	out, _, _ := g.w.b.halo(s)
	if l.tx != nil {
		buf := l.bufs[round&1][:0]
		for y := out.y0; y < out.y1; y++ {
			buf = append(buf, g.w.b.cur.Row(y)[out.x0:out.x1]...)
		}
		l.bufs[round&1] = buf
		if !l.tx.Send(buf, g.abort) {
			return false
		}
	} else {
		l.out = appendRect(appendHeader(l.out[:0], g.gen, round), g.w.b.cur, out, 0, 0)
		if l.conn.Send(pnet.Msg{Type: msgHalo, Payload: l.out}) != nil {
			g.fail()
			return false
		}
	}
	g.spent.msgs++
	g.spent.bytes += 4 * uint64(out.cells())
	return true
}

func (g *generation) recvHalo(s, round int) bool {
	l := g.links[s]
	if l == nil {
		return true
	}
	_, in, _ := g.w.b.halo(s)
	if l.rx != nil {
		cells, ok := l.rx.Recv(g.abort)
		if !ok {
			g.fail() // the neighbour aborted, unless a stop ended the wait
			return false
		}
		w := in.x1 - in.x0
		for y := in.y0; y < in.y1; y++ {
			copy(g.w.b.cur.Row(y)[in.x0:in.x1], cells[(y-in.y0)*w:])
		}
		return true
	}
	// stop closes the conn, which ends the wait. The halo is read into
	// the previous one's array: it is decoded before the next read.
	m, err := pnet.RecvInto(l.conn, 0, l.in)
	if err != nil {
		g.fail()
		return false
	}
	l.in = m.Payload
	gen, r, cells, err := decodeHalo(m.Payload, in)
	if err != nil || m.Type != msgHalo || gen != g.gen || r != round {
		g.fail()
		return false
	}
	readRect(cells, g.w.b.cur, in, 0, 0)
	return true
}

// FleetWorker joins the fleet at cfg.Join and serves ghost rounds
// until the coordinator sends stop. It is the -worker entry point for
// fleet processes; cfg.Proto defaults to GhostProto. The worker
// listens for its peers on cfg.Transport next to the coordinator's
// address and announces where in its hello; the listener outlives
// reconnections, and is closed (a unix socket removed) on return.
func FleetWorker(ctx context.Context, cfg pnet.WorkerConfig) error {
	if cfg.Proto == "" {
		cfg.Proto = GhostProto
	}
	if cfg.Transport == nil {
		return fmt.Errorf("ghost: fleet worker needs a transport")
	}
	w, err := newWorker(cfg.Transport, cfg.Join, cfg.Rank)
	if err != nil {
		return err
	}
	defer w.close()
	cfg.Addr = w.ln.Addr()
	return pnet.RunWorker(ctx, cfg, w.handle)
}

// rankView is the coordinator's view of one rank.
type rankView struct {
	joined  bool    // registered and not seen to die since
	addr    string  // peer address of the incarnation that joined last
	local   *worker // non-nil once the coordinator serves the rank itself
	in      bool    // reported or aborted the open window
	aborted bool    // aborted it (ranks the coordinator serves)
	rep     report
}

// rankMsg is a rank's report of its window, or its abort, as the
// coordinator takes it: rep.gen is always set.
type rankMsg struct {
	rank  int
	abort bool
	rep   report
}

// fleetRun is the coordinator side of one run.
type fleetRun struct {
	cfg   config
	co    *pnet.Coordinator // nil: every rank is served in this process
	inj   *fault.Injector
	g     *grid.Grid // the committed global grid, whole at every window end
	geoms []geom
	ranks []rankView
	rep   Report
	dur   *durable

	gen, end int  // the live generation and its open window's end
	stale    bool // the live generation lost a rank: re-seed first
	// aborted fires abortGrace after the first abort of generation
	// abortGen; nil when no abort is pending.
	aborted   <-chan time.Time
	abortGen  int
	barren    int // generations in a row that committed no window
	committed int
	topples   uint64
	saveAt    int // the round the next durable checkpoint is due at, once known

	// One round's halo traffic and owned work, over all ranks.
	msgs  int
	bytes uint64
	owned uint64

	out []byte // send scratch; Conn.Send does not retain payloads

	// Reports and aborts of the ranks served here, not yet taken.
	localMu   sync.Mutex
	localQ    []rankMsg
	localWake chan struct{}
}

// runFleet drives the decomposition: over a worker fleet when
// cfg.fleet is set, else with every rank served in this process. The
// caller's grid g holds the committed state; on return it holds the
// fixed point. It also returns the fleet coordinator's transport
// counters.
func runFleet(ctx context.Context, g *grid.Grid, cfg config) (Report, pnet.FleetStats, error) {
	if cfg.faults != nil && cfg.fleet != nil {
		return Report{}, pnet.FleetStats{}, fmt.Errorf("ghost: fleet mode injects no simulated faults; kill the worker processes instead")
	}
	geoms, err := decompose(g, &cfg)
	if err != nil {
		return Report{}, pnet.FleetStats{}, err
	}
	K, n := cfg.width, len(geoms)

	before := g.Sum()
	f := &fleetRun{
		cfg: cfg, g: g, geoms: geoms,
		inj:       fault.NewInjector(cfg.faults, cfg.obs),
		ranks:     make([]rankView, n),
		rep:       Report{Ranks: n, GhostWidth: K},
		stale:     true,
		localWake: make(chan struct{}, 1),
	}
	for _, ge := range geoms {
		for s := range nSides {
			if out, _, ok := ge.halo(s); ok {
				f.msgs++
				f.bytes += 4 * uint64(out.cells())
			}
		}
		f.owned += uint64(K * ge.ownH * ge.ownW)
	}
	if cfg.ck != nil {
		if f.committed, f.topples, err = restoreGhost(cfg.ck, g); err != nil {
			return Report{}, pnet.FleetStats{}, err
		}
		h, w := g.H(), g.W()
		// Checkpoints are written at window ends, when g is whole.
		f.dur = &durable{ck: cfg.ck, encode: func(round int, topples uint64) []byte {
			var e ckpt.Enc
			encodeGhostHeader(&e, round, topples, h, w)
			for y := 0; y < h; y++ {
				for _, v := range g.Row(y) {
					e.U32(v)
				}
			}
			return e.Bytes()
		}}
	}

	if cfg.fleet != nil {
		fc := *cfg.fleet
		fc.Workers = n
		fc.Proto = GhostProto
		if !fc.Obs.Enabled() {
			fc.Obs = cfg.obs
		}
		if f.co, err = pnet.NewCoordinator(fc); err != nil {
			return Report{}, pnet.FleetStats{}, err
		}
		defer f.co.Close()
	} else {
		for id := range geoms {
			f.serve(id, &worker{rank: id})
		}
	}
	err = f.run(ctx)
	if f.co != nil {
		f.co.Stop(pnet.Msg{Type: msgStop})
	}
	for _, r := range f.ranks {
		if r.local != nil {
			r.local.close()
		}
	}
	var stats pnet.FleetStats
	if f.co != nil {
		stats = f.co.Stats()
	}
	if err != nil {
		return f.rep, stats, err
	}
	f.rep.Iterations = f.committed * K
	f.rep.Topples = f.topples
	g.ClearHalo()
	f.rep.Absorbed = before - g.Sum()
	f.rep.FaultSchedule = f.inj.Schedule()
	f.rep.publish(cfg.obs.Metrics)
	return f.rep, stats, nil
}

// serve makes the coordinator serve rank id itself, with w. Strips
// keep the 1-D trace track names; blocks are labelled by position.
func (f *fleetRun) serve(id int, w *worker) {
	w.post, w.inj = f.queue, f.inj
	if tr := f.cfg.obs.Tracer; tr != nil {
		proc, label := "ghost", fmt.Sprintf("rank %d", id)
		if C := f.cfg.procCols; C > 1 {
			proc, label = "ghost2d", fmt.Sprintf("rank (%d,%d)", id/C, id%C)
		}
		w.trace, w.track = tr, tr.Track(proc, id, label)
	}
	r := &f.ranks[id]
	r.joined, r.local = false, w
	if w.ln != nil {
		r.addr = w.ln.Addr()
	}
}

// run handles events until the run ends: it seeds a generation
// whenever the live one is stale and every rank can be reached, and
// commits each window once every rank has reported it.
func (f *fleetRun) run(ctx context.Context) error {
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		if f.stale && f.ready() {
			if err := f.seed(); err != nil {
				return err
			}
		}
		if m, ok := f.dequeue(); ok {
			if done, err := f.take(m); done || err != nil {
				return err
			}
			continue
		}
		ev, err := f.next(ctx)
		if err != nil {
			return err
		}
		if ev.Rank < 0 {
			continue // a rank served here has news, or an abort's grace ran out
		}
		r := &f.ranks[ev.Rank]
		switch ev.Kind {
		case pnet.PeerJoined:
			if ev.Addr == "" {
				return fmt.Errorf("ghost: fleet rank %d announced no peer address", ev.Rank)
			}
			// A join after the first seed is a new incarnation or a new
			// connection; either may have missed frames.
			r.joined, r.addr = true, ev.Addr
			f.stale = f.stale || f.gen > 0
		case pnet.PeerDead:
			f.cfg.obs.Log.Event(obs.LevelWarn, "ghost", "fleet rank died",
				obs.Arg{Key: "rank", Value: int64(ev.Rank)},
				obs.Arg{Key: "round", Value: int64(f.committed)})
			r.joined = false
			f.stale = f.stale || f.gen > 0
		case pnet.PeerLost:
			f.cfg.obs.Log.Event(obs.LevelError, "ghost", "fleet rank lost; computing its block locally",
				obs.Arg{Key: "rank", Value: int64(ev.Rank)})
			w, err := newWorker(f.cfg.fleet.Transport, f.co.Addr(), ev.Rank)
			if err != nil {
				return fmt.Errorf("ghost: serving lost rank %d: %w", ev.Rank, err)
			}
			f.serve(ev.Rank, w)
			f.stale = f.stale || f.gen > 0
		case pnet.PeerMsg:
			if done, err := f.handle(ev); done || err != nil {
				return err
			}
		}
	}
}

// ready reports whether every rank can be seeded.
func (f *fleetRun) ready() bool {
	for _, r := range f.ranks {
		if !r.joined && r.local == nil {
			return false
		}
	}
	return true
}

// next waits for the next fleet event. It returns an event of rank -1
// when a rank served here has queued news, or when an abort's grace
// runs out; with its generation still live, that makes it stale.
func (f *fleetRun) next(ctx context.Context) (pnet.Event, error) {
	var events <-chan pnet.Event
	if f.co != nil {
		events = f.co.Events()
	}
	select {
	case <-ctx.Done():
		return pnet.Event{}, ctx.Err()
	case ev, ok := <-events:
		if !ok {
			return pnet.Event{}, fmt.Errorf("ghost: fleet coordinator closed")
		}
		return ev, nil
	case <-f.localWake:
	case <-f.aborted:
		f.aborted = nil
		f.stale = f.stale || f.abortGen == f.gen
	}
	return pnet.Event{Rank: -1}, nil
}

// queue hands a served rank's report or abort to the coordinator.
func (f *fleetRun) queue(m rankMsg) {
	f.localMu.Lock()
	f.localQ = append(f.localQ, m)
	f.localMu.Unlock()
	select {
	case f.localWake <- struct{}{}:
	default:
	}
}

// dequeue pops the oldest queued rankMsg, reusing the queue's array.
func (f *fleetRun) dequeue() (rankMsg, bool) {
	f.localMu.Lock()
	defer f.localMu.Unlock()
	if len(f.localQ) == 0 {
		return rankMsg{}, false
	}
	m := f.localQ[0]
	f.localQ = f.localQ[:copy(f.localQ, f.localQ[1:])]
	return m, true
}

// seed starts a generation from the last committed window: every rank
// gets its block, its neighbours and the first window. Neighbours the
// coordinator both serves are linked here, a fault.Link each way. The
// work that served ranks did in the window the seed rolls back is
// counted into the Report.
func (f *fleetRun) seed() error {
	if f.barren >= maxBarren {
		f.cfg.obs.Metrics.Counter("ghost.fleet.no_progress").Inc()
		f.cfg.obs.Log.Event(obs.LevelError, "ghost", "fleet makes no progress",
			obs.Arg{Key: "round", Value: int64(f.committed)},
			obs.Arg{Key: "generations", Value: int64(f.barren)})
		return &NoProgressError{Committed: f.committed, Generations: f.barren}
	}
	ts := f.inj.Now()
	if f.gen > 0 {
		f.rep.Recoveries++
		if f.inj == nil { // an injector counts its own recoveries
			f.cfg.obs.Metrics.Counter("fault.recoveries").Inc()
		}
		f.cfg.obs.Metrics.Counter("ghost.fleet.rollbacks").Inc()
		f.cfg.obs.Log.Event(obs.LevelWarn, "ghost", "rolled back to the last committed window",
			obs.Arg{Key: "round", Value: int64(f.committed)},
			obs.Arg{Key: "generation", Value: int64(f.gen + 1)})
	}
	f.gen++
	f.barren++
	f.stale = false
	f.end = f.windowEnd()
	C := f.cfg.procCols
	seeds := make([]seed, len(f.geoms))
	for id, ge := range f.geoms {
		s := &seeds[id]
		s.gen, s.round, s.end, s.geom = f.gen, f.committed, f.end, ge
		for side, nb := range [nSides]int{id - 1, id + 1, id - C, id + C} {
			s.nbrs[side] = peer{rank: -1}
			if _, _, ok := ge.halo(side); !ok {
				continue
			}
			s.nbrs[side] = peer{rank: nb, addr: f.ranks[nb].addr}
			if nb > id && f.ranks[id].local != nil && f.ranks[nb].local != nil {
				s.tx[side] = fault.NewLink[[]uint32](f.inj, id, nb)
				s.rx[side] = fault.NewLink[[]uint32](f.inj, nb, id)
				seeds[nb].tx[side^1], seeds[nb].rx[side^1] = s.rx[side], s.tx[side]
			}
		}
	}
	rounds := 0
	for id := range seeds {
		s, r := &seeds[id], &f.ranks[id]
		r.in, r.aborted = false, false
		dy, dx := s.origin()
		if r.local == nil {
			f.out = appendSeed(f.out[:0], *s, f.g, dy, dx)
			f.send(id, pnet.Msg{Type: msgSeed, Payload: f.out})
			continue
		}
		f.out = appendRect(f.out[:0], f.g, s.owned(), dy, dx)
		s.cells = f.out
		lost := r.local.start(*s, nil)
		rounds = max(rounds, lost.rounds)
		f.rep.Messages += lost.msgs
		f.rep.BytesSent += lost.bytes
		f.rep.OwnedCells += lost.owned
		f.rep.RedundantCells += lost.redundant
	}
	f.rep.Exchanges += rounds
	if f.gen > 1 {
		f.inj.NoteRecovery("ghost", ts, f.inj.Now()-ts,
			obs.Arg{Key: "round", Value: int64(f.committed + 1)},
			obs.Arg{Key: "generation", Value: int64(f.gen)})
	}
	f.cfg.obs.Metrics.Counter("ghost.fleet.seeds").Add(int64(len(f.geoms)))
	return nil
}

// windowEnd picks the end of the window after the committed round:
// the next multiple of snapEvery, the next due checkpoint or the
// maxIters round, whichever comes first. A due checkpoint found here
// stays due until a window that reaches it commits. Under injected
// faults every window is one round, so the ranks stay in lockstep and
// a re-seed rolls back one round.
func (f *fleetRun) windowEnd() int {
	K := f.cfg.width
	end := min((f.committed/snapEvery+1)*snapEvery, (f.cfg.maxIters+K-1)/K)
	if f.inj != nil {
		end = f.committed + 1
	}
	if f.dur != nil && f.saveAt <= f.committed {
		for r := f.committed + 1; r <= end; r++ {
			if f.dur.due(r) {
				f.saveAt = r
				break
			}
		}
	}
	if f.saveAt > f.committed {
		end = min(end, f.saveAt)
	}
	return end
}

// handle decodes a frame from a fleet rank and takes it. Frames of an
// earlier generation, and any frame while the live one is stale, are
// dropped undecoded. It reports whether the run is over.
func (f *fleetRun) handle(ev pnet.Event) (bool, error) {
	gen, _, _, err := readHeader(ev.Msg.Payload)
	if err != nil {
		return false, err
	}
	if gen != f.gen || f.stale {
		return false, nil
	}
	m := rankMsg{rank: ev.Rank, rep: report{gen: gen}}
	switch ev.Msg.Type {
	case msgAbort:
		m.abort = true
	case msgReport:
		if m.rep, err = decodeReport(ev.Msg.Payload, f.geoms[ev.Rank]); err != nil {
			return false, fmt.Errorf("rank %d: %w", ev.Rank, err)
		}
	default:
		return false, fmt.Errorf("%w: rank %d sent frame type %d", errMalformed, ev.Rank, ev.Msg.Type)
	}
	return f.take(m)
}

// take handles a rank's report or abort of the open window, and
// commits the window once every rank has reported it. A message of an
// earlier generation, and any while the live one is stale, is dropped.
// It reports whether the run is over.
func (f *fleetRun) take(m rankMsg) (bool, error) {
	if m.rep.gen != f.gen || f.stale {
		return false, nil
	}
	r := &f.ranks[m.rank]
	switch {
	case m.abort && f.co != nil:
		// A fleet abort usually follows a death: give its news a grace
		// period to arrive, so the re-seed does not seed a dead rank.
		if f.aborted == nil || f.abortGen != f.gen {
			f.aborted, f.abortGen = time.After(abortGrace), f.gen
		}
		return false, nil
	case m.abort:
		r.in, r.aborted = true, true
	case m.rep.end != f.end || len(m.rep.work) != f.end-f.committed || r.in:
		return false, fmt.Errorf("%w: rank %d reported rounds %d..%d of window %d..%d",
			errMalformed, m.rank, m.rep.end-len(m.rep.work)+1, m.rep.end, f.committed+1, f.end)
	default:
		r.rep, r.in = m.rep, true
	}
	aborted := false
	for _, o := range f.ranks {
		if !o.in {
			return false, nil
		}
		aborted = aborted || o.aborted
	}
	if aborted {
		// Every rank is served here and has reported or aborted, so no
		// rank of the generation still runs: re-seed at once.
		f.stale = true
		return false, nil
	}
	return f.commit()
}

// commit closes the open window, which every rank has reported: it
// accounts its rounds up to the first one that ends the run, installs
// the blocks, writes a due checkpoint, and grants the next window. It
// reports whether the run is over.
func (f *fleetRun) commit() (bool, error) {
	K, start := f.cfg.width, f.committed
	f.barren = 0
	over, total := false, 0
	for i := 0; i < f.end-start && !over; i++ {
		changes := 0
		for id := range f.ranks {
			w := f.ranks[id].rep.work[i]
			changes += w.changes
			f.rep.RedundantCells += w.redundant
		}
		f.committed++
		f.topples += uint64(changes)
		total += changes
		f.rep.Exchanges++
		f.rep.Messages += f.msgs
		f.rep.BytesSent += f.bytes
		f.rep.OwnedCells += f.owned
		over = changes == 0 || f.committed*K >= f.cfg.maxIters
	}
	// Rounds past a fixed point change nothing, so the blocks as of the
	// window's end are the blocks as of the committed round.
	for id, ge := range f.geoms {
		dy, dx := ge.origin()
		if cur := f.ranks[id].rep.cur; cur != nil {
			o := ge.owned()
			for y := o.y0; y < o.y1; y++ {
				copy(f.g.Row(y + dy)[o.x0+dx:o.x1+dx], cur.Row(y)[o.x0:o.x1])
			}
		} else {
			readRect(f.ranks[id].rep.block, f.g, ge.owned(), dy, dx)
		}
		f.ranks[id].in = false
	}
	f.cfg.obs.Progress.Update("ghost",
		obs.F("round", float64(f.committed)),
		obs.F("generation", float64(f.gen)),
		obs.F("changes", float64(total)),
		obs.F("topples", float64(f.topples)),
		obs.F("recoveries", float64(f.rep.Recoveries)))
	if over {
		return true, nil
	}
	if f.saveAt == f.committed {
		if err := f.dur.write(f.committed, f.topples); err != nil {
			return false, fmt.Errorf("ghost: checkpoint: %w", err)
		}
	}
	f.end = f.windowEnd()
	for id, r := range f.ranks {
		switch {
		case r.local == nil:
			f.send(id, grantMsg(f.gen, f.committed, f.end))
		case !r.local.grant(f.gen, f.committed, f.end):
			f.queue(rankMsg{rank: id, abort: true, rep: report{gen: f.gen}})
		}
	}
	return false, nil
}

// send delivers m to fleet rank id. A failed send means the connection
// is going down: the rank is unreachable until it joins again, and the
// generation is stale.
func (f *fleetRun) send(id int, m pnet.Msg) {
	if f.co.Send(id, m) != nil {
		f.ranks[id].joined = false
		f.stale = true
	}
}
