package transport

import (
	"bufio"
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"io"
	"log"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// maxFrameSize bounds one wire frame (header + payload). Blocks cap out far
// below this.
const maxFrameSize = 96 << 20

// frameHeaderLen is the fixed body prefix: from(4) | to(4) | type(2).
const frameHeaderLen = 10

// Defaults for the per-peer send queue and the reconnect backoff. The queue
// depth is counted in frames: deep enough to ride out a reconnect under a
// pipelined ordering window, shallow enough that a dead peer cannot pin
// unbounded memory. Reconnect attempts start at the backoff minimum and
// double up to its maximum, with ±50% jitter so a cluster restarting
// together does not reconnect in lockstep.
const (
	DefaultQueueDepth     = 4096
	defaultDialTimeout    = 2 * time.Second
	defaultBackoffInitial = 25 * time.Millisecond
	defaultBackoffMax     = time.Second
	// writeBufSize is the per-link buffered-writer size: a full ordering
	// window of vote messages coalesces into one syscall.
	writeBufSize = 64 << 10
	readBufSize  = 64 << 10
)

// tcpOptions carries the tunables of a TCPNetwork.
type tcpOptions struct {
	queueDepth  int
	dialTimeout time.Duration
	backoffMin  time.Duration
	backoffMax  time.Duration
	logf        func(format string, args ...any)
}

// TCPOption configures a TCPNetwork.
type TCPOption func(*tcpOptions)

// withLogf redirects peer-transition logging (tests capture it).
func withLogf(logf func(string, ...any)) TCPOption {
	return func(o *tcpOptions) { o.logf = logf }
}

// TCPPeerStats is one outbound link's accounting. Everything that can go
// wrong on the send path is counted here instead of silently vanishing: the
// original sketch dropped messages on dial failure with no trace.
type TCPPeerStats struct {
	// Enqueued counts frames accepted into the send queue.
	Enqueued int64
	// Sent / SentBytes count frames (and their bytes) written to the wire.
	Sent      int64
	SentBytes int64
	// DropsQueueFull counts frames evicted by the drop-oldest policy.
	DropsQueueFull int64
	// DropsConnDown counts frames abandoned because the connection died
	// mid-write (the wire may or may not have carried them).
	DropsConnDown int64
	// Dials / DialFailures / Reconnects count connection attempts, their
	// failures, and successful re-establishments after a drop.
	Dials        int64
	DialFailures int64
	Reconnects   int64
	// Writes / Flushes expose write coalescing: Sent/Writes is the average
	// number of frames per syscall-bound write, Flushes the number of
	// flush-on-idle boundaries.
	Writes  int64
	Flushes int64
	// Up reports whether the link currently holds a live connection.
	Up bool
}

// Drops sums every drop cause on the link.
func (s TCPPeerStats) Drops() int64 {
	return s.DropsQueueFull + s.DropsConnDown
}

// TCPStats is a snapshot of a TCPNetwork's counters.
type TCPStats struct {
	Peers map[int32]TCPPeerStats
	// FramesIn / BytesIn count authenticated inbound frames.
	FramesIn int64
	BytesIn  int64
	// AuthFailures counts inbound frames whose MAC did not verify (the
	// link is dropped); ProtocolViolations counts malformed frames.
	AuthFailures       int64
	ProtocolViolations int64
}

// TotalDrops sums drops across every peer link.
func (s TCPStats) TotalDrops() int64 {
	var n int64
	for _, p := range s.Peers {
		n += p.Drops()
	}
	return n
}

// TCPNetwork implements Endpoint over real TCP connections with
// HMAC-SHA256 per-frame authentication, realizing the "authenticated fair
// point-to-point links" of the system model. One TCPNetwork is one process:
// it listens for inbound connections and keeps one outbound link per peer,
// each with its own bounded send queue, writer goroutine, buffered writer
// (flush-on-idle write coalescing), and reconnect loop with jittered
// exponential backoff.
//
// A client (ID ≥ ClientIDBase) need not be in anyone's directory: it dials
// the replicas it knows, and a replica answers it over the connection its
// authenticated frames arrive on (a return link, see answerOver). Such a
// client is reachable behind a NAT and costs no configuration; directory
// entries always win, so a return link can never re-point a known peer.
//
// Frame layout: 4-byte big-endian length, then body =
// from(4) | to(4) | type(2) | payload, then mac(32) over the body.
type TCPNetwork struct {
	id     int32
	secret []byte
	ln     net.Listener
	opts   tcpOptions

	mu      sync.Mutex
	peers   map[int32]string    // directory: ID → address
	links   map[int32]*peerLink // outbound links, one per destination
	inbound map[net.Conn]bool   // connections with a reader, closed on shutdown
	quit    chan struct{}       // closed (under mu) by Close

	// delay holds every outbound frame back by a fixed one-way latency
	// (guarded by mu), so a loopback deployment behaves like a LAN or WAN.
	delay time.Duration

	framesIn   atomic.Int64
	bytesIn    atomic.Int64
	authFails  atomic.Int64
	protoFails atomic.Int64

	out chan Message
	wg  sync.WaitGroup
}

// NewTCPNetwork starts listening on addr. The secret authenticates links:
// all members of a deployment share it (a deployment-level pre-shared key;
// per-link keys would be a straightforward extension). peers maps process
// IDs to dialable addresses and may be extended later with AddPeer.
func NewTCPNetwork(id int32, addr string, secret []byte, peers map[int32]string, opts ...TCPOption) (*TCPNetwork, error) {
	o := tcpOptions{
		queueDepth:  DefaultQueueDepth,
		dialTimeout: defaultDialTimeout,
		backoffMin:  defaultBackoffInitial,
		backoffMax:  defaultBackoffMax,
	}
	for _, opt := range opts {
		opt(&o)
	}
	if o.logf == nil {
		o.logf = log.Printf
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("listen %s: %w", addr, err)
	}
	t := &TCPNetwork{
		id:      id,
		secret:  append([]byte(nil), secret...),
		ln:      ln,
		opts:    o,
		peers:   make(map[int32]string, len(peers)),
		links:   make(map[int32]*peerLink),
		inbound: make(map[net.Conn]bool),
		quit:    make(chan struct{}),
		out:     make(chan Message, 1024),
	}
	for pid, a := range peers {
		t.peers[pid] = a
	}
	t.wg.Add(1)
	go t.acceptLoop()
	return t, nil
}

// Addr returns the bound listen address (useful with ":0").
func (t *TCPNetwork) Addr() string { return t.ln.Addr().String() }

// AddPeer registers or updates the address of a peer. An updated address
// takes effect on the link's next (re)connect.
func (t *TCPNetwork) AddPeer(id int32, addr string) {
	t.mu.Lock()
	t.peers[id] = addr
	t.mu.Unlock()
}

// ID implements Endpoint.
func (t *TCPNetwork) ID() int32 { return t.id }

// Receive implements Endpoint.
func (t *TCPNetwork) Receive() <-chan Message { return t.out }

// SetDelay holds every outbound frame back by d (0 removes the delay) —
// the loopback equivalent of a fixed one-way link latency.
func (t *TCPNetwork) SetDelay(d time.Duration) {
	t.mu.Lock()
	t.delay = d
	t.mu.Unlock()
}

// Send implements Endpoint: the frame is queued on the destination's link
// and written by the link's writer goroutine. Send never blocks on the
// network — backpressure shows up in Stats instead. A
// destination with neither a directory entry nor a live return link is the
// only hard error; everything downstream
// (dial failures, dead connections) is the link's business: frames queue
// across reconnects and the drop counters account for what was lost.
func (t *TCPNetwork) Send(to int32, typ uint16, payload []byte) error {
	t.mu.Lock()
	if t.closed() {
		t.mu.Unlock()
		return ErrClosed
	}
	link := t.links[to]
	if link == nil {
		if _, ok := t.peers[to]; !ok {
			t.mu.Unlock()
			return fmt.Errorf("%w: %d", ErrUnknownDest, to)
		}
		link = newPeerLink(t, to, nil)
		t.links[to] = link
	}
	delay := t.delay
	t.mu.Unlock()

	frame := t.encodeFrame(Message{From: t.id, To: to, Type: typ, Payload: payload})
	if delay > 0 {
		time.AfterFunc(delay, func() { link.enqueue(frame) })
		return nil
	}
	link.enqueue(frame)
	return nil
}

// Stats snapshots the network's counters.
func (t *TCPNetwork) Stats() TCPStats {
	t.mu.Lock()
	links := make(map[int32]*peerLink, len(t.links))
	for id, l := range t.links {
		links[id] = l
	}
	t.mu.Unlock()
	s := TCPStats{
		Peers:              make(map[int32]TCPPeerStats, len(links)),
		FramesIn:           t.framesIn.Load(),
		BytesIn:            t.bytesIn.Load(),
		AuthFailures:       t.authFails.Load(),
		ProtocolViolations: t.protoFails.Load(),
	}
	for id, l := range links {
		s.Peers[id] = l.stats()
	}
	return s
}

// Close implements Endpoint.
func (t *TCPNetwork) Close() error {
	t.mu.Lock()
	if t.closed() {
		t.mu.Unlock()
		return nil
	}
	close(t.quit)
	links := make([]*peerLink, 0, len(t.links))
	for _, l := range t.links {
		links = append(links, l)
	}
	conns := make([]net.Conn, 0, len(t.inbound))
	for c := range t.inbound {
		conns = append(conns, c)
	}
	t.inbound = make(map[net.Conn]bool)
	t.mu.Unlock()

	err := t.ln.Close()
	for _, l := range links {
		l.close()
	}
	for _, c := range conns {
		_ = c.Close()
	}
	t.wg.Wait()
	for _, l := range links {
		<-l.writerDone
	}
	close(t.out)
	return err
}

// closed reports whether Close has begun. Close closes quit under mu, so a
// caller that holds mu sees a value that cannot change under it.
func (t *TCPNetwork) closed() bool {
	select {
	case <-t.quit:
		return true
	default:
		return false
	}
}

// addrOf resolves the current directory entry for a peer.
func (t *TCPNetwork) addrOf(id int32) (string, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	a, ok := t.peers[id]
	return a, ok
}

func (t *TCPNetwork) acceptLoop() {
	defer t.wg.Done()
	for {
		c, err := t.ln.Accept()
		if err != nil {
			return // listener closed
		}
		if !t.serve(c) {
			return
		}
	}
}

// serve starts the reader of one connection, accepted or dialed. It reports
// false (and closes c) when the network is shutting down; the reader is
// registered under mu so Close never waits on a WaitGroup still being added
// to.
func (t *TCPNetwork) serve(c net.Conn) bool {
	t.mu.Lock()
	if t.closed() {
		t.mu.Unlock()
		_ = c.Close()
		return false
	}
	t.inbound[c] = true
	t.wg.Add(1)
	t.mu.Unlock()
	go t.readLoop(c)
	return true
}

// answerOver makes c the way back to a client the directory does not list.
// The newest connection wins, so a client that reconnects (or a CLI re-run
// under the same ID) takes its replies with it, and the link on the
// connection it abandoned is retired.
func (t *TCPNetwork) answerOver(c net.Conn, client int32) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, listed := t.peers[client]; listed || t.closed() {
		return
	}
	if old := t.links[client]; old != nil {
		old.close()
	}
	t.links[client] = newPeerLink(t, client, c)
}

// forget unregisters a connection whose reader is gone, together with the
// return links that answered over it: their destinations are reachable
// again only by connecting anew.
func (t *TCPNetwork) forget(c net.Conn) {
	t.mu.Lock()
	defer t.mu.Unlock()
	delete(t.inbound, c)
	for id, l := range t.links {
		if l.back == c {
			l.close()
			delete(t.links, id)
		}
	}
}

// minBodyBuf is the smallest first buffer readBody allocates: a vote or a
// small batch whose bytes have not all arrived still fits it at once.
const minBodyBuf = 4 << 10

// errFrameLength is a length header out of bounds: a protocol violation.
var errFrameLength = errors.New("transport: frame length out of bounds")

// readFrame reads, authenticates and decodes one length-prefixed frame. A
// length out of bounds is errFrameLength, a bad MAC ErrAuthentication; any
// other error is the connection's.
func readFrame(br *bufio.Reader, mac hash.Hash) (Message, error) {
	var lenBuf [4]byte
	if _, err := io.ReadFull(br, lenBuf[:]); err != nil {
		return Message{}, err
	}
	n := binary.BigEndian.Uint32(lenBuf[:])
	if n > maxFrameSize || n < frameHeaderLen+sha256.Size {
		return Message{}, errFrameLength
	}
	buf, err := readBody(br, int(n))
	if err != nil {
		return Message{}, err
	}
	return decodeFrame(buf, mac)
}

// readBody reads an n-byte frame body into a buffer of its own. The length
// header is unauthenticated, so the buffer grows with the bytes that arrive
// (doubling from what is buffered already, or minBodyBuf): a sender holds at
// most twice what it has actually sent, not the 96 MiB four bytes can claim.
// A body that has arrived whole — nearly every frame — is still one
// exact-size allocation.
func readBody(br *bufio.Reader, n int) ([]byte, error) {
	buf := make([]byte, min(n, max(br.Buffered(), minBodyBuf)))
	for got := 0; ; {
		m, err := io.ReadFull(br, buf[got:])
		if got += m; err != nil {
			return nil, err
		}
		if got == n {
			return buf, nil
		}
		grown := make([]byte, min(n, 2*len(buf)))
		copy(grown, buf)
		buf = grown
	}
}

// readLoop authenticates and decodes frames off one inbound connection. The
// frame body is read into a buffer whose payload section is handed to the
// receiver without another copy (the body buffer is not reused, so aliasing
// is safe). A protocol violation or a failed authentication drops the link.
func (t *TCPNetwork) readLoop(c net.Conn) {
	defer t.wg.Done()
	defer func() {
		t.forget(c)
		_ = c.Close()
	}()
	br := bufio.NewReaderSize(c, readBufSize)
	mac := hmac.New(sha256.New, t.secret)
	// A connection is the way back to at most one client, the first to speak
	// on it: frames claiming further IDs are delivered but open no link.
	claimed := false
	for {
		m, err := readFrame(br, mac)
		switch {
		case errors.Is(err, errFrameLength):
			t.protoFails.Add(1)
			return
		case errors.Is(err, ErrAuthentication):
			t.authFails.Add(1)
			return
		case err != nil:
			return
		}
		t.framesIn.Add(1)
		t.bytesIn.Add(int64(4 + frameHeaderLen + len(m.Payload) + sha256.Size))
		if !claimed && m.From >= ClientIDBase {
			claimed = true
			t.answerOver(c, m.From)
		}
		select {
		case t.out <- m:
		case <-t.quit:
			return
		}
	}
}

// encodeFrame serializes one message: length prefix, body, MAC.
func (t *TCPNetwork) encodeFrame(m Message) []byte {
	bodyLen := frameHeaderLen + len(m.Payload)
	frame := make([]byte, 4+bodyLen+sha256.Size)
	binary.BigEndian.PutUint32(frame[0:], uint32(bodyLen+sha256.Size))
	body := frame[4 : 4+bodyLen]
	binary.BigEndian.PutUint32(body[0:], uint32(m.From))
	binary.BigEndian.PutUint32(body[4:], uint32(m.To))
	binary.BigEndian.PutUint16(body[8:], m.Type)
	copy(body[frameHeaderLen:], m.Payload)
	mac := hmac.New(sha256.New, t.secret)
	mac.Write(body)
	mac.Sum(frame[4+bodyLen : 4+bodyLen])
	return frame
}

// decodeFrame authenticates and parses a frame body (without the length
// prefix). mac is the caller's reused HMAC state. The returned payload
// aliases buf.
func decodeFrame(buf []byte, mac hash.Hash) (Message, error) {
	bodyLen := len(buf) - sha256.Size
	body, tag := buf[:bodyLen], buf[bodyLen:]
	mac.Reset()
	mac.Write(body)
	if !hmac.Equal(tag, mac.Sum(nil)) {
		return Message{}, ErrAuthentication
	}
	return Message{
		From:    int32(binary.BigEndian.Uint32(body[0:])),
		To:      int32(binary.BigEndian.Uint32(body[4:])),
		Type:    binary.BigEndian.Uint16(body[8:]),
		Payload: body[frameHeaderLen:],
	}, nil
}

// peerLink is one outbound link: a bounded frame queue drained by a writer
// goroutine through a buffered writer, with automatic reconnect. A return
// link (back != nil) writes to a connection the peer opened instead of
// dialing, and lives exactly as long as that connection.
type peerLink struct {
	net  *TCPNetwork
	id   int32
	back net.Conn

	mu     sync.Mutex
	cond   *sync.Cond
	queue  [][]byte
	closed bool
	up     bool

	stop       chan struct{} // closed once, by close: wakes a backoff wait
	writerDone chan struct{}

	enqueued   atomic.Int64
	sent       atomic.Int64
	sentBytes  atomic.Int64
	dropsFull  atomic.Int64
	dropsConn  atomic.Int64
	dials      atomic.Int64
	dialFails  atomic.Int64
	reconnects atomic.Int64
	writes     atomic.Int64
	flushes    atomic.Int64
}

func newPeerLink(t *TCPNetwork, id int32, back net.Conn) *peerLink {
	l := &peerLink{net: t, id: id, back: back, up: back != nil, stop: make(chan struct{}), writerDone: make(chan struct{})}
	l.cond = sync.NewCond(&l.mu)
	go l.writerLoop()
	return l
}

func (l *peerLink) stats() TCPPeerStats {
	l.mu.Lock()
	up := l.up
	l.mu.Unlock()
	return TCPPeerStats{
		Enqueued:       l.enqueued.Load(),
		Sent:           l.sent.Load(),
		SentBytes:      l.sentBytes.Load(),
		DropsQueueFull: l.dropsFull.Load(),
		DropsConnDown:  l.dropsConn.Load(),
		Dials:          l.dials.Load(),
		DialFailures:   l.dialFails.Load(),
		Reconnects:     l.reconnects.Load(),
		Writes:         l.writes.Load(),
		Flushes:        l.flushes.Load(),
		Up:             up,
	}
}

// enqueue admits one encoded frame; a full queue evicts its oldest.
func (l *peerLink) enqueue(frame []byte) {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return
	}
	if depth := l.net.opts.queueDepth; len(l.queue) >= depth {
		// Drop-oldest: evict from the front so the freshest protocol state
		// still goes out. The protocols above tolerate loss (fair links),
		// and fresher messages are worth more than stale ones.
		drop := 1 + len(l.queue) - depth
		l.queue = l.queue[drop:]
		l.dropsFull.Add(int64(drop))
	}
	l.queue = append(l.queue, frame)
	l.enqueued.Add(1)
	l.cond.Signal()
	l.mu.Unlock()
}

// dequeue blocks until a frame is available (or the link closes) and
// returns it. ok is false when the link is shutting down.
func (l *peerLink) dequeue() (frame []byte, ok bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for len(l.queue) == 0 && !l.closed {
		l.cond.Wait()
	}
	if l.closed && len(l.queue) == 0 {
		return nil, false
	}
	frame = l.queue[0]
	l.queue = l.queue[1:]
	return frame, true
}

// tryDequeue returns the next frame without blocking.
func (l *peerLink) tryDequeue() (frame []byte, ok bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.queue) == 0 {
		return nil, false
	}
	frame = l.queue[0]
	l.queue = l.queue[1:]
	return frame, true
}

func (l *peerLink) close() {
	l.mu.Lock()
	if !l.closed {
		close(l.stop)
	}
	l.closed = true
	l.queue = nil
	l.cond.Broadcast()
	l.mu.Unlock()
}

// setUp records a link-state transition, logging once per transition (not
// per message): up→down names the cause, down→up notes the recovery.
func (l *peerLink) setUp(up bool, cause error) {
	l.mu.Lock()
	changed := l.up != up
	wasUp := l.up
	l.up = up
	l.mu.Unlock()
	if !changed || l.net.closed() {
		return
	}
	if up {
		if l.dials.Load() > 1 {
			l.reconnects.Add(1)
		}
		if wasUp || l.reconnects.Load() > 0 {
			l.net.opts.logf("tcpnet %d: peer %d link up (reconnect %d)", l.net.id, l.id, l.reconnects.Load())
		}
	} else {
		l.net.opts.logf("tcpnet %d: peer %d link down: %v", l.net.id, l.id, cause)
	}
}

// writerLoop drains the queue through a buffered writer: frames are written
// back-to-back while the queue has work and flushed exactly when it idles,
// so a pipelined window amortizes syscalls without adding latency to a lone
// message. Connection loss re-enters the dial loop with jittered backoff;
// queued frames survive the outage (up to the queue policy).
func (l *peerLink) writerLoop() {
	defer close(l.writerDone)
	conn := l.back
	var bw *bufio.Writer
	if conn != nil {
		bw = bufio.NewWriterSize(conn, writeBufSize)
	}
	backoff := l.net.opts.backoffMin
	defer func() {
		if conn != nil {
			_ = conn.Close()
		}
	}()
	for {
		frame, ok := l.dequeue()
		if !ok {
			return
		}
		// Ensure a live connection; while down, frames keep arriving and
		// the queue policy bounds them.
		for conn == nil {
			if l.back != nil || l.net.closed() {
				return // a return link does not outlive its connection
			}
			c, err := l.dial()
			if err != nil {
				l.dialFails.Add(1)
				l.setUp(false, err)
				if !l.sleep(jittered(backoff)) {
					return
				}
				if backoff *= 2; backoff > l.net.opts.backoffMax {
					backoff = l.net.opts.backoffMax
				}
				continue
			}
			conn, bw = c, bufio.NewWriterSize(c, writeBufSize)
			backoff = l.net.opts.backoffMin
			l.setUp(true, nil)
			if l.net.id >= ClientIDBase {
				// A client's replies come back on the connections it dials.
				l.net.serve(c)
			}
		}
		for {
			if _, err := bw.Write(frame); err != nil {
				l.dropsConn.Add(1)
				l.setUp(false, err)
				_ = conn.Close()
				conn, bw = nil, nil
				break
			}
			l.writes.Add(1)
			l.sent.Add(1)
			l.sentBytes.Add(int64(len(frame)))
			next, more := l.tryDequeue()
			if !more {
				// Queue idle: flush the coalesced burst in one syscall.
				if err := bw.Flush(); err != nil {
					l.dropsConn.Add(1)
					l.setUp(false, err)
					_ = conn.Close()
					conn, bw = nil, nil
				} else {
					l.flushes.Add(1)
				}
				break
			}
			frame = next
		}
	}
}

// dial opens one connection to the peer's current directory address.
func (l *peerLink) dial() (net.Conn, error) {
	addr, ok := l.net.addrOf(l.id)
	if !ok {
		return nil, fmt.Errorf("%w: %d", ErrUnknownDest, l.id)
	}
	l.dials.Add(1)
	return net.DialTimeout("tcp", addr, l.net.opts.dialTimeout)
}

// sleep waits for d unless the link closes first.
func (l *peerLink) sleep(d time.Duration) bool {
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-timer.C:
		return true
	case <-l.stop:
		return false
	}
}

// jittered spreads d by ±50% so reconnect storms decorrelate.
func jittered(d time.Duration) time.Duration {
	if d <= 0 {
		return 0
	}
	return d/2 + time.Duration(rand.Int63n(int64(d)))
}

var _ Endpoint = (*TCPNetwork)(nil)
