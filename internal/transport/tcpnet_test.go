package transport

import (
	"bytes"
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"net"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

// codecNet builds a TCPNetwork shell good enough for encodeFrame (no
// listener, no goroutines).
func codecNet(id int32, secret string) *TCPNetwork {
	return &TCPNetwork{id: id, secret: []byte(secret)}
}

func newTestMAC(secret string) hash.Hash {
	return hmac.New(sha256.New, []byte(secret))
}

func TestTCPFrameCodecRoundTrip(t *testing.T) {
	enc := codecNet(3, "codec-secret")
	cases := []struct {
		name    string
		msg     Message
		corrupt func([]byte) // mutates the encoded frame, nil = leave intact
		wantErr bool
	}{
		{name: "basic", msg: Message{From: 3, To: 7, Type: 11, Payload: []byte("payload")}},
		{name: "zero-length payload", msg: Message{From: 3, To: 1, Type: 2, Payload: nil}},
		{name: "large payload", msg: Message{From: 3, To: 1, Type: 9, Payload: make([]byte, 128<<10)}},
		{
			name:    "bad mac",
			msg:     Message{From: 3, To: 7, Type: 11, Payload: []byte("forged")},
			corrupt: func(f []byte) { f[len(f)-1] ^= 0xff },
			wantErr: true,
		},
		{
			name:    "tampered payload",
			msg:     Message{From: 3, To: 7, Type: 11, Payload: []byte("tampered")},
			corrupt: func(f []byte) { f[4+frameHeaderLen] ^= 0x01 },
			wantErr: true,
		},
		{
			name:    "tampered header",
			msg:     Message{From: 3, To: 7, Type: 11, Payload: []byte("x")},
			corrupt: func(f []byte) { f[4] ^= 0x01 }, // From field
			wantErr: true,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			frame := enc.encodeFrame(tc.msg)
			wantBody := frameHeaderLen + len(tc.msg.Payload)
			if got := binary.BigEndian.Uint32(frame[:4]); int(got) != wantBody+sha256.Size {
				t.Fatalf("length prefix %d, want %d", got, wantBody+sha256.Size)
			}
			if tc.corrupt != nil {
				tc.corrupt(frame)
			}
			m, err := decodeFrame(frame[4:], newTestMAC("codec-secret"))
			if tc.wantErr {
				if err == nil {
					t.Fatal("decode of corrupted frame must fail authentication")
				}
				return
			}
			if err != nil {
				t.Fatalf("decode: %v", err)
			}
			if m.From != tc.msg.From || m.To != tc.msg.To || m.Type != tc.msg.Type {
				t.Fatalf("header mismatch: %+v vs %+v", m, tc.msg)
			}
			if string(m.Payload) != string(tc.msg.Payload) {
				t.Fatal("payload mismatch")
			}
		})
	}
}

func TestTCPFrameCodecWrongSecret(t *testing.T) {
	enc := codecNet(1, "secret-A")
	frame := enc.encodeFrame(Message{From: 1, To: 2, Type: 5, Payload: []byte("x")})
	if _, err := decodeFrame(frame[4:], newTestMAC("secret-B")); err == nil {
		t.Fatal("frame under the wrong secret must fail authentication")
	}
}

// TestTCPWireMalformedFrames drives raw bytes at a live listener and checks
// the protocol-violation and auth-failure accounting: a frame whose length
// prefix is oversized or too short to hold header+MAC is a protocol
// violation; a well-formed frame with a bad MAC is an auth failure. Both drop
// the link without delivering anything.
func TestTCPWireMalformedFrames(t *testing.T) {
	secret := []byte("wire-secret")
	rcv, err := NewTCPNetwork(1, "127.0.0.1:0", secret, nil, withLogf(func(string, ...any) {}))
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	defer rcv.Close()
	enc := codecNet(2, string(secret))

	goodFrame := enc.encodeFrame(Message{From: 2, To: 1, Type: 4, Payload: []byte("ok")})
	// Larger than four read buffers: the body is assembled across several
	// growth steps of readBody and must arrive intact.
	big := make([]byte, 300<<10)
	for i := range big {
		big[i] = byte(i * 7)
	}
	bigFrame := enc.encodeFrame(Message{From: 2, To: 1, Type: 4, Payload: big})
	badMAC := enc.encodeFrame(Message{From: 2, To: 1, Type: 4, Payload: []byte("bad")})
	badMAC[len(badMAC)-1] ^= 0xff

	oversized := make([]byte, 4)
	binary.BigEndian.PutUint32(oversized, maxFrameSize+1)
	truncated := make([]byte, 4)
	binary.BigEndian.PutUint32(truncated, frameHeaderLen+sha256.Size-1)

	cases := []struct {
		name      string
		raw       []byte
		wantProto int64
		wantAuth  int64
		delivered []byte // the payload that must arrive, nil = none
	}{
		{name: "good frame", raw: goodFrame, delivered: []byte("ok")},
		{name: "good frame of several buffers", raw: bigFrame, delivered: big},
		{name: "oversized length", raw: oversized, wantProto: 1},
		{name: "truncated header", raw: truncated, wantProto: 1},
		{name: "bad mac", raw: badMAC, wantAuth: 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			before := rcv.Stats()
			c, err := net.Dial("tcp", rcv.Addr())
			if err != nil {
				t.Fatalf("dial: %v", err)
			}
			defer c.Close()
			if _, err := c.Write(tc.raw); err != nil {
				t.Fatalf("write: %v", err)
			}
			if tc.delivered != nil {
				m := recvOne(t, rcv, 2*time.Second)
				if m.Type != 4 || !bytes.Equal(m.Payload, tc.delivered) {
					t.Fatalf("bad delivery: type %d, %d payload bytes", m.Type, len(m.Payload))
				}
				return
			}
			deadline := time.Now().Add(2 * time.Second)
			for time.Now().Before(deadline) {
				s := rcv.Stats()
				if s.ProtocolViolations-before.ProtocolViolations >= tc.wantProto &&
					s.AuthFailures-before.AuthFailures >= tc.wantAuth {
					expectNone(t, rcv, 30*time.Millisecond)
					return
				}
				time.Sleep(5 * time.Millisecond)
			}
			t.Fatalf("counters never moved: %+v", rcv.Stats())
		})
	}
}

func TestTCPSendAfterCloseReturnsErrClosed(t *testing.T) {
	a, err := NewTCPNetwork(1, "127.0.0.1:0", []byte("s"), map[int32]string{2: "127.0.0.1:1"})
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	a.Close()
	if err := a.Send(2, 0, nil); err != ErrClosed {
		t.Fatalf("send after close: %v, want ErrClosed", err)
	}
}

// TestTCPCloseWithUndrainedReceiver: Close must return even when nobody
// reads Receive any more and the readers sit on a full delivery channel (a
// stopped node whose peers keep sending).
func TestTCPCloseWithUndrainedReceiver(t *testing.T) {
	secret := []byte("undrained-secret")
	rcv, err := NewTCPNetwork(1, "127.0.0.1:0", secret, nil, withLogf(func(string, ...any) {}))
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	snd, err := NewTCPNetwork(2, "127.0.0.1:0", secret, map[int32]string{1: rcv.Addr()}, withLogf(func(string, ...any) {}))
	if err != nil {
		t.Fatalf("listen sender: %v", err)
	}
	defer snd.Close()
	const frames = 2 * 1024 // twice the delivery channel
	for i := 0; i < frames; i++ {
		if err := snd.Send(1, 50, []byte("unread")); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for rcv.Stats().FramesIn <= 1024 {
		if time.Now().After(deadline) {
			t.Fatalf("only %d frames arrived", rcv.Stats().FramesIn)
		}
		time.Sleep(5 * time.Millisecond)
	}
	closed := make(chan struct{})
	go func() {
		rcv.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close hung behind a reader blocked on the undrained delivery channel")
	}
}

// deadAddr returns a loopback address that refuses connections (a listener
// that was bound and immediately closed).
func deadAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

func TestTCPQueueDropOldestAccounting(t *testing.T) {
	a, err := NewTCPNetwork(1, "127.0.0.1:0", []byte("s"),
		map[int32]string{2: deadAddr(t)},
		withQueueDepth(4),
		withBackoff(100*time.Millisecond, 100*time.Millisecond),
		withDialTimeout(50*time.Millisecond),
		withLogf(func(string, ...any) {}))
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	defer a.Close()

	const sends = 10
	for i := 0; i < sends; i++ {
		if err := a.Send(2, uint16(i), []byte("frame")); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	// The writer holds at most one dequeued frame while stuck in dial
	// backoff; the queue holds 4 more; the rest must be evicted from the
	// front and counted.
	deadline := time.Now().Add(2 * time.Second)
	for {
		ps := a.Stats().Peers[2]
		if ps.Enqueued == sends && ps.DropsQueueFull >= sends-4-1 {
			if ps.DialFailures == 0 && time.Now().Before(deadline) {
				time.Sleep(5 * time.Millisecond)
				continue // also wait for the dial-failure accounting
			}
			if ps.DialFailures == 0 {
				t.Fatalf("dial failures never counted: %+v", ps)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("drop-oldest accounting wrong: %+v", ps)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestTCPLengthHeaderAlonePinsNothing: the length header is unauthenticated,
// so a peer in nobody's directory must not be able to pin a frame's worth of
// memory with four bytes. Two connections each claim a maxFrameSize frame and
// stall; the receiver may hold a read buffer and a first body buffer for
// each, nothing near the 2 × 96 MiB claimed (what make([]byte, n) cost
// before the body was read as it arrives).
func TestTCPLengthHeaderAlonePinsNothing(t *testing.T) {
	rcv, err := NewTCPNetwork(1, "127.0.0.1:0", []byte("wire-secret"), nil, withLogf(func(string, ...any) {}))
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	defer rcv.Close()
	readers := func() int {
		rcv.mu.Lock()
		defer rcv.mu.Unlock()
		return len(rcv.inbound)
	}
	waitReaders := func(want int) {
		t.Helper()
		for deadline := time.Now().Add(2 * time.Second); readers() != want; time.Sleep(5 * time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("%d readers, want %d", readers(), want)
			}
		}
	}
	header := binary.BigEndian.AppendUint32(nil, maxFrameSize)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var conns []net.Conn
	for i := 0; i < 2; i++ {
		c, err := net.Dial("tcp", rcv.Addr())
		if err != nil {
			t.Fatalf("dial: %v", err)
		}
		defer c.Close()
		if _, err := c.Write(header); err != nil {
			t.Fatalf("write: %v", err)
		}
		conns = append(conns, c)
	}
	waitReaders(len(conns))
	time.Sleep(100 * time.Millisecond) // the readers are parked on the missing bodies
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Fatalf("two stalled 4-byte headers made the receiver allocate %d bytes", grew)
	}
	for _, c := range conns {
		c.Close()
	}
	waitReaders(0)
	if s := rcv.Stats(); s.FramesIn != 0 || s.AuthFailures != 0 || s.ProtocolViolations != 0 {
		t.Fatalf("a stalled, then closed, connection was accounted as a frame or a violation: %+v", s)
	}
}

func TestTCPReconnectUnderLoad(t *testing.T) {
	secret := []byte("reconnect-secret")
	var logMu sync.Mutex
	var logs []string
	logf := func(format string, args ...any) {
		logMu.Lock()
		logs = append(logs, fmt.Sprintf(format, args...))
		logMu.Unlock()
	}
	countLogs := func(substr string) int {
		logMu.Lock()
		defer logMu.Unlock()
		n := 0
		for _, l := range logs {
			if strings.Contains(l, substr) {
				n++
			}
		}
		return n
	}

	b1, err := NewTCPNetwork(2, "127.0.0.1:0", secret, nil, withLogf(func(string, ...any) {}))
	if err != nil {
		t.Fatalf("listen b1: %v", err)
	}
	addr := b1.Addr()
	a, err := NewTCPNetwork(1, "127.0.0.1:0", secret,
		map[int32]string{2: addr},
		withBackoff(10*time.Millisecond, 50*time.Millisecond),
		withDialTimeout(200*time.Millisecond),
		withLogf(logf))
	if err != nil {
		t.Fatalf("listen a: %v", err)
	}
	defer a.Close()

	// Continuous load across the restart.
	stop := make(chan struct{})
	var senderWG sync.WaitGroup
	senderWG.Add(1)
	go func() {
		defer senderWG.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			_ = a.Send(2, uint16(i%1000), []byte("load"))
			time.Sleep(500 * time.Microsecond)
		}
	}()

	drain := func(ep Endpoint, n int, timeout time.Duration) int {
		got := 0
		deadline := time.After(timeout)
		for got < n {
			select {
			case _, ok := <-ep.Receive():
				if !ok {
					return got
				}
				got++
			case <-deadline:
				return got
			}
		}
		return got
	}
	if got := drain(b1, 50, 5*time.Second); got < 50 {
		t.Fatalf("pre-restart delivery stalled at %d", got)
	}

	// Kill the receiver mid-stream and bring it back on the same address.
	b1.Close()
	b2, err := NewTCPNetwork(2, addr, secret, nil, withLogf(func(string, ...any) {}))
	if err != nil {
		t.Fatalf("restart b: %v", err)
	}
	defer b2.Close()

	if got := drain(b2, 50, 10*time.Second); got < 50 {
		t.Fatalf("post-restart delivery stalled at %d", got)
	}
	close(stop)
	senderWG.Wait()

	ps := a.Stats().Peers[2]
	if ps.Reconnects < 1 {
		t.Fatalf("no reconnect recorded: %+v", ps)
	}
	// Transition logging fires once per state change, not once per dropped
	// frame or failed dial: during one outage window the link logs exactly
	// one down and one up.
	if downs := countLogs("link down"); downs < 1 || downs > 2 {
		t.Fatalf("link-down logged %d times across one outage", downs)
	}
	if ups := countLogs("link up"); ups < 1 || ups > 2 {
		t.Fatalf("link-up logged %d times across one outage", ups)
	}
}

func TestTCPDelayInjection(t *testing.T) {
	// The delay is set on the empty fabric, before any endpoint exists, the
	// way Cluster applies NetLatency: endpoints created later inherit it.
	f := NewTCPFabric([]byte("s"))
	defer f.Close()
	f.SetDelay(60 * time.Millisecond)
	a, err := f.Endpoint(1)
	if err != nil {
		t.Fatalf("endpoint a: %v", err)
	}
	b, err := f.Endpoint(2)
	if err != nil {
		t.Fatalf("endpoint b: %v", err)
	}

	// Prime the connection so dial time does not pollute the measurement.
	_ = a.Send(2, 0, nil)
	recvOne(t, b, 2*time.Second)

	start := time.Now()
	_ = a.Send(2, 1, nil)
	recvOne(t, b, 2*time.Second)
	if d := time.Since(start); d < 40*time.Millisecond {
		t.Fatalf("fabric delay not applied: delivered in %v", d)
	}

	f.SetDelay(0)
	start = time.Now()
	_ = a.Send(2, 2, nil)
	recvOne(t, b, 2*time.Second)
	if d := time.Since(start); d >= 40*time.Millisecond {
		t.Fatalf("cleared delay still applied: %v", d)
	}
}

// TestTCPClientOutsideDirectoryGetsReplies is the deployment shape of
// cmd/smartchaind + cmd/smartcoin: replicas hold a static directory of each
// other, a client knows the replicas and appears in nobody's directory. The
// replica must answer it over the connection its authenticated request came
// in on — also when the client process is re-run under the same ID on a fresh
// port — while a directory entry is never re-pointed and an unknown replica
// ID stays unknown.
func TestTCPClientOutsideDirectoryGetsReplies(t *testing.T) {
	secret := []byte("return-path-secret")
	quiet := withLogf(func(string, ...any) {})
	replica, err := NewTCPNetwork(0, "127.0.0.1:0", secret, nil, quiet)
	if err != nil {
		t.Fatalf("listen replica: %v", err)
	}
	defer replica.Close()
	directory := map[int32]string{0: replica.Addr()}
	const clientID = ClientIDBase + 1

	if err := replica.Send(clientID, 1, nil); err == nil {
		t.Fatal("a client that never connected must be an unknown destination")
	}
	for run := 1; run <= 2; run++ {
		client, err := NewTCPNetwork(clientID, "127.0.0.1:0", secret, directory, quiet)
		if err != nil {
			t.Fatalf("run %d: listen client: %v", run, err)
		}
		if err := client.Send(0, 40, []byte("request")); err != nil {
			t.Fatalf("run %d: request: %v", run, err)
		}
		if m := recvOne(t, replica, 5*time.Second); m.From != clientID || m.Type != 40 {
			t.Fatalf("run %d: bad request: %+v", run, m)
		}
		// Several replies, as a replica answers a burst of invocations.
		for i := 0; i < 3; i++ {
			if err := replica.Send(clientID, 41, []byte{byte(run), byte(i)}); err != nil {
				t.Fatalf("run %d: reply %d: %v", run, i, err)
			}
			m := recvOne(t, client, 5*time.Second)
			if m.From != 0 || m.Type != 41 || len(m.Payload) != 2 || m.Payload[0] != byte(run) || m.Payload[1] != byte(i) {
				t.Fatalf("run %d: bad reply %d: %+v", run, i, m)
			}
		}
		client.Close()
	}
	if s := replica.Stats(); s.TotalDrops() != 0 || s.AuthFailures != 0 || s.ProtocolViolations != 0 {
		t.Fatalf("return path lost frames: %+v", s)
	}

	// A directory entry wins over the connection a frame arrives on: replies
	// to a listed client go to its listed address, whoever claims its ID.
	listed, err := NewTCPNetwork(ClientIDBase+2, "127.0.0.1:0", secret, nil, quiet)
	if err != nil {
		t.Fatalf("listen listed: %v", err)
	}
	defer listed.Close()
	replica.AddPeer(ClientIDBase+2, listed.Addr())
	claimant, err := NewTCPNetwork(ClientIDBase+2, "127.0.0.1:0", secret, directory, quiet)
	if err != nil {
		t.Fatalf("listen claimant: %v", err)
	}
	defer claimant.Close()
	if err := claimant.Send(0, 42, nil); err != nil {
		t.Fatalf("claimant request: %v", err)
	}
	recvOne(t, replica, 5*time.Second)
	if err := replica.Send(ClientIDBase+2, 43, []byte("to the directory")); err != nil {
		t.Fatalf("reply to listed client: %v", err)
	}
	if m := recvOne(t, listed, 5*time.Second); m.Type != 43 {
		t.Fatalf("listed client got %+v", m)
	}
	expectNone(t, claimant, 100*time.Millisecond)

	// Replica IDs never get a return link: an unlisted one stays unknown.
	stranger, err := NewTCPNetwork(9, "127.0.0.1:0", secret, directory, quiet)
	if err != nil {
		t.Fatalf("listen stranger: %v", err)
	}
	defer stranger.Close()
	if err := stranger.Send(0, 44, nil); err != nil {
		t.Fatalf("stranger request: %v", err)
	}
	recvOne(t, replica, 5*time.Second)
	if err := replica.Send(9, 45, nil); err == nil {
		t.Fatal("an unlisted replica ID must stay an unknown destination")
	}
}

func TestTCPFabricDirectoryAndLateJoin(t *testing.T) {
	f := NewTCPFabric([]byte("fabric-secret"), withLogf(func(string, ...any) {}))
	defer f.Close()

	eps := make(map[int32]*TCPNetwork)
	for _, id := range []int32{0, 1, 2} {
		n, err := f.Endpoint(id)
		if err != nil {
			t.Fatalf("endpoint %d: %v", id, err)
		}
		eps[id] = n
	}
	// Late joiner: the existing members must learn its address without any
	// explicit AddPeer (this is how replicas dial clients back).
	late, err := f.Endpoint(70000)
	if err != nil {
		t.Fatalf("late endpoint: %v", err)
	}
	eps[70000] = late

	if _, err := f.Endpoint(1); err == nil {
		t.Fatal("duplicate endpoint must be rejected")
	}

	// Every direction, including old→late and late→old.
	pairs := [][2]int32{{0, 1}, {1, 0}, {2, 70000}, {70000, 2}, {0, 70000}}
	for _, p := range pairs {
		if err := eps[p[0]].Send(p[1], 33, []byte("mesh")); err != nil {
			t.Fatalf("send %d→%d: %v", p[0], p[1], err)
		}
		m := recvOne(t, eps[p[1]], 5*time.Second)
		if m.From != p[0] || m.Type != 33 {
			t.Fatalf("bad message %d→%d: %+v", p[0], p[1], m)
		}
	}

	if s := f.Stats(); len(s) != 4 {
		t.Fatalf("stats has %d endpoints, want 4", len(s))
	}
}

func TestTCPFabricDetachKeepsDirectory(t *testing.T) {
	f := NewTCPFabric([]byte("fabric-secret"),
		withBackoff(10*time.Millisecond, 50*time.Millisecond),
		withDialTimeout(200*time.Millisecond),
		withLogf(func(string, ...any) {}))
	defer f.Close()

	a, err := f.Endpoint(1)
	if err != nil {
		t.Fatalf("endpoint 1: %v", err)
	}
	if _, err := f.Endpoint(2); err != nil {
		t.Fatalf("endpoint 2: %v", err)
	}
	f.Detach(2)

	// The survivor keeps the directory entry: sends queue (fair links, no
	// hard error), and the failure shows up as dial accounting, not
	// ErrUnknownDest.
	if err := a.Send(2, 0, []byte("into the void")); err != nil {
		t.Fatalf("send to detached peer must stay advisory: %v", err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for a.Stats().Peers[2].DialFailures == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("dial failures not counted after detach: %+v", a.Stats().Peers[2])
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Recovery: a fresh endpoint under the same ID gets a new port that is
	// re-announced, and the survivor's link follows the directory on its
	// next reconnect.
	b2, err := f.Endpoint(2)
	if err != nil {
		t.Fatalf("re-endpoint 2: %v", err)
	}
	if err := a.Send(2, 44, []byte("back")); err != nil {
		t.Fatalf("send after recovery: %v", err)
	}
	// The frame queued during the outage may legitimately arrive first —
	// links queue across reconnects — so drain until the fresh one shows up.
	deadline = time.Now().Add(10 * time.Second)
	for {
		m := recvOne(t, b2, time.Until(deadline))
		if m.From == 1 && m.Type == 44 {
			return
		}
	}
}

// withQueueDepth bounds the per-peer send queue (frames).
func withQueueDepth(depth int) TCPOption {
	return func(o *tcpOptions) { o.queueDepth = depth }
}

// withDialTimeout bounds one dial attempt.
func withDialTimeout(d time.Duration) TCPOption {
	return func(o *tcpOptions) { o.dialTimeout = d }
}

// withBackoff sets the reconnect backoff range.
func withBackoff(minimum, maximum time.Duration) TCPOption {
	return func(o *tcpOptions) { o.backoffMin, o.backoffMax = minimum, maximum }
}
