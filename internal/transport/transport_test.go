package transport

import (
	"sync"
	"testing"
	"time"
)

func recvOne(t *testing.T, ep Endpoint, timeout time.Duration) Message {
	t.Helper()
	select {
	case m, ok := <-ep.Receive():
		if !ok {
			t.Fatal("receive channel closed")
		}
		return m
	case <-time.After(timeout):
		t.Fatal("timed out waiting for message")
	}
	return Message{}
}

func expectNone(t *testing.T, ep Endpoint, wait time.Duration) {
	t.Helper()
	select {
	case m := <-ep.Receive():
		t.Fatalf("unexpected message: %+v", m)
	case <-time.After(wait):
	}
}

func TestMemNetworkBasicDelivery(t *testing.T) {
	net := NewMemNetwork()
	a := net.Endpoint(1)
	b := net.Endpoint(2)
	defer a.Close()
	defer b.Close()

	if err := a.Send(2, 7, []byte("hi")); err != nil {
		t.Fatalf("send: %v", err)
	}
	m := recvOne(t, b, time.Second)
	if m.From != 1 || m.To != 2 || m.Type != 7 || string(m.Payload) != "hi" {
		t.Fatalf("bad message: %+v", m)
	}
}

func TestMemNetworkPayloadIsCopied(t *testing.T) {
	net := NewMemNetwork()
	a := net.Endpoint(1)
	b := net.Endpoint(2)
	defer a.Close()
	defer b.Close()

	buf := []byte("original")
	if err := a.Send(2, 0, buf); err != nil {
		t.Fatalf("send: %v", err)
	}
	buf[0] = 'X'
	m := recvOne(t, b, time.Second)
	if string(m.Payload) != "original" {
		t.Fatalf("payload aliased sender buffer: %q", m.Payload)
	}
}

func TestMemNetworkFIFOPerEndpoint(t *testing.T) {
	net := NewMemNetwork()
	a := net.Endpoint(1)
	b := net.Endpoint(2)
	defer a.Close()
	defer b.Close()

	const n = 100
	for i := 0; i < n; i++ {
		if err := a.Send(2, uint16(i), nil); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	for i := 0; i < n; i++ {
		m := recvOne(t, b, time.Second)
		if m.Type != uint16(i) {
			t.Fatalf("out of order: got %d want %d", m.Type, i)
		}
	}
}

func TestMemNetworkUnknownDestination(t *testing.T) {
	net := NewMemNetwork()
	a := net.Endpoint(1)
	defer a.Close()
	if err := a.Send(99, 0, nil); err == nil {
		t.Fatal("send to unknown destination should return advisory error")
	}
}

func TestMemNetworkDetachAndReattach(t *testing.T) {
	net := NewMemNetwork()
	a := net.Endpoint(1)
	b := net.Endpoint(2)
	defer a.Close()

	net.Detach(2)
	if err := a.Send(2, 0, nil); err == nil {
		t.Fatal("send to detached endpoint should error")
	}
	// Old endpoint's channel must be closed.
	if _, ok := <-b.Receive(); ok {
		t.Fatal("detached endpoint channel must close")
	}

	b2 := net.Endpoint(2) // recovery
	defer b2.Close()
	if err := a.Send(2, 5, nil); err != nil {
		t.Fatalf("send after reattach: %v", err)
	}
	if m := recvOne(t, b2, time.Second); m.Type != 5 {
		t.Fatalf("bad message after reattach: %+v", m)
	}
}

func TestMemNetworkIsolate(t *testing.T) {
	net := NewMemNetwork()
	a := net.Endpoint(1)
	b := net.Endpoint(2)
	defer a.Close()
	defer b.Close()

	iso := net.Isolate(2)
	if err := a.Send(2, 0, nil); err != nil {
		t.Fatalf("send to isolated node should be silently dropped, got %v", err)
	}
	expectNone(t, b, 50*time.Millisecond)

	net.RemoveFilter(iso)
	if err := a.Send(2, 1, nil); err != nil {
		t.Fatalf("send after lifting isolation: %v", err)
	}
	if m := recvOne(t, b, time.Second); m.Type != 1 {
		t.Fatalf("bad message after lifting isolation: %+v", m)
	}
}

func TestMemNetworkLatency(t *testing.T) {
	net := NewMemNetwork(WithLatency(30 * time.Millisecond))
	a := net.Endpoint(1)
	b := net.Endpoint(2)
	defer a.Close()
	defer b.Close()

	start := time.Now()
	_ = a.Send(2, 0, nil)
	recvOne(t, b, time.Second)
	if d := time.Since(start); d < 25*time.Millisecond {
		t.Fatalf("latency not applied: delivered in %v", d)
	}
}

func TestMemNetworkSendAfterCloseFails(t *testing.T) {
	net := NewMemNetwork()
	a := net.Endpoint(1)
	net.Endpoint(2)
	a.Close()
	if err := a.Send(2, 0, nil); err == nil {
		t.Fatal("send after close must fail")
	}
}

func TestMemNetworkConcurrentSenders(t *testing.T) {
	net := NewMemNetwork()
	dst := net.Endpoint(0)
	defer dst.Close()

	const senders, each = 8, 200
	var wg sync.WaitGroup
	for s := 1; s <= senders; s++ {
		ep := net.Endpoint(int32(s))
		wg.Add(1)
		go func(ep Endpoint) {
			defer wg.Done()
			defer ep.Close()
			for i := 0; i < each; i++ {
				_ = ep.Send(0, 0, []byte{1})
			}
		}(ep)
	}
	got := 0
	deadline := time.After(5 * time.Second)
	for got < senders*each {
		select {
		case <-dst.Receive():
			got++
		case <-deadline:
			t.Fatalf("received %d of %d", got, senders*each)
		}
	}
	wg.Wait()
}

func TestTCPNetworkRoundTrip(t *testing.T) {
	secret := []byte("deployment-secret")
	a, err := NewTCPNetwork(1, "127.0.0.1:0", secret, nil)
	if err != nil {
		t.Fatalf("listen a: %v", err)
	}
	defer a.Close()
	b, err := NewTCPNetwork(2, "127.0.0.1:0", secret, nil)
	if err != nil {
		t.Fatalf("listen b: %v", err)
	}
	defer b.Close()
	a.AddPeer(2, b.Addr())
	b.AddPeer(1, a.Addr())

	if err := a.Send(2, 11, []byte("over tcp")); err != nil {
		t.Fatalf("send: %v", err)
	}
	m := recvOne(t, b, 2*time.Second)
	if m.From != 1 || m.Type != 11 || string(m.Payload) != "over tcp" {
		t.Fatalf("bad message: %+v", m)
	}

	// Reply path uses b's own dialed connection.
	if err := b.Send(1, 12, []byte("pong")); err != nil {
		t.Fatalf("reply: %v", err)
	}
	m = recvOne(t, a, 2*time.Second)
	if m.From != 2 || m.Type != 12 || string(m.Payload) != "pong" {
		t.Fatalf("bad reply: %+v", m)
	}
}

func TestTCPNetworkAuthenticationRejectsWrongSecret(t *testing.T) {
	a, err := NewTCPNetwork(1, "127.0.0.1:0", []byte("secret-A"), nil)
	if err != nil {
		t.Fatalf("listen a: %v", err)
	}
	defer a.Close()
	b, err := NewTCPNetwork(2, "127.0.0.1:0", []byte("secret-B"), nil)
	if err != nil {
		t.Fatalf("listen b: %v", err)
	}
	defer b.Close()
	b.AddPeer(1, a.Addr())

	if err := b.Send(1, 1, []byte("forged")); err != nil {
		t.Fatalf("send itself should succeed: %v", err)
	}
	expectNone(t, a, 100*time.Millisecond)
}

func TestTCPNetworkUnknownPeer(t *testing.T) {
	a, err := NewTCPNetwork(1, "127.0.0.1:0", []byte("s"), nil)
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	defer a.Close()
	if err := a.Send(42, 0, nil); err == nil {
		t.Fatal("send to unknown peer must fail")
	}
}

func TestTCPNetworkManyMessages(t *testing.T) {
	secret := []byte("s")
	a, err := NewTCPNetwork(1, "127.0.0.1:0", secret, nil)
	if err != nil {
		t.Fatalf("listen a: %v", err)
	}
	defer a.Close()
	b, err := NewTCPNetwork(2, "127.0.0.1:0", secret, nil)
	if err != nil {
		t.Fatalf("listen b: %v", err)
	}
	defer b.Close()
	a.AddPeer(2, b.Addr())

	const n = 500
	go func() {
		for i := 0; i < n; i++ {
			_ = a.Send(2, uint16(i), []byte{byte(i)})
		}
	}()
	for i := 0; i < n; i++ {
		m := recvOne(t, b, 5*time.Second)
		if m.Type != uint16(i) {
			t.Fatalf("out of order over tcp: got %d want %d", m.Type, i)
		}
	}
}

func TestMemNetworkFilterStackComposes(t *testing.T) {
	net := NewMemNetwork()
	a := net.Endpoint(1)
	b := net.Endpoint(2)
	c := net.Endpoint(3)
	defer a.Close()
	defer b.Close()
	defer c.Close()

	// Two overlapping scenarios: one loses everything to 2, the other
	// everything to 3. Both must hold at once (any-filter-drops semantics).
	to2 := net.AddFilter(func(m Message) bool { return m.To == 2 })
	to3 := net.AddFilter(func(m Message) bool { return m.To == 3 })
	_ = a.Send(2, 0, nil)
	_ = a.Send(3, 0, nil)
	expectNone(t, b, 50*time.Millisecond)
	expectNone(t, c, 50*time.Millisecond)

	// Removing one scenario must not disturb the other.
	net.RemoveFilter(to2)
	_ = a.Send(2, 0, nil)
	_ = a.Send(3, 0, nil)
	recvOne(t, b, time.Second)
	expectNone(t, c, 50*time.Millisecond)

	net.RemoveFilter(to3)
	net.RemoveFilter(to3) // double-remove is harmless
	_ = a.Send(3, 0, nil)
	recvOne(t, c, time.Second)

	// An isolation is one more filter on the same stack: lifting it leaves
	// a targeted filter's drops in force, and lifting the filter leaves the
	// isolation's.
	iso := net.Isolate(2)
	to3 = net.AddFilter(func(m Message) bool { return m.To == 3 })
	_ = a.Send(2, 0, nil)
	_ = a.Send(3, 0, nil)
	expectNone(t, b, 50*time.Millisecond)
	expectNone(t, c, 50*time.Millisecond)
	net.RemoveFilter(iso)
	_ = a.Send(2, 0, nil)
	_ = a.Send(3, 0, nil)
	recvOne(t, b, time.Second)
	expectNone(t, c, 50*time.Millisecond)

	iso = net.Isolate(2)
	net.RemoveFilter(to3)
	_ = c.Send(2, 0, nil)
	_ = b.Send(1, 0, nil)
	_ = a.Send(3, 0, nil)
	expectNone(t, b, 50*time.Millisecond)
	expectNone(t, a, 50*time.Millisecond)
	recvOne(t, c, time.Second)
	net.RemoveFilter(iso)
}
