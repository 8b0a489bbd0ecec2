package client

import (
	"sync"
	"testing"
	"time"

	"smartchain/internal/crypto"
	"smartchain/internal/smr"
	"smartchain/internal/transport"
)

// countingEndpoint counts the request copies the proxy sends, per sequence
// number, and delivers nothing.
type countingEndpoint struct {
	in        chan transport.Message
	closeOnce sync.Once

	mu    sync.Mutex
	sends map[uint64]int
}

func (c *countingEndpoint) ID() int32                         { return transport.ClientIDBase }
func (c *countingEndpoint) Receive() <-chan transport.Message { return c.in }
func (c *countingEndpoint) Close() error {
	c.closeOnce.Do(func() { close(c.in) })
	return nil
}

func (c *countingEndpoint) Send(_ int32, typ uint16, payload []byte) error {
	if typ != smr.MsgRequest {
		return nil
	}
	req, err := smr.DecodeRequest(payload)
	if err != nil {
		return err
	}
	c.mu.Lock()
	c.sends[req.Seq]++
	c.mu.Unlock()
	return nil
}

func (c *countingEndpoint) count(seq uint64) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.sends[seq]
}

// TestRetransmitSendsOnlyDueCalls steps the retransmit tick by hand on a
// virtual clock (the proxy's own one-hour ticker never fires): a call
// issued a millisecond before a tick is not re-sent on it, one outstanding
// for a full interval is, and the skipped call is re-sent on the next tick.
func TestRetransmitSendsOnlyDueCalls(t *testing.T) {
	const retry = time.Hour
	ep := &countingEndpoint{in: make(chan transport.Message), sends: make(map[uint64]int)}
	p := New(ep, crypto.SeededKeyPair("client", 0), stubMembers, WithRetry(retry))
	defer p.Close()
	n := len(stubMembers)

	old, err := p.register([]byte("old"), false)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := p.register([]byte("fresh"), false)
	if err != nil {
		t.Fatal(err)
	}
	p.mu.Lock()
	tick := old.sent.Add(retry)
	fresh.sent = tick.Add(-time.Millisecond)
	p.mu.Unlock()

	p.retransmit(tick)
	if got := ep.count(old.seq); got != 2*n {
		t.Fatalf("call outstanding a full interval: %d copies, want %d", got, 2*n)
	}
	if got := ep.count(fresh.seq); got != n {
		t.Fatalf("call sent just before the tick: %d copies, want %d (no re-send)", got, n)
	}

	p.retransmit(tick.Add(retry))
	if got := ep.count(old.seq); got != 3*n {
		t.Fatalf("next tick, old call: %d copies, want %d", got, 3*n)
	}
	if got := ep.count(fresh.seq); got != 2*n {
		t.Fatalf("next tick, fresh call: %d copies, want %d", got, 2*n)
	}
}
