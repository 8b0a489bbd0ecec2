package core

import (
	"context"
	"testing"
	"time"

	"smartchain/internal/coin"
	"smartchain/internal/crypto"
	"smartchain/internal/smr"
	"smartchain/internal/transport"
)

// rawReadClient drives the unordered-read wire protocol directly (no
// proxy): it lets a test aim a read with a chosen ReadFloor at ONE replica
// and inspect the raw reply, park behavior included.
type rawReadClient struct {
	ep  transport.Endpoint
	key *crypto.KeyPair
	seq uint64
}

func newRawReadClient(t *testing.T, c *Cluster) *rawReadClient {
	t.Helper()
	return &rawReadClient{ep: c.ClientEndpoint(), key: crypto.SeededKeyPair("raw-read", 7)}
}

// sign builds one unordered balance query with the given floor.
func (r *rawReadClient) sign(t *testing.T, floor int64, addr crypto.PublicKey) smr.Request {
	t.Helper()
	r.seq++
	req, err := smr.NewSignedUnordered(int64(r.ep.ID()), r.seq, floor,
		WrapAppOp(coin.EncodeBalanceQuery(addr)), r.key)
	if err != nil {
		t.Fatalf("sign read: %v", err)
	}
	return req
}

// post sends req to one replica and returns immediately.
func (r *rawReadClient) post(t *testing.T, to int32, req smr.Request) {
	t.Helper()
	if err := r.ep.Send(to, smr.MsgRequest, req.Encode()); err != nil {
		t.Fatalf("send read: %v", err)
	}
}

// send signs and posts one query.
func (r *rawReadClient) send(t *testing.T, to int32, floor int64, addr crypto.PublicKey) smr.Request {
	t.Helper()
	req := r.sign(t, floor, addr)
	r.post(t, to, req)
	return req
}

// await returns the next reply matching one of the requests' digests, or
// ok=false after the timeout.
func (r *rawReadClient) await(t *testing.T, timeout time.Duration, reqs ...smr.Request) (smr.Reply, bool) {
	t.Helper()
	wanted := func(rep smr.Reply) bool {
		for i := range reqs {
			if rep.Digest == reqs[i].Digest() {
				return true
			}
		}
		return false
	}
	deadline := time.After(timeout)
	for {
		select {
		case m, open := <-r.ep.Receive():
			if !open {
				return smr.Reply{}, false
			}
			if m.Type != smr.MsgReply {
				continue
			}
			rep, err := smr.DecodeReply(m.Payload)
			if err != nil || !wanted(rep) {
				continue
			}
			return rep, true
		case <-deadline:
			return smr.Reply{}, false
		}
	}
}

// TestReadFloorParksUntilCommit: a read with floor H+1 aimed at a replica
// at height H produces NO reply until the next block commits, then the
// parked read is served from the post-commit state — the replica-side half
// of read-your-writes.
//
// The park lasts DefaultReadParkTimeout (1 s): the pause plus one commit
// must fit well inside it, so the pause is short. Parking, not the pause,
// is what the reply's tag height and balance prove below: a read answered
// before the commit would carry height h and balance 100.
func TestReadFloorParksUntilCommit(t *testing.T) {
	c, minter := testCluster(t, 4, nil)
	p := registeredClient(t, c, minter)
	defer p.Close()

	mint(t, p, 1, 100)
	if err := c.WaitHeight(1, 5*time.Second); err != nil {
		t.Fatalf("height: %v", err)
	}
	h := c.Nodes[0].Node.Ledger().Height()

	raw := newRawReadClient(t, c)
	req := raw.send(t, 0, h+1, minter.Public())
	if rep, ok := raw.await(t, 150*time.Millisecond, req); ok {
		t.Fatalf("read at floor %d answered while replica is at height %d: %+v", h+1, h, rep)
	}

	// The next write advances the height past the floor: the parked read
	// must now be served, and from the NEW state (both mints visible).
	mint(t, p, 2, 50)
	rep, ok := raw.await(t, 5*time.Second, req)
	if !ok {
		t.Fatal("parked read never served after commit reached the floor")
	}
	if rep.Flags&smr.ReplyFlagBehind != 0 {
		t.Fatalf("parked read expired instead of serving: %+v", rep)
	}
	bal, err := coin.ParseUint64Result(rep.Result)
	if err != nil || bal != 150 {
		t.Fatalf("parked read balance: %d (err %v), want 150", bal, err)
	}
	if rep.Tag.Height < h+1 {
		t.Fatalf("served reply tagged height %d below floor %d", rep.Tag.Height, h+1)
	}
}

// TestReadFloorParkTimeoutAnswersBehind: a floor no commit will reach
// expires after DefaultReadParkTimeout with a ReplyFlagBehind reply — the
// signal the client's ordered fallback keys on.
func TestReadFloorParkTimeoutAnswersBehind(t *testing.T) {
	c, minter := testCluster(t, 4, nil)
	p := registeredClient(t, c, minter)
	defer p.Close()
	mint(t, p, 1, 100)

	raw := newRawReadClient(t, c)
	req := raw.send(t, 0, 1_000_000, minter.Public())
	rep, ok := raw.await(t, 5*time.Second, req)
	if !ok {
		t.Fatal("no reply to an unserveable floor")
	}
	if rep.Flags&smr.ReplyFlagBehind == 0 {
		t.Fatalf("unserveable floor got a regular reply: %+v", rep)
	}
	if len(rep.Result) != 0 {
		t.Fatalf("behind reply carries a result: %q", rep.Result)
	}
}

// TestReadFloorParkOverflowAnswersBehind: the park queue is bounded; a
// full queue answers behind immediately instead of buffering without
// limit. DefaultReadParkLimit+1 reads with an unreachable floor: until the
// first of them could expire, exactly one is answered, behind.
func TestReadFloorParkOverflowAnswersBehind(t *testing.T) {
	c, minter := testCluster(t, 4, nil)
	p := registeredClient(t, c, minter)
	defer p.Close()
	mint(t, p, 1, 100)

	raw := newRawReadClient(t, c)
	reqs := make([]smr.Request, DefaultReadParkLimit+1)
	for i := range reqs {
		reqs[i] = raw.sign(t, 1_000_000, minter.Public())
	}
	// No read parks before it is sent, so none expires before this.
	expiry := time.Now().Add(DefaultReadParkTimeout)
	for i := range reqs {
		raw.post(t, 0, reqs[i])
	}
	// Requests are verified asynchronously, so WHICH read finds the queue
	// full is not send order.
	rep, ok := raw.await(t, time.Until(expiry), reqs...)
	if !ok || !time.Now().Before(expiry) || rep.Flags&smr.ReplyFlagBehind == 0 {
		t.Fatalf("overflowing read not answered behind before the parked ones expire: ok=%v rep=%+v", ok, rep)
	}
	if len(rep.Result) != 0 {
		t.Fatalf("behind reply carries a result: %q", rep.Result)
	}
	if extra, ok := raw.await(t, time.Until(expiry), reqs...); ok && time.Now().Before(expiry) {
		t.Fatalf("a second read was answered while the park queue holds the rest: %+v", extra)
	}
}

// TestUnorderedReadYourWrites: through the full proxy, a read issued
// immediately after the client's own write observes that write, while the
// cluster's instance counters prove the read consumed no consensus
// instance.
func TestUnorderedReadYourWrites(t *testing.T) {
	c, minter := testCluster(t, 4, nil)
	p := registeredClient(t, c, minter)
	defer p.Close()
	ctx := context.Background()

	for round := uint64(1); round <= 5; round++ {
		instances := make(map[int32]int64)
		for id, cn := range c.Nodes {
			instances[id] = cn.Node.Stats().Instances
		}
		mint(t, p, round, 10)
		if p.ReadFloor() == 0 {
			t.Fatal("proxy learned no read floor from the write's reply tags")
		}
		// Immediately read back: the floor forces every counted reply to a
		// state that includes the write just acknowledged.
		if bal := balanceOf(t, ctx, p, minter.Public()); bal != 10*round {
			t.Fatalf("read-your-writes violated: balance %d after %d writes of 10", bal, round)
		}
		// The write costs each replica exactly one instance — the slowest
		// may still be committing it when the write's reply quorum forms —
		// and the read none: an ordered fallback would have been committed
		// by a quorum before the read returned.
		for id, cn := range c.Nodes {
			want := instances[id] + 1
			deadline := time.Now().Add(5 * time.Second)
			for cn.Node.Stats().Instances < want && time.Now().Before(deadline) {
				time.Sleep(5 * time.Millisecond)
			}
			if got := cn.Node.Stats().Instances; got != want {
				t.Fatalf("replica %d consumed %d instances for one write and one session read, want 1",
					id, got-instances[id])
			}
		}
	}
}
