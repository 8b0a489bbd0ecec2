package core

import (
	"context"
	"fmt"
	"maps"
	"testing"
	"time"

	"smartchain/internal/coin"
)

// waitViewID blocks until every live, non-retired replica has installed a
// view with at least the given ID.
func waitViewID(t *testing.T, c *Cluster, id int64) {
	t.Helper()
	deadline := time.Now().Add(20 * time.Second)
	for {
		all := true
		for _, cn := range c.Nodes {
			if cn.Node == nil || cn.Node.Retired() {
				continue
			}
			if cn.Node.View().ID < id {
				all = false
				break
			}
		}
		if all {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("view %d never installed everywhere", id)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// waitQuiescent blocks until the cluster owes nothing: every live member's
// batcher holds no request pending or handed out, and all live heights are
// equal — on two samples in a row, with the same counters — then returns
// the instance counters. Counters holding still prove nothing: an ordered
// request still in a batcher commits whenever its turn comes.
func waitQuiescent(t *testing.T, c *Cluster) map[int32]int64 {
	t.Helper()
	sample := func() (map[int32]int64, bool) {
		out := make(map[int32]int64)
		quiet, height := true, int64(-1)
		for id, cn := range c.Nodes {
			if cn.Node == nil || cn.Node.Retired() {
				continue
			}
			n := cn.Node
			h := n.ledger.Height()
			if n.batcher.Pending() > 0 || n.batcher.Outstanding() > 0 || (height >= 0 && h != height) {
				quiet = false
			}
			height, out[id] = h, n.Stats().Instances
		}
		return out, quiet
	}
	deadline := time.Now().Add(20 * time.Second)
	prev, wasQuiet := sample()
	for {
		time.Sleep(50 * time.Millisecond)
		cur, quiet := sample()
		if wasQuiet && quiet && maps.Equal(prev, cur) {
			return cur
		}
		if time.Now().After(deadline) {
			t.Fatal("cluster never quiesced")
		}
		prev, wasQuiet = cur, quiet
	}
}

// TestReconfigurationSelfHealingClients is the acceptance end-to-end: a
// reconfiguration ADDS a replica and then REMOVES one while clients keep
// invoking, with NO SetMembers call anywhere — the proxy discovers both
// view changes from reply view tags and a view query. After the churn, an
// unordered read issued immediately after the client's own write observes
// that write (read-your-writes), and the instance counters prove the read
// consumed no consensus instance.
func TestReconfigurationSelfHealingClients(t *testing.T) {
	c, minter := testCluster(t, 4, nil)
	p := registeredClient(t, c, minter)
	defer p.Close()
	ctx := context.Background()

	mint(t, p, 1, 10)

	// Background client traffic throughout both reconfigurations. Every
	// invocation must succeed — a hang here is exactly the retransmit-to-
	// dead-members bug the self-healing proxy fixes.
	stop := make(chan struct{})
	bgErr := make(chan error, 1)
	bgMints := make(chan uint64, 1)
	go func() {
		nonce := uint64(100)
		for {
			select {
			case <-stop:
				bgMints <- nonce - 100
				return
			default:
			}
			tx, err := coin.NewMint(minter, nonce+1, 10)
			if err != nil {
				bgErr <- err
				return
			}
			cctx, cancel := context.WithTimeout(ctx, 30*time.Second)
			res, err := p.Invoke(cctx, WrapAppOp(tx.Encode()))
			cancel()
			if err != nil {
				bgErr <- fmt.Errorf("background mint %d: %w", nonce+1, err)
				return
			}
			if code, _, err := coin.ParseResult(res); err != nil || code != coin.ResultOK {
				bgErr <- fmt.Errorf("background mint %d: code=%d err=%v", nonce+1, code, err)
				return
			}
			nonce++
			time.Sleep(20 * time.Millisecond)
		}
	}()

	// Add replica 4 (view 1), then remove replica 0 (view 2). No
	// SetMembers calls.
	if err := c.Join(4, 30*time.Second); err != nil {
		t.Fatalf("join: %v", err)
	}
	// Leave computes its next-view number from the LEAVER's installed
	// view: wait until every member (node 0 may trail the join commit
	// under load) has installed view 1, or the voters reject the stale
	// request silently.
	waitViewID(t, c, 1)
	if err := c.Leave(0, 30*time.Second); err != nil {
		t.Fatalf("leave: %v", err)
	}

	close(stop)
	var minted uint64
	select {
	case err := <-bgErr:
		t.Fatalf("client traffic failed during reconfiguration: %v", err)
	case minted = <-bgMints:
	case <-time.After(40 * time.Second):
		t.Fatal("background client never finished")
	}

	// One more write: its replies carry the view-2 tags that drive the
	// proxy's final discovery round.
	mint(t, p, 2, 10)

	// The proxy converges on the final view {1,2,3,4} on its own (view
	// discovery piggybacks on replies, so keep a trickle of reads flowing
	// while polling).
	deadline := time.Now().Add(10 * time.Second)
	for {
		m := p.Members()
		if len(m) == 4 && m[0] == 1 && m[3] == 4 && p.ViewID() == 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("proxy never adopted the final view: members=%v viewID=%d", m, p.ViewID())
		}
		rctx, cancel := context.WithTimeout(ctx, 2*time.Second)
		_, _ = p.InvokeUnordered(rctx, WrapAppOp(coin.EncodeBalanceQuery(minter.Public())))
		cancel()
		time.Sleep(20 * time.Millisecond)
	}
	// Quiesce before snapshotting instance counters: the joiner may still
	// be replaying state transfer (which advances its counter without new
	// consensus), and a convergence-poll read the proxy abandoned on
	// timeout may have left an ordered fallback in the batchers that
	// commits late. Wait until every live counter holds still.
	instances := waitQuiescent(t, c)
	want := (2 + minted) * 10
	if bal := balanceOf(t, ctx, p, minter.Public()); bal != want {
		t.Fatalf("read-your-writes after reconfigurations: balance %d, want %d", bal, want)
	}
	for id, cn := range c.Nodes {
		if cn.Node.Retired() {
			continue
		}
		if got := cn.Node.Stats().Instances; got != instances[id] {
			t.Fatalf("replica %d consumed %d instances for the session read", id, got-instances[id])
		}
	}
}
