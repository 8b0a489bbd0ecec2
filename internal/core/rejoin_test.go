package core

import (
	"context"
	"testing"
	"time"

	"smartchain/internal/coin"
	"smartchain/internal/crypto"
	"smartchain/internal/smr"
)

// TestRecoveredFollowerRejoinsLiveOrderingUnderLoad is the fact the
// driver-owned state transfer is for: a follower that crashed, missed a few
// hundred blocks and recovers while the load keeps flowing ends up ordering
// live again — its engine runs through the transfer rounds, its decisions
// park above the fetched prefix, and once they meet no further round is
// needed. The assertions are protocol facts: over a stretch in which the
// cluster commits 200 more blocks the recovered replica's commit floor
// advances without a state transfer, and the whole recovery took a handful
// of rounds, not one per few blocks.
func TestRecoveredFollowerRejoinsLiveOrderingUnderLoad(t *testing.T) {
	const clients, victim = 8, 3
	const missed, stretch = 300, 200
	keys := make([]*crypto.KeyPair, clients)
	pubs := make([]crypto.PublicKey, clients)
	for i := range keys {
		keys[i] = crypto.SeededKeyPair("rejoin-minter", int64(i))
		pubs[i] = keys[i].Public()
	}
	c, _ := testCluster(t, 4, func(cfg *ClusterConfig) {
		cfg.Persistence = PersistenceWeak
		cfg.Verify = smr.VerifyNone // the subject is ordering, not request crypto
		cfg.CheckpointPeriod = 100
		cfg.MaxBatch = 2 // many small blocks: the tip moves fast
		// Long enough that no healthy leader is deposed on a loaded host, short
		// enough that the resync period (4×) still fits the test's deadline.
		cfg.ConsensusTimeout = 2 * time.Second
		cfg.AppFactory = func() Application { return coin.NewService(pubs) }
		cfg.Minters = pubs
	})

	// Closed-loop load until the test is over; errors (a request caught by the
	// crash) are the client's to retry, the next nonce carries on.
	ctx, stopLoad := context.WithCancel(context.Background())
	loadDone := make(chan struct{}, clients)
	for i := range keys {
		p := coinClient(t, c, keys[i])
		go func(key *crypto.KeyPair) {
			defer func() { p.Close(); loadDone <- struct{}{} }()
			for nonce := uint64(1); ctx.Err() == nil; nonce++ {
				if tx, err := coin.NewMint(key, nonce, 1); err == nil {
					_, _ = p.Invoke(ctx, WrapAppOp(tx.Encode()))
				}
			}
		}(keys[i])
	}
	defer func() {
		stopLoad()
		for range keys {
			<-loadDone
		}
	}()

	top := func() int64 { return c.Nodes[0].Node.Ledger().Height() }
	deadline := time.Now().Add(90 * time.Second)
	waitTop := func(h int64, what string) {
		t.Helper()
		for top() < h {
			if time.Now().After(deadline) {
				t.Fatalf("%s: cluster at height %d, want %d", what, top(), h)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}

	waitTop(50, "warm-up")
	if l := c.Leader(); l == victim {
		t.Fatalf("replica %d leads: the test crashes a follower", victim)
	}
	if err := c.Crash(victim); err != nil {
		t.Fatalf("crash: %v", err)
	}
	crashedAt, t0 := top(), time.Now()
	waitTop(crashedAt+missed, "while the follower is down")
	rate := float64(top()-crashedAt) / time.Since(t0).Seconds()
	if err := c.Recover(victim); err != nil {
		t.Fatalf("recover: %v", err)
	}
	n := c.Nodes[victim].Node

	// Stretches of `stretch` cluster blocks, until one passes in which the
	// recovered replica needs no state transfer and commits most of what the
	// cluster does. A stretch with a transfer in it is still closing the gap;
	// one with neither is the stall the chain can end in — a round that found
	// nothing new while the proposals for the slots just opened were sent
	// before the engine could buffer them — which the periodic resync ends. A
	// replica that never rejoins fails the single-digit bound long before the
	// deadline.
	for {
		before, from := n.Stats(), top()
		waitTop(from+stretch, "after the recovery")
		after := n.Stats()
		if after.StateTransfers > 9 {
			t.Fatalf("%d state transfers and counting (%.0f blocks/s, %d behind): the recovered replica chases the tip instead of rejoining it",
				after.StateTransfers, rate, top()-after.Height)
		}
		if after.StateTransfers != before.StateTransfers || after.Instances-before.Instances < stretch/2 {
			continue
		}
		t.Logf("%.0f blocks/s; rejoined after %d state transfers (%d catch-up rounds, %d blocks fetched), %d blocks behind the tip",
			rate, after.StateTransfers, after.Catchup.Rounds, after.Catchup.BlocksFetched, top()-after.Height)
		return
	}
}
