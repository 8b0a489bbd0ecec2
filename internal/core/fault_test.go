package core

import (
	"context"
	"fmt"
	"testing"
	"time"

	"smartchain/internal/blockchain"
	"smartchain/internal/coin"
	"smartchain/internal/crypto"
	"smartchain/internal/smr"
	"smartchain/internal/transport"
)

// TestRegencyWideFailoverDrainsWindowInOneRound is the epoch change's
// fault-injection gate: isolating the leader with a W=8 window open must
// (a) lose no decided instance, (b) drain the whole window in EXACTLY one
// synchronization round, and (c) commit the first post-kill request within
// 4 progress timeouts — one timeout to detect plus one round to drain, with
// slack for a loaded host; draining slot by slot would cost one timeout per
// open slot and overshoot the bound.
func TestRegencyWideFailoverDrainsWindowInOneRound(t *testing.T) {
	const timeout = 250 * time.Millisecond
	c, minter := testCluster(t, 4, func(cfg *ClusterConfig) {
		cfg.PipelineDepth = 8
		cfg.Persistence = PersistenceWeak
		cfg.ConsensusTimeout = timeout
	})
	p := registeredClient(t, c, minter)
	for i := uint64(1); i <= 3; i++ {
		mint(t, p, i, 10)
	}

	c.Net.Isolate(0)
	start := time.Now()
	mint(t, p, 4, 10)
	recovery := time.Since(start)
	for i := uint64(5); i <= 8; i++ {
		mint(t, p, i, 10)
	}

	for _, id := range []int32{1, 2, 3} {
		svc := c.Nodes[id].App.(*coin.Service)
		if got := svc.State().Balance(minter.Public()); got != 80 {
			t.Fatalf("replica %d balance after failover: %d, want 80", id, got)
		}
		if r := c.Nodes[id].Node.Stats().EpochChanges; r != 1 {
			t.Fatalf("replica %d ran %d synchronization rounds, want exactly 1", id, r)
		}
	}
	gb := blockchain.GenesisBlock(&c.Genesis)
	blocks := append([]blockchain.Block{gb}, c.Nodes[1].Node.Ledger().CachedBlocks()...)
	sum, err := blockchain.VerifyChain(blocks, blockchain.VerifyOptions{})
	if err != nil {
		t.Fatalf("chain after failover: %v", err)
	}
	if sum.Transactions < 8 {
		t.Fatalf("chain lost transactions: %d < 8", sum.Transactions)
	}
	if recovery > 4*timeout {
		t.Fatalf("first commit after leader kill took %v, want ≤ %v (4 progress timeouts)", recovery, 4*timeout)
	}
	t.Logf("time-to-first-commit after leader kill: %v (1 round)", recovery)
}

// TestLeaderFillsLowestOpenSlotFirst: commits are in instance order, so
// the leader must hand arriving batches to its LOWEST empty window slot. A
// few closed-loop clients expose the failure mode: once every client's
// request sits in a freshly opened slot above still-empty ones, nothing is
// left to fill those and the view idles until a progress timeout deposes a
// perfectly healthy leader. A healthy run never comes near the (long)
// timeout, so it ends with no synchronization round at all.
func TestLeaderFillsLowestOpenSlotFirst(t *testing.T) {
	const clients, opsEach = 4, 400
	const timeout = 10 * time.Second
	keys := make([]*crypto.KeyPair, clients)
	pubs := make([]crypto.PublicKey, clients)
	for i := range keys {
		keys[i] = crypto.SeededKeyPair("slot-order-minter", int64(i))
		pubs[i] = keys[i].Public()
	}
	c, _ := testCluster(t, 4, func(cfg *ClusterConfig) {
		cfg.PipelineDepth = 8
		cfg.Persistence = PersistenceWeak
		cfg.Storage = smr.StorageMemory
		cfg.Verify = smr.VerifyNone // requests reach the batcher at once: the widest race
		cfg.ConsensusTimeout = timeout
		cfg.AppFactory = func() Application { return coin.NewService(pubs) }
		cfg.Minters = pubs
	})

	start := time.Now()
	errs := make(chan error, clients)
	for i := range keys {
		p := coinClient(t, c, keys[i])
		defer p.Close()
		go func(key *crypto.KeyPair) {
			for nonce := uint64(1); nonce <= opsEach; nonce++ {
				tx, err := coin.NewMint(key, nonce, 1)
				if err == nil {
					_, err = p.Invoke(context.Background(), WrapAppOp(tx.Encode()))
				}
				if err != nil {
					errs <- fmt.Errorf("mint %d: %w", nonce, err)
					return
				}
			}
			errs <- nil
		}(keys[i])
	}
	for range keys {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	for id, cn := range c.Nodes {
		if r := cn.Node.Stats().EpochChanges; r != 0 {
			t.Fatalf("replica %d ran %d synchronization rounds under a healthy leader (%d mints took %v)",
				id, r, clients*opsEach, time.Since(start))
		}
	}
}

// TestClusterLeaderFollowsHighestRegency: a replica cut off before an epoch
// change keeps reporting the regency it last saw. Cluster.Leader must name
// the leader the rest of the view moved to, not the deposed one that the
// lowest-id (isolated) replica still believes in.
func TestClusterLeaderFollowsHighestRegency(t *testing.T) {
	c, minter := testCluster(t, 4, func(cfg *ClusterConfig) {
		cfg.Persistence = PersistenceWeak
	})
	p := registeredClient(t, c, minter)
	mint(t, p, 1, 10)
	if l := c.Leader(); l != 0 {
		t.Fatalf("leader before the fault: %d, want 0", l)
	}

	c.Net.Isolate(0)
	mint(t, p, 2, 10) // commits only once the survivors replaced replica 0

	if r := c.Nodes[0].Node.Regency(); r != 0 {
		t.Fatalf("isolated replica 0 moved to regency %d without hearing anyone", r)
	}
	if l := c.Leader(); l <= 0 {
		t.Fatalf("Cluster.Leader() = %d after the view deposed replica 0", l)
	}
	if got, want := c.Leader(), c.Nodes[1].Node.Leader(); got != want {
		t.Fatalf("Cluster.Leader() = %d, survivors follow %d", got, want)
	}
}

// TestPipelineLeaderIsolationEpochChange isolates the epoch-0 leader with a
// full ordering window (W=8) live. The remaining replicas must drive an
// epoch change, drain every open slot, and keep committing — no decided
// instance may be lost — and after the partition heals the isolated leader
// catches up via state transfer.
func TestPipelineLeaderIsolationEpochChange(t *testing.T) {
	c, minter := testCluster(t, 4, func(cfg *ClusterConfig) {
		cfg.PipelineDepth = 8
		cfg.Persistence = PersistenceWeak
	})
	p := registeredClient(t, c, minter)

	// Warm the pipeline under the original leader.
	for i := uint64(1); i <= 3; i++ {
		mint(t, p, i, 10)
	}

	// Cut the leader off mid-pipeline: its window slots are open, some with
	// proposals in flight.
	iso := c.Net.Isolate(0)

	// Progress now requires a synchronization phase per open slot; the
	// client quorum (3 of 4) is exactly the three reachable replicas.
	for i := uint64(4); i <= 8; i++ {
		mint(t, p, i, 10)
	}
	for _, id := range []int32{1, 2, 3} {
		svc := c.Nodes[id].App.(*coin.Service)
		if got := svc.State().Balance(minter.Public()); got != 80 {
			t.Fatalf("replica %d balance after leader isolation: %d, want 80", id, got)
		}
	}

	// No decided instance was lost: replica 1's chain verifies from genesis
	// and covers every transaction.
	gb := blockchain.GenesisBlock(&c.Genesis)
	blocks := append([]blockchain.Block{gb}, c.Nodes[1].Node.Ledger().CachedBlocks()...)
	sum, err := blockchain.VerifyChain(blocks, blockchain.VerifyOptions{})
	if err != nil {
		t.Fatalf("chain after epoch change: %v", err)
	}
	if sum.Transactions < 8 {
		t.Fatalf("chain lost transactions: %d < 8", sum.Transactions)
	}

	// Lift the isolation; fresh traffic wakes the laggard's re-sync gate
	// and the isolated ex-leader catches up via state transfer.
	c.Net.RemoveFilter(iso)
	mint(t, p, 9, 10)
	target := c.Nodes[1].Node.Ledger().Height()
	if err := c.WaitHeight(target, 30*time.Second); err != nil {
		t.Fatal(err)
	}
	svc := c.Nodes[0].App.(*coin.Service)
	if got := svc.State().Balance(minter.Public()); got != 90 {
		t.Fatalf("healed ex-leader balance: %d, want 90", got)
	}
}

// TestPartitionedMinorityCatchesUpViaStateTransfer partitions one follower
// away while the majority (and the client) keep committing a pipelined
// workload; after healing, the minority replica recovers the missed suffix
// through state transfer. The partition is one filter on the network's
// drop-filter stack, lifted to heal.
func TestPartitionedMinorityCatchesUpViaStateTransfer(t *testing.T) {
	c, minter := testCluster(t, 4, func(cfg *ClusterConfig) {
		cfg.PipelineDepth = 8
		cfg.Persistence = PersistenceWeak
	})
	p := registeredClient(t, c, minter)
	mint(t, p, 1, 10)

	// Split replica 3 from the majority; the client stays with the majority.
	part := c.Net.AddFilter(func(m transport.Message) bool { return (m.From == 3) != (m.To == 3) })

	for i := uint64(2); i <= 6; i++ {
		mint(t, p, i, 10)
	}
	if h := c.Nodes[3].Node.Ledger().Height(); h >= 6 {
		t.Fatalf("partitioned replica advanced to height %d", h)
	}

	c.Net.RemoveFilter(part) // heal
	// Fresh traffic reaches the healed replica, arming its re-sync path.
	mint(t, p, 7, 10)
	target := c.Nodes[0].Node.Ledger().Height()
	if err := c.WaitHeight(target, 30*time.Second); err != nil {
		t.Fatal(err)
	}
	svc := c.Nodes[3].App.(*coin.Service)
	if got := svc.State().Balance(minter.Public()); got != 70 {
		t.Fatalf("healed replica balance: %d, want 70", got)
	}
}

// TestCrashRecoveryDuringNewRegency crashes a follower after a regency-wide
// epoch change and recovers it mid-regency: the recovering replica state-
// transfers a snapshot whose envelope carries the session-GC'd watermarks
// (checkpoints enabled), then rejoins ordering by riding the NEXT epoch
// campaign — the cluster must keep committing with it on board.
func TestCrashRecoveryDuringNewRegency(t *testing.T) {
	c, minter := testCluster(t, 4, func(cfg *ClusterConfig) {
		cfg.PipelineDepth = 8
		cfg.Persistence = PersistenceWeak
		cfg.CheckpointPeriod = 2
		cfg.SessionGCBlocks = 64
	})
	p := registeredClient(t, c, minter)
	for i := uint64(1); i <= 3; i++ {
		mint(t, p, i, 10)
	}

	// Kill the leader mid-window: the survivors drain via one epoch change.
	iso := c.Net.Isolate(0)
	for i := uint64(4); i <= 6; i++ {
		mint(t, p, i, 10)
	}

	// Crash a follower inside the new regency and bring it back: recovery
	// replays local state, then state-transfers the missed suffix from the
	// two live peers while regency 1 is in force.
	if err := c.Crash(3); err != nil {
		t.Fatal(err)
	}
	if err := c.Recover(3); err != nil {
		t.Fatalf("recover mid-regency: %v", err)
	}

	// Progress requires the recovered replica's votes (only 3 of 4 are
	// reachable): it must join the ordering stream again.
	for i := uint64(7); i <= 8; i++ {
		mint(t, p, i, 10)
	}
	for _, id := range []int32{1, 2, 3} {
		svc := c.Nodes[id].App.(*coin.Service)
		if got := svc.State().Balance(minter.Public()); got != 80 {
			t.Fatalf("replica %d balance after mid-regency recovery: %d, want 80", id, got)
		}
	}

	// Lift the ex-leader's isolation; everyone converges.
	c.Net.RemoveFilter(iso)
	mint(t, p, 9, 10)
	target := c.Nodes[1].Node.Ledger().Height()
	if err := c.WaitHeight(target, 30*time.Second); err != nil {
		t.Fatal(err)
	}
	// With checkpoints enabled every ledger prunes its cache, so chain
	// verification from genesis does not apply; convergence is the tip:
	// all four replicas — the recovered one and the healed ex-leader
	// included — must sit on the same block hash at the same height.
	h := c.Nodes[1].Node.Ledger().Height()
	ref, ok := c.Nodes[1].Node.Ledger().CachedBlock(h)
	if !ok {
		t.Fatalf("replica 1 tip %d not cached", h)
	}
	for _, id := range []int32{0, 2, 3} {
		b, ok := c.Nodes[id].Node.Ledger().CachedBlock(h)
		if !ok || b.Hash() != ref.Hash() {
			t.Fatalf("replica %d diverged from tip at height %d", id, h)
		}
	}
}

// TestReconfigurationAcrossEpochChangeBoundary joins a new replica while
// the epoch-0 leader is isolated: the join commits through the post-epoch-
// change quorum, the view boundary drains the window, and the NEW view's
// engine — whose round-robin leader is the still-isolated replica — must
// immediately epoch-change again to make progress. The healed ex-leader
// then catches up into the new view.
func TestReconfigurationAcrossEpochChangeBoundary(t *testing.T) {
	c, minter := testCluster(t, 4, func(cfg *ClusterConfig) {
		cfg.PipelineDepth = 8
		cfg.Persistence = PersistenceWeak
	})
	p := registeredClient(t, c, minter)
	for i := uint64(1); i <= 2; i++ {
		mint(t, p, i, 10)
	}

	iso := c.Net.Isolate(0)
	for i := uint64(3); i <= 5; i++ {
		mint(t, p, i, 10)
	}

	// Reconfiguration at the epoch-change boundary: replica 4 joins via the
	// surviving quorum (n−f = 3 votes), replacing every engine.
	if err := c.Join(4, 30*time.Second); err != nil {
		t.Fatalf("join during epoch change: %v", err)
	}
	// No SetMembers: the proxy discovers the new view from reply tags.

	// New view: n=5, quorum 4, exactly the four reachable replicas — and
	// its epoch-0 leader is the isolated one, forcing a fresh epoch change
	// under the new membership before anything commits.
	mint(t, p, 6, 10)
	// The mint returns at a reply quorum of the client's view; the slowest of
	// the four may still be committing the block.
	for _, id := range []int32{1, 2, 3, 4} {
		svc := c.Nodes[id].App.(*coin.Service)
		deadline := time.Now().Add(10 * time.Second)
		for svc.State().Balance(minter.Public()) != 60 && time.Now().Before(deadline) {
			time.Sleep(5 * time.Millisecond)
		}
		if got := svc.State().Balance(minter.Public()); got != 60 {
			t.Fatalf("replica %d balance after boundary reconfig: %d, want 60", id, got)
		}
	}

	c.Net.RemoveFilter(iso)
	mint(t, p, 7, 10)
	target := c.Nodes[1].Node.Ledger().Height()
	if err := c.WaitHeight(target, 30*time.Second); err != nil {
		t.Fatal(err)
	}
	gb := blockchain.GenesisBlock(&c.Genesis)
	blocks := append([]blockchain.Block{gb}, c.Nodes[4].Node.Ledger().CachedBlocks()...)
	sum, err := blockchain.VerifyChain(blocks, blockchain.VerifyOptions{})
	if err != nil {
		t.Fatalf("chain across reconfig boundary: %v", err)
	}
	if sum.ViewChanges != 1 {
		t.Fatalf("chain records %d view changes, want 1", sum.ViewChanges)
	}
}
