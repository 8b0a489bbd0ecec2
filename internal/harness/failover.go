package harness

import (
	"context"
	"fmt"
	"time"

	"smartchain/internal/blockchain"
	"smartchain/internal/client"
	"smartchain/internal/coin"
	"smartchain/internal/core"
	"smartchain/internal/crypto"
	"smartchain/internal/smr"
)

// FailoverPoint is one failover measurement: how long the first
// post-leader-kill transaction took to commit, and how many consensus
// synchronization rounds the surviving replicas spent draining the open
// ordering window.
type FailoverPoint struct {
	Label      string
	Depth      int   // ordering window W
	RecoveryMS int64 // time-to-first-commit after the leader was killed
	SyncRounds int64 // synchronization rounds the followers ran
	Txs        int64 // transactions covered by the verified chain
}

func (p FailoverPoint) String() string {
	return fmt.Sprintf("%-28s recovery %6d ms   sync-rounds %2d   txs %d",
		p.Label, p.RecoveryMS, p.SyncRounds, p.Txs)
}

// failoverTimeout is the consensus progress timeout the failover experiment
// pins: recovery time is measured in units of it (one to detect the dead
// leader plus one synchronization round, whatever the window depth).
const failoverTimeout = 250 * time.Millisecond

// failoverPoint runs one leader-kill scenario: warm a W-deep pipeline,
// isolate the epoch-0 leader, and time the next committed transaction. It
// asserts zero decided-instance loss (the surviving chain verifies from
// genesis and contains every confirmed transaction) and a bounded recovery
// (30 s hard cap) — the CI smoke gate rides on the returned error.
func failoverPoint(label string, depth int) (FailoverPoint, error) {
	minter := crypto.SeededKeyPair(label+"/minter", 0)
	cluster, err := core.NewCluster(core.ClusterConfig{
		N:                4,
		AppFactory:       func() core.Application { return coin.NewService([]crypto.PublicKey{minter.Public()}) },
		Persistence:      core.PersistenceWeak,
		Storage:          smr.StorageMemory,
		Verify:           smr.VerifyNone,
		Pipeline:         true,
		PipelineDepth:    depth,
		MaxBatch:         64,
		Minters:          []crypto.PublicKey{minter.Public()},
		ConsensusTimeout: failoverTimeout,
		ChainID:          label,
	})
	if err != nil {
		return FailoverPoint{}, err
	}
	defer cluster.Stop()

	proxy := client.New(cluster.ClientEndpoint(), minter, cluster.Members(),
		client.WithTimeout(30*time.Second))
	defer proxy.Close()

	mintOne := func(nonce uint64) error {
		tx, err := coin.NewMint(minter, nonce, 1)
		if err != nil {
			return err
		}
		res, err := proxy.Invoke(context.Background(), core.WrapAppOp(tx.Encode()))
		if err != nil {
			return fmt.Errorf("mint %d: %w", nonce, err)
		}
		if code, _, err := coin.ParseResult(res); err != nil || code != coin.ResultOK {
			return fmt.Errorf("mint %d: code=%d err=%v", nonce, code, err)
		}
		return nil
	}

	// Warm the pipeline under the original leader.
	const warmMints, postMints = 3, 5
	for i := uint64(1); i <= warmMints; i++ {
		if err := mintOne(i); err != nil {
			return FailoverPoint{}, err
		}
	}

	// Kill the leader mid-window and time the next commit.
	cluster.Net.Isolate(0)
	start := time.Now()
	if err := mintOne(warmMints + 1); err != nil {
		return FailoverPoint{}, fmt.Errorf("%s: first post-kill commit: %w", label, err)
	}
	recovery := time.Since(start)
	for i := uint64(warmMints + 2); i <= warmMints+postMints; i++ {
		if err := mintOne(i); err != nil {
			return FailoverPoint{}, err
		}
	}
	if recovery > 30*time.Second {
		return FailoverPoint{}, fmt.Errorf("%s: recovery %v exceeds the 30s bound", label, recovery)
	}

	// Zero decided-instance loss: a follower's chain verifies from genesis
	// and covers every confirmed transaction.
	gb := blockchain.GenesisBlock(&cluster.Genesis)
	blocks := append([]blockchain.Block{gb}, cluster.Nodes[1].Node.Ledger().CachedBlocks()...)
	sum, err := blockchain.VerifyChain(blocks, blockchain.VerifyOptions{})
	if err != nil {
		return FailoverPoint{}, fmt.Errorf("%s: chain after failover: %w", label, err)
	}
	if sum.Transactions < warmMints+postMints {
		return FailoverPoint{}, fmt.Errorf("%s: decided instances lost: chain has %d txs, want ≥ %d",
			label, sum.Transactions, warmMints+postMints)
	}

	var rounds int64
	for _, id := range []int32{1, 2, 3} {
		if r := cluster.Nodes[id].Node.Stats().EpochChanges; r > rounds {
			rounds = r
		}
	}
	return FailoverPoint{
		Label:      label,
		Depth:      depth,
		RecoveryMS: recovery.Milliseconds(),
		SyncRounds: rounds,
		Txs:        int64(sum.Transactions),
	}, nil
}

// Failover measures time-to-first-commit-after-leader-kill across the
// ordering windows in o.Depths (default {1, 8}). At the deepest window the
// survivors must drain every open slot in exactly ONE synchronization round
// and commit within 4 progress timeouts (measured ≈1; draining slot by slot
// took ≈7 at W=8) — a regression fails the run, which is what the CI smoke
// gate keys on.
func Failover(o ExpOptions) ([]FailoverPoint, error) {
	o = o.Defaults()
	var points []FailoverPoint
	deepest := -1 // index of the deepest window measured
	for _, w := range o.Depths {
		if w <= 0 {
			w = core.DefaultPipelineDepth
		}
		p, err := failoverPoint(fmt.Sprintf("failover/W=%d", w), w)
		if err != nil {
			return points, err
		}
		points = append(points, p)
		if deepest < 0 || w >= points[deepest].Depth {
			deepest = len(points) - 1
		}
	}
	if deepest >= 0 {
		d := points[deepest]
		if d.SyncRounds != 1 {
			return points, fmt.Errorf("failover regression at W=%d: %d synchronization rounds, want exactly 1",
				d.Depth, d.SyncRounds)
		}
		if bound := 4 * failoverTimeout.Milliseconds(); d.RecoveryMS > bound {
			return points, fmt.Errorf("failover regression at W=%d: recovery %d ms exceeds %d ms (4 progress timeouts)",
				d.Depth, d.RecoveryMS, bound)
		}
	}
	return points, nil
}
