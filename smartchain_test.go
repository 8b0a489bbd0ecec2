// End-to-end coverage of the public facade: a full N=4 cluster driven
// exclusively through the smartchain package API, at both sequential (W=1)
// and pipelined (W=8) consensus ordering.
package smartchain

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"smartchain/internal/coin"
)

func TestEndToEndClusterPipelineDepths(t *testing.T) {
	for _, depth := range []int{1, 8} {
		t.Run(fmt.Sprintf("W=%d", depth), func(t *testing.T) {
			const clients = 6
			label := fmt.Sprintf("facade-e2e-w%d", depth)
			keys := make([]*KeyPair, clients)
			minters := make([]PublicKey, clients)
			for i := range keys {
				keys[i] = SeededKeyPair(label, int64(i))
				minters[i] = keys[i].Public()
			}
			cluster, err := NewCluster(ClusterConfig{
				N:                4,
				AppFactory:       func() Application { return NewCoinService(minters) },
				Persistence:      PersistenceStrong,
				Pipeline:         true,
				PipelineDepth:    depth,
				MaxBatch:         8,
				Minters:          minters,
				ConsensusTimeout: time.Second,
				ChainID:          label,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer cluster.Stop()

			// Concurrent clients keep several batches in flight, exercising
			// the ordering window: each mints coins and transfers them to a
			// fresh owner.
			var wg sync.WaitGroup
			errs := make(chan error, clients)
			for i := 0; i < clients; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					proxy := NewClient(cluster.ClientEndpoint(), keys[i], cluster.Members())
					defer proxy.Close()
					mintTx, err := coin.NewMint(keys[i], 1, 50)
					if err != nil {
						errs <- err
						return
					}
					res, err := proxy.Invoke(context.Background(), WrapAppOp(mintTx.Encode()))
					if err != nil {
						errs <- fmt.Errorf("client %d mint: %w", i, err)
						return
					}
					code, coins, err := coin.ParseResult(res)
					if err != nil || code != coin.ResultOK {
						errs <- fmt.Errorf("client %d mint result: code=%d err=%v", i, code, err)
						return
					}
					dest := SeededKeyPair(label+"/dest", int64(i))
					spendTx, err := coin.NewSpend(keys[i], 2, coins, []coin.Output{{Owner: dest.Public(), Value: 50}})
					if err != nil {
						errs <- err
						return
					}
					res, err = proxy.Invoke(context.Background(), WrapAppOp(spendTx.Encode()))
					if err != nil {
						errs <- fmt.Errorf("client %d spend: %w", i, err)
						return
					}
					code, _, err = coin.ParseResult(res)
					if err != nil || code != coin.ResultOK {
						errs <- fmt.Errorf("client %d spend result: code=%d err=%v", i, code, err)
						return
					}
				}(i)
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				if err != nil {
					t.Fatal(err)
				}
			}

			// Give the tip's PERSIST certificate a moment to settle, then
			// verify every replica's chain from genesis and check the
			// transferred balances landed identically everywhere.
			time.Sleep(300 * time.Millisecond)
			gb := GenesisBlock(&cluster.Genesis)
			for id, cn := range cluster.Nodes {
				blocks := append([]Block{gb}, cn.Node.Ledger().CachedBlocks()...)
				sum, err := VerifyChain(blocks, VerifyOptions{
					RequireCerts:         true,
					AllowUncertifiedTail: 2,
				})
				if err != nil {
					t.Fatalf("replica %d chain: %v", id, err)
				}
				if sum.Transactions < 2*clients {
					t.Fatalf("replica %d chain covers %d txs, want ≥ %d", id, sum.Transactions, 2*clients)
				}
				svc, ok := cn.App.(*Coin)
				if !ok {
					t.Fatalf("replica %d app type", id)
				}
				for i := 0; i < clients; i++ {
					dest := SeededKeyPair(label+"/dest", int64(i))
					if got := svc.State().Balance(dest.Public()); got != 50 {
						t.Fatalf("replica %d: dest %d balance %d, want 50", id, i, got)
					}
				}
			}
		})
	}
}

// TestFacadeAsyncAndUnordered drives the new invocation shapes end to end
// through the public API only: pipelined futures on one client, then a
// consensus-free balance read, with instance accounting proving the read
// never entered consensus.
func TestFacadeAsyncAndUnordered(t *testing.T) {
	minter := SeededKeyPair("facade-async", 0)
	cluster, err := NewCluster(ClusterConfig{
		N:                4,
		AppFactory:       func() Application { return NewCoinService([]PublicKey{minter.Public()}) },
		Persistence:      PersistenceWeak,
		Pipeline:         true,
		MaxBatch:         8,
		Minters:          []PublicKey{minter.Public()},
		ConsensusTimeout: time.Second,
		ChainID:          "facade-async",
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Stop()

	proxy := NewClient(cluster.ClientEndpoint(), minter, cluster.Members(),
		WithInvokeTimeout(15*time.Second))
	defer proxy.Close()
	ctx := context.Background()

	// Pipeline 8 mints on one proxy via futures.
	const n = 8
	futs := make([]*Future, n)
	for i := 0; i < n; i++ {
		tx, err := coin.NewMint(minter, uint64(i+1), 10)
		if err != nil {
			t.Fatal(err)
		}
		futs[i] = proxy.InvokeAsync(ctx, WrapAppOp(tx.Encode()))
	}
	for i, f := range futs {
		res, err := f.Result()
		if err != nil {
			t.Fatalf("future %d: %v", i, err)
		}
		if code, _, err := coin.ParseResult(res); err != nil || code != coin.ResultOK {
			t.Fatalf("future %d: code=%d err=%v", i, code, err)
		}
	}

	// Futures complete at a 3-of-4 reply quorum; wait for the 4th replica
	// to finish committing before snapshotting the instance counters, or
	// its trailing commit would masquerade as a read-consumed instance.
	var tip int64
	for _, cn := range cluster.Nodes {
		if h := cn.Node.Ledger().Height(); h > tip {
			tip = h
		}
	}
	if err := cluster.WaitHeight(tip, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	// A ledger at the tip is not yet a counted instance: the counter moves
	// only once the commit of that block returns.
	tipBlock, ok := cluster.Nodes[0].Node.Ledger().CachedBlock(tip)
	if !ok {
		t.Fatalf("block %d not cached", tip)
	}
	before := make(map[int32]int64)
	for id, cn := range cluster.Nodes {
		for deadline := time.Now().Add(10 * time.Second); cn.Node.Stats().Instances < tipBlock.Body.ConsensusID && time.Now().Before(deadline); {
			time.Sleep(5 * time.Millisecond)
		}
		before[id] = cn.Node.Stats().Instances
	}
	res, err := proxy.InvokeUnordered(ctx, WrapAppOp(coin.EncodeBalanceQuery(minter.Public())))
	if err != nil {
		t.Fatalf("unordered read: %v", err)
	}
	bal, err := coin.ParseUint64Result(res)
	if err != nil || bal != n*10 {
		t.Fatalf("balance: got %d err=%v want %d", bal, err, n*10)
	}
	for id, cn := range cluster.Nodes {
		if got := cn.Node.Stats().Instances; got != before[id] {
			t.Fatalf("replica %d consumed %d instances for an unordered read", id, got-before[id])
		}
	}
}
