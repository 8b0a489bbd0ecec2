package core

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"smartchain/internal/client"
	"smartchain/internal/coin"
	"smartchain/internal/crypto"
)

// TestClusterReplicasConvergeUnderConflictingLoad drives four live replicas
// with concurrent, conflicting transactions and checks that every replica's
// application snapshot ends byte-identical: batches that pack several
// conflicting transactions must execute to the same state everywhere.
func TestClusterReplicasConvergeUnderConflictingLoad(t *testing.T) {
	c, minter := testCluster(t, 4, nil)
	// A generous timeout: the race detector on a loaded single-core runner
	// slows the whole cluster by an order of magnitude.
	p := client.New(c.ClientEndpoint(), minter, c.Members(), client.WithTimeout(60*time.Second))
	proxyKeys[p.ID()] = minter
	defer p.Close()
	ctx := context.Background()

	// Wave 1: 16 concurrent mints — the pipelined batcher packs several per
	// block, and every mint credits the minter's account, so batches carry
	// real conflicts.
	const inflight = 16
	var wg sync.WaitGroup
	errs := make(chan error, 2*inflight)
	coins := make(chan coin.CoinID, inflight)
	for i := 0; i < inflight; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			tx, err := coin.NewMint(minter, uint64(100+i), 10)
			if err != nil {
				errs <- err
				return
			}
			res, err := p.Invoke(ctx, WrapAppOp(tx.Encode()))
			if err != nil {
				errs <- fmt.Errorf("mint %d: %w", i, err)
				return
			}
			code, created, err := coin.ParseResult(res)
			if err != nil || code != coin.ResultOK || len(created) != 1 {
				errs <- fmt.Errorf("mint %d: code=%d err=%v", i, code, err)
				return
			}
			coins <- created[0]
		}(i)
	}
	wg.Wait()
	close(coins)

	// Wave 2: concurrent spends of those coins to a handful of hot
	// recipients — write-write conflicts on the recipient accounts and on
	// the minter's account within one batch.
	var ids []coin.CoinID
	for id := range coins {
		ids = append(ids, id)
	}
	for i, id := range ids {
		wg.Add(1)
		go func(i int, id coin.CoinID) {
			defer wg.Done()
			hot := crypto.SeededKeyPair("converge-hot", int64(i%3)).Public()
			tx, err := coin.NewSpend(minter, uint64(200+i), []coin.CoinID{id},
				[]coin.Output{{Owner: hot, Value: 10}})
			if err != nil {
				errs <- err
				return
			}
			res, err := p.Invoke(ctx, WrapAppOp(tx.Encode()))
			if err != nil {
				errs <- fmt.Errorf("spend %d: %w", i, err)
				return
			}
			if code, _, err := coin.ParseResult(res); err != nil || code != coin.ResultOK {
				errs <- fmt.Errorf("spend %d: code=%d err=%v", i, code, err)
			}
		}(i, id)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// Let every replica execute the full suffix, then compare state.
	h := c.Nodes[0].Node.Ledger().Height()
	if err := c.WaitHeight(h, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	time.Sleep(200 * time.Millisecond)

	var baseline []byte
	for id := int32(0); id < 4; id++ {
		svc, ok := c.Nodes[id].App.(*coin.Service)
		if !ok {
			t.Fatal("app type")
		}
		snap := svc.Snapshot()
		if id == 0 {
			baseline = snap
			continue
		}
		if !bytes.Equal(snap, baseline) {
			t.Fatalf("replica %d snapshot diverged from replica 0", id)
		}
	}

	// The replicas agree with clients on balances too.
	rctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	total := uint64(0)
	for i := 0; i < 3; i++ {
		hot := crypto.SeededKeyPair("converge-hot", int64(i)).Public()
		total += balanceOf(t, rctx, p, hot)
	}
	if total != inflight*10 {
		t.Fatalf("hot-account total: got %d want %d", total, inflight*10)
	}
}
