package core

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"smartchain/internal/client"
	"smartchain/internal/codec"
	"smartchain/internal/coin"
	"smartchain/internal/crypto"
	"smartchain/internal/smr"
)

// balanceOf runs one unordered balance query through the proxy.
func balanceOf(t *testing.T, ctx context.Context, p interface {
	InvokeUnordered(context.Context, []byte) ([]byte, error)
}, addr crypto.PublicKey) uint64 {
	t.Helper()
	res, err := p.InvokeUnordered(ctx, WrapAppOp(coin.EncodeBalanceQuery(addr)))
	if err != nil {
		t.Fatalf("unordered balance: %v", err)
	}
	v, err := coin.ParseUint64Result(res)
	if err != nil {
		t.Fatalf("parse balance: %v", err)
	}
	return v
}

// TestUnorderedReadSkipsConsensus: unordered balance reads return the
// quorum-agreed state WITHOUT consuming a single consensus instance —
// verified by instance-count accounting across the whole cluster.
func TestUnorderedReadSkipsConsensus(t *testing.T) {
	c, minter := testCluster(t, 4, nil)
	p := registeredClient(t, c, minter)
	defer p.Close()
	ctx := context.Background()

	mint(t, p, 1, 100, 250)
	if err := c.WaitHeight(1, 5*time.Second); err != nil {
		t.Fatalf("height: %v", err)
	}

	// WaitHeight returns once every ledger holds the mint's block, but a
	// replica counts the block's instance only after its commit returns:
	// let each reach it before sampling, or a slow replica's counter still
	// ticks for the mint during the reads.
	minted, ok := c.Nodes[0].Node.Ledger().CachedBlock(1)
	if !ok {
		t.Fatal("block 1 not cached")
	}
	instancesBefore := make(map[int32]int64)
	readsBefore := make(map[int32]int64)
	for id, cn := range c.Nodes {
		for deadline := time.Now().Add(5 * time.Second); cn.Node.Stats().Instances < minted.Body.ConsensusID && time.Now().Before(deadline); {
			time.Sleep(5 * time.Millisecond)
		}
		st := cn.Node.Stats()
		instancesBefore[id] = st.Instances
		readsBefore[id] = st.UnorderedReads
	}

	const reads = 20
	for i := 0; i < reads; i++ {
		if bal := balanceOf(t, ctx, p, minter.Public()); bal != 350 {
			t.Fatalf("balance: got %d want 350", bal)
		}
	}

	for id, cn := range c.Nodes {
		st := cn.Node.Stats()
		if st.Instances != instancesBefore[id] {
			t.Fatalf("replica %d consumed %d consensus instances for unordered reads",
				id, st.Instances-instancesBefore[id])
		}
	}
	// Every read was broadcast; the quorum needs 3 matching answers, so
	// collectively the cluster must have served at least quorum×reads.
	var served int64
	for id, cn := range c.Nodes {
		served += cn.Node.Stats().UnorderedReads - readsBefore[id]
	}
	if served < 3*reads {
		t.Fatalf("cluster served %d unordered reads, want ≥ %d", served, 3*reads)
	}
}

// TestMalformedTxFloodCostsNoMemory: anyone may sign a request with a key
// generated a moment ago, and every replica that receives it decodes the
// operation (app.VerifyOp) before ordering. 100 requests carrying the 17-byte
// transaction that declares 2^16 inputs, sent to each of 4 in-process
// replicas, cost 400 × 10 MB ≈ 4 GB of allocation when the decoder appended
// a zero coin ID per declared input; refused at the count they cost nothing
// to speak of, and an honest client's transfer commits behind them.
func TestMalformedTxFloodCostsNoMemory(t *testing.T) {
	c, minter := testCluster(t, 4, nil)
	p := registeredClient(t, c, minter)
	defer p.Close()
	mint(t, p, 1, 100) // the cluster is warm before allocation is sampled

	body := codec.NewEncoder(9)
	body.Byte(byte(coin.TxSpend))
	body.WriteBytes(nil)
	body.Uint32(1 << 16)
	tx := codec.NewEncoder(17)
	tx.WriteBytes(body.Bytes())
	tx.WriteBytes(nil)

	stranger, err := crypto.GenerateKeyPair()
	if err != nil {
		t.Fatal(err)
	}
	ep := c.ClientEndpoint()
	defer ep.Close()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for seq := uint64(1); seq <= 100; seq++ {
		req, err := smr.NewSignedRequest(int64(ep.ID()), seq, WrapAppOp(tx.Bytes()), stranger)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range c.Members() {
			if err := ep.Send(m, MsgRequest, req.Encode()); err != nil {
				t.Fatalf("send to %d: %v", m, err)
			}
		}
	}
	coins := mint(t, p, 2, 50)
	alice := crypto.SeededKeyPair("alice", 1)
	spend, err := coin.NewSpend(minter, 3, coins, []coin.Output{{Owner: alice.Public(), Value: 50}})
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Invoke(context.Background(), WrapAppOp(spend.Encode()))
	if err != nil {
		t.Fatalf("transfer behind the flood: %v", err)
	}
	if code, _, err := coin.ParseResult(res); err != nil || code != coin.ResultOK {
		t.Fatalf("transfer behind the flood: code=%d err=%v", code, err)
	}
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 64<<20 {
		t.Fatalf("400 malformed 17-byte transactions made the process allocate %d MiB", grew>>20)
	}
}

// TestUnorderedReadDuringLeaderChange: with the view-0 leader isolated and
// the remaining replicas mid-leader-change, an unordered read still
// completes with the quorum-consistent balance (exactly ⌈(n+f+1)/2⌉ = 3
// replicas are reachable), and ordered traffic resumes after the epoch
// change — proving the read never depended on consensus progress.
func TestUnorderedReadDuringLeaderChange(t *testing.T) {
	c, minter := testCluster(t, 4, nil)
	p := registeredClient(t, c, minter)
	defer p.Close()
	ctx := context.Background()

	mint(t, p, 1, 100, 250)
	if err := c.WaitHeight(1, 5*time.Second); err != nil {
		t.Fatalf("height: %v", err)
	}

	// Isolate the view-0 leader; the survivors' progress timers will fire
	// and run the synchronization phase while we read.
	iso := c.Net.Isolate(0)
	defer c.Net.RemoveFilter(iso)

	rctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	if bal := balanceOf(t, rctx, p, minter.Public()); bal != 350 {
		t.Fatalf("balance during leader change: got %d want 350", bal)
	}

	// Ordered traffic completes under the new leader (leader change done).
	mint(t, p, 2, 50)
	if bal := balanceOf(t, rctx, p, minter.Public()); bal != 400 {
		t.Fatalf("balance after leader change: got %d want 400", bal)
	}
}

// TestConcurrentOrderedInvokesOneProxy: 16 ordered invocations in flight
// on ONE proxy against a real cluster — end to end through the demux, the
// batcher's out-of-order executed record, and the pipelined driver. Every
// mint must succeed exactly once.
func TestConcurrentOrderedInvokesOneProxy(t *testing.T) {
	c, minter := testCluster(t, 4, nil)
	p := registeredClient(t, c, minter)
	defer p.Close()
	ctx := context.Background()

	const inflight = 16
	var wg sync.WaitGroup
	errs := make(chan error, inflight)
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
				errs <- fmt.Errorf("invoke %d: %w", i, err)
				return
			}
			if code, _, err := coin.ParseResult(res); err != nil || code != coin.ResultOK {
				errs <- fmt.Errorf("invoke %d: code=%d err=%v", i, code, err)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// Exactly-once execution: 16 mints of 10 each.
	rctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	if bal := balanceOf(t, rctx, p, minter.Public()); bal != inflight*10 {
		t.Fatalf("balance: got %d want %d", bal, inflight*10)
	}
}

// TestDivergedSessionReadsNeedNoRetransmission hammers session balance reads
// of an account that is being spent from, 64 ops in flight on one proxy, so
// replicas regularly answer a read from different block boundaries and no
// quorum of matching replies forms. The proxy's retransmission tick is an hour
// away: every read must complete anyway — the proxy falls back to an ordered
// read the moment a quorum is out of reach — and inside the audit range: it
// shows every spend acknowledged before it was issued and none that was not
// yet submitted when it completed.
func TestDivergedSessionReadsNeedNoRetransmission(t *testing.T) {
	const (
		spends   = 400
		inFlight = 64
	)
	spender := crypto.SeededKeyPair("read-audit-spender", 1)
	sink := crypto.SeededKeyPair("read-audit-sink", 1)
	ids := coin.NewService(nil).Prepopulate(spender.Public(), spends, 1)
	c, _ := testCluster(t, 4, func(cfg *ClusterConfig) {
		cfg.Persistence = PersistenceWeak
		cfg.ConsensusTimeout = 2 * time.Second // a loaded race build must not look like a dead leader
		cfg.AppFactory = func() Application {
			svc := coin.NewService(nil)
			svc.Prepopulate(spender.Public(), spends, 1)
			return svc
		}
	})
	p := client.New(c.ClientEndpoint(), spender, c.Members(),
		client.WithRetry(time.Hour), client.WithTimeout(30*time.Second))
	defer p.Close()
	ctx := context.Background()
	readOp := WrapAppOp(coin.EncodeBalanceQuery(spender.Public()))

	var (
		mu               sync.Mutex
		submitted, acked uint64
		wg               sync.WaitGroup
	)
	slots := make(chan struct{}, inFlight)
	for i := 0; i < 2*spends; i++ {
		slots <- struct{}{}
		isRead := i%2 == 1
		var fut *client.Future
		mu.Lock()
		ackedBefore := acked
		if !isRead {
			submitted++
		}
		mu.Unlock()
		if isRead {
			fut = p.InvokeUnorderedAsync(ctx, readOp)
		} else {
			tx, err := coin.NewSpend(spender, uint64(i), []coin.CoinID{ids[i/2]},
				[]coin.Output{{Owner: sink.Public(), Value: 1}})
			if err != nil {
				t.Fatalf("spend tx: %v", err)
			}
			fut = p.InvokeAsync(ctx, WrapAppOp(tx.Encode()))
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer func() { <-slots }()
			res, err := fut.Result()
			if err != nil {
				t.Errorf("op %d (read=%v): %v", i, isRead, err)
				return
			}
			mu.Lock()
			defer mu.Unlock()
			if !isRead {
				if code, _, perr := coin.ParseResult(res); perr != nil || code != coin.ResultOK {
					t.Errorf("spend %d: code %d err %v", i, code, perr)
				}
				acked++
				return
			}
			balance, perr := coin.ParseUint64Result(res)
			lo, hi := spends-submitted, spends-ackedBefore
			if perr != nil || balance < lo || balance > hi {
				t.Errorf("read %d: balance %d (err %v) outside [%d, %d]", i, balance, perr, lo, hi)
			}
		}(i)
	}
	wg.Wait()
}
