package core

import (
	"context"
	"fmt"
	"reflect"
	"testing"
	"time"

	"smartchain/internal/blockchain"
	"smartchain/internal/client"
	"smartchain/internal/coin"
	"smartchain/internal/crypto"
	"smartchain/internal/smr"
)

// testCluster builds a coin-backed cluster with fast timeouts.
func testCluster(t *testing.T, n int, mutate func(*ClusterConfig)) (*Cluster, *crypto.KeyPair) {
	t.Helper()
	minter := crypto.SeededKeyPair("cluster-minter", 0)
	cfg := ClusterConfig{
		N:                n,
		AppFactory:       func() Application { return coin.NewService([]crypto.PublicKey{minter.Public()}) },
		Persistence:      PersistenceStrong,
		Storage:          smr.StorageSync,
		Verify:           smr.VerifyParallel,
		Pipeline:         true,
		CheckpointPeriod: 0,
		MaxBatch:         64,
		Minters:          []crypto.PublicKey{minter.Public()},
		ConsensusTimeout: 250 * time.Millisecond,
		ChainID:          "core-test",
	}
	if mutate != nil {
		mutate(&cfg)
	}
	c, err := NewCluster(cfg)
	if err != nil {
		t.Fatalf("cluster: %v", err)
	}
	t.Cleanup(c.Stop)
	return c, minter
}

// coinClient builds a client proxy around the minter (or any) key.
func coinClient(t *testing.T, c *Cluster, key *crypto.KeyPair) *client.Proxy {
	t.Helper()
	return client.New(c.ClientEndpoint(), key, c.Members(), client.WithTimeout(15*time.Second))
}

// mint invokes a MINT through the cluster and returns the created coins.
func mint(t *testing.T, p *client.Proxy, nonce uint64, values ...uint64) []coin.CoinID {
	t.Helper()
	tx, err := coin.NewMint(mustKeyOf(t, p), nonce, values...)
	if err != nil {
		t.Fatalf("mint tx: %v", err)
	}
	res, err := p.Invoke(context.Background(), WrapAppOp(tx.Encode()))
	if err != nil {
		t.Fatalf("invoke mint: %v", err)
	}
	code, coins, err := coin.ParseResult(res)
	if err != nil || code != coin.ResultOK {
		t.Fatalf("mint result: code=%d err=%v", code, err)
	}
	return coins
}

// mustKeyOf recovers the proxy's signing key (test-only convenience: our
// proxies are always built around a known key).
var proxyKeys = map[int64]*crypto.KeyPair{}

func mustKeyOf(t *testing.T, p *client.Proxy) *crypto.KeyPair {
	t.Helper()
	k, ok := proxyKeys[p.ID()]
	if !ok {
		t.Fatal("unknown proxy key")
	}
	return k
}

func registeredClient(t *testing.T, c *Cluster, key *crypto.KeyPair) *client.Proxy {
	t.Helper()
	p := coinClient(t, c, key)
	proxyKeys[p.ID()] = key
	return p
}

func TestClusterMintAndSpend(t *testing.T) {
	c, minter := testCluster(t, 4, nil)
	p := registeredClient(t, c, minter)

	coins := mint(t, p, 1, 100)
	if len(coins) != 1 {
		t.Fatalf("coins: %d", len(coins))
	}

	// Spend to a fresh address.
	alice := crypto.SeededKeyPair("alice", 1)
	spend, err := coin.NewSpend(minter, 2, coins, []coin.Output{{Owner: alice.Public(), Value: 100}})
	if err != nil {
		t.Fatalf("spend tx: %v", err)
	}
	res, err := p.Invoke(context.Background(), WrapAppOp(spend.Encode()))
	if err != nil {
		t.Fatalf("invoke spend: %v", err)
	}
	code, _, err := coin.ParseResult(res)
	if err != nil || code != coin.ResultOK {
		t.Fatalf("spend result: code=%d err=%v", code, err)
	}

	// All replicas agree on the application state.
	if err := c.WaitHeight(2, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	for id, cn := range c.Nodes {
		svc, ok := cn.App.(*coin.Service)
		if !ok {
			t.Fatal("app type")
		}
		if got := svc.State().Balance(alice.Public()); got != 100 {
			t.Fatalf("replica %d: alice balance %d", id, got)
		}
	}
}

func TestClusterChainsVerifyOnAllReplicas(t *testing.T) {
	c, minter := testCluster(t, 4, nil)
	p := registeredClient(t, c, minter)
	for i := uint64(1); i <= 5; i++ {
		mint(t, p, i, 10*i)
	}
	if err := c.WaitHeight(5, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	// Give the PERSIST round of the tip a moment to settle everywhere.
	time.Sleep(200 * time.Millisecond)
	gb := blockchain.GenesisBlock(&c.Genesis)
	for id, cn := range c.Nodes {
		blocks := append([]blockchain.Block{gb}, cn.Node.Ledger().CachedBlocks()...)
		sum, err := blockchain.VerifyChain(blocks, blockchain.VerifyOptions{
			RequireCerts:         true,
			AllowUncertifiedTail: 1,
		})
		if err != nil {
			t.Fatalf("replica %d chain: %v", id, err)
		}
		if sum.Height < 5 || sum.Transactions < 5 {
			t.Fatalf("replica %d summary: %+v", id, sum)
		}
	}
}

func TestClusterFollowerCrashRecover(t *testing.T) {
	c, minter := testCluster(t, 4, nil)
	p := registeredClient(t, c, minter)

	mint(t, p, 1, 10)
	if err := c.Crash(3); err != nil {
		t.Fatal(err)
	}
	// Progress continues with 3 of 4.
	mint(t, p, 2, 20)
	mint(t, p, 3, 30)

	if err := c.Recover(3); err != nil {
		t.Fatalf("recover: %v", err)
	}
	// The recovered replica catches up to the others.
	if err := c.WaitHeight(3, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	svc := c.Nodes[3].App.(*coin.Service)
	if got := svc.State().Balance(minter.Public()); got != 60 {
		t.Fatalf("recovered balance: %d", got)
	}
	// And participates again: one more transaction reaches height 4 on it.
	mint(t, p, 4, 40)
	if err := c.WaitHeight(4, 10*time.Second); err != nil {
		t.Fatal(err)
	}
}

func TestClusterLeaderCrashFailover(t *testing.T) {
	c, minter := testCluster(t, 4, nil)
	p := registeredClient(t, c, minter)

	mint(t, p, 1, 10) // leader 0 drives instance 1
	if err := c.Crash(0); err != nil {
		t.Fatal(err)
	}
	// The next operations require a leader change.
	mint(t, p, 2, 20)
	mint(t, p, 3, 30)
	for _, id := range []int32{1, 2, 3} {
		svc := c.Nodes[id].App.(*coin.Service)
		if got := svc.State().Balance(minter.Public()); got != 60 {
			t.Fatalf("replica %d balance after failover: %d", id, got)
		}
	}
}

func TestClusterFullCrashStrongKeepsRepliedSuffix(t *testing.T) {
	// Observation 2 / §V-C: under the strong variant, every transaction
	// whose client saw a quorum of replies survives a full crash of all
	// replicas.
	c, minter := testCluster(t, 4, nil)
	p := registeredClient(t, c, minter)
	for i := uint64(1); i <= 3; i++ {
		mint(t, p, i, 100)
	}
	c.CrashAll()
	for _, id := range []int32{0, 1, 2, 3} {
		if err := c.Recover(id); err != nil {
			t.Fatalf("recover %d: %v", id, err)
		}
	}
	if err := c.WaitHeight(3, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	for id, cn := range c.Nodes {
		svc := cn.App.(*coin.Service)
		if got := svc.State().Balance(minter.Public()); got != 300 {
			t.Fatalf("replica %d balance after full crash: %d", id, got)
		}
	}
	// The system keeps working.
	mint(t, p, 4, 1)
}

func TestClusterCheckpointAndCatchUp(t *testing.T) {
	c, minter := testCluster(t, 4, func(cfg *ClusterConfig) {
		cfg.CheckpointPeriod = 3
	})
	p := registeredClient(t, c, minter)
	for i := uint64(1); i <= 7; i++ {
		mint(t, p, i, uint64(i))
	}
	if err := c.WaitHeight(7, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	// Checkpoints pruned the caches: at most height−checkpoint blocks kept.
	for id, cn := range c.Nodes {
		if ck := cn.Node.Ledger().LastCheckpoint(); ck < 3 {
			t.Fatalf("replica %d: last checkpoint %d", id, ck)
		}
		if cached := len(cn.Node.Ledger().CachedBlocks()); cached > 4 {
			t.Fatalf("replica %d: %d cached blocks after checkpoint", id, cached)
		}
	}
	// A crashed replica recovers from snapshot + tail and rejoins.
	if err := c.Crash(2); err != nil {
		t.Fatal(err)
	}
	mint(t, p, 8, 8)
	if err := c.Recover(2); err != nil {
		t.Fatalf("recover: %v", err)
	}
	if err := c.WaitHeight(8, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	svc := c.Nodes[2].App.(*coin.Service)
	want := uint64(1 + 2 + 3 + 4 + 5 + 6 + 7 + 8)
	if got := svc.State().Balance(minter.Public()); got != want {
		t.Fatalf("recovered-from-checkpoint balance: %d want %d", got, want)
	}
}

func TestClusterJoin(t *testing.T) {
	c, minter := testCluster(t, 4, nil)
	p := registeredClient(t, c, minter)
	mint(t, p, 1, 10)

	if err := c.Join(4, 15*time.Second); err != nil {
		t.Fatalf("join: %v", err)
	}
	// All replicas see the 5-member view.
	for id, cn := range c.Nodes {
		if cn.Node.Retired() {
			continue
		}
		v := cn.Node.View()
		if v.N() != 5 || !v.Contains(4) {
			t.Fatalf("replica %d view after join: %v", id, v)
		}
	}
	// The joiner received the state.
	svc := c.Nodes[4].App.(*coin.Service)
	if got := svc.State().Balance(minter.Public()); got != 10 {
		t.Fatalf("joiner balance: %d", got)
	}
	// And the system processes transactions in the new view.
	p.SetMembers(c.Members())
	mint(t, p, 2, 20)
	if err := c.WaitHeight(c.Nodes[0].Node.Ledger().Height(), 5*time.Second); err != nil {
		t.Fatal(err)
	}
}

func TestClusterLeave(t *testing.T) {
	c, minter := testCluster(t, 5, nil)
	p := registeredClient(t, c, minter)
	mint(t, p, 1, 10)

	if err := c.Leave(4, 15*time.Second); err != nil {
		t.Fatalf("leave: %v", err)
	}
	// Leave returns when the LEAVER has retired; the remaining replicas
	// install the new view as they commit the reconfiguration block, which
	// can lag by a moment — poll instead of snapshotting.
	deadline := time.Now().Add(10 * time.Second)
	for id, cn := range c.Nodes {
		if id == 4 {
			if !cn.Node.Retired() {
				t.Fatal("leaver must retire")
			}
			continue
		}
		for {
			v := cn.Node.View()
			if v.N() == 4 && !v.Contains(4) {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("replica %d view after leave: %v", id, v)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	p.SetMembers(c.Members())
	mint(t, p, 2, 20)
}

func TestClusterExclude(t *testing.T) {
	c, minter := testCluster(t, 5, nil)
	p := registeredClient(t, c, minter)
	mint(t, p, 1, 10)

	// Replica 4 goes silent (Byzantine); the rest exclude it.
	if err := c.Crash(4); err != nil {
		t.Fatal(err)
	}
	if err := c.Exclude(4, 15*time.Second); err != nil {
		t.Fatalf("exclude: %v", err)
	}
	for id, cn := range c.Nodes {
		if id == 4 || cn.crashed {
			continue
		}
		v := cn.Node.View()
		if v.Contains(4) {
			t.Fatalf("replica %d still sees 4: %v", id, v)
		}
	}
	p.SetMembers(c.Members())
	mint(t, p, 2, 20)
}

func TestClusterReconfigBlockOnChainVerifies(t *testing.T) {
	c, minter := testCluster(t, 4, nil)
	p := registeredClient(t, c, minter)
	mint(t, p, 1, 10)
	if err := c.Join(4, 15*time.Second); err != nil {
		t.Fatalf("join: %v", err)
	}
	p.SetMembers(c.Members())
	mint(t, p, 2, 20)
	time.Sleep(300 * time.Millisecond)

	gb := blockchain.GenesisBlock(&c.Genesis)
	blocks := append([]blockchain.Block{gb}, c.Nodes[0].Node.Ledger().CachedBlocks()...)
	sum, err := blockchain.VerifyChain(blocks, blockchain.VerifyOptions{})
	if err != nil {
		t.Fatalf("verify: %v", err)
	}
	if sum.ViewChanges != 1 {
		t.Fatalf("view changes: %d", sum.ViewChanges)
	}
	if sum.FinalView.N() != 5 {
		t.Fatalf("final view: %v", sum.FinalView)
	}
}

func TestClusterSequentialVerifyMode(t *testing.T) {
	c, minter := testCluster(t, 4, func(cfg *ClusterConfig) {
		cfg.Verify = smr.VerifySequential
		cfg.Pipeline = false
		cfg.Persistence = PersistenceWeak
	})
	p := registeredClient(t, c, minter)
	mint(t, p, 1, 5)
	mint(t, p, 2, 5)
	if err := c.WaitHeight(2, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	for id, cn := range c.Nodes {
		svc := cn.App.(*coin.Service)
		if got := svc.State().Balance(minter.Public()); got != 10 {
			t.Fatalf("replica %d balance: %d", id, got)
		}
	}
}

func TestClusterRejectsForgedClientRequests(t *testing.T) {
	c, minter := testCluster(t, 4, nil)
	p := registeredClient(t, c, minter)

	// A minter-issued MINT inside an envelope signed by another key must
	// never execute: the request signature is the transaction's only one.
	tx, err := coin.NewMint(minter, 1, 999)
	if err != nil {
		t.Fatal(err)
	}
	forged := WrapAppOp(tx.Encode())
	ep := c.ClientEndpoint()
	evil := client.New(ep, crypto.SeededKeyPair("evil", 1), c.Members(), client.WithTimeout(time.Second))
	if _, err := evil.Invoke(context.Background(), forged); err == nil {
		t.Fatal("forged transaction must not gather a reply quorum")
	}

	// A legitimate transaction still works, and the forged one never
	// executed anywhere.
	mint(t, p, 2, 10)
	if err := c.WaitHeight(1, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	for _, cn := range c.Nodes {
		svc := cn.App.(*coin.Service)
		if got := svc.State().TotalSupply(); got != 10 {
			t.Fatalf("supply: %d (forged mint executed?)", got)
		}
	}
}

// TestConfigFieldBudget pins the number of independently settable knobs.
// Every field doubles the configurations tests and benchmarks must cover,
// so the count may shrink freely but never grow silently.
func TestConfigFieldBudget(t *testing.T) {
	for _, c := range []struct {
		typ    reflect.Type
		budget int
	}{
		{reflect.TypeOf(Config{}), 19},
		{reflect.TypeOf(ClusterConfig{}), 21},
	} {
		if n := c.typ.NumField(); n > c.budget {
			t.Errorf("%s has %d fields, budget %d: justify the new field in DESIGN.md \"Knobs\" "+
				"(which two existing callers need different values?) and raise the budget in the same change",
				c.typ.Name(), n, c.budget)
		}
	}
}

// Exclude drives the removal of target: every other member submits its
// remove vote.
func (c *Cluster) Exclude(target int32, timeout time.Duration) error {
	if _, ok := c.Nodes[target]; !ok {
		return fmt.Errorf("core: unknown replica %d", target)
	}
	for id, cn := range c.Nodes {
		if id == target || cn.crashed || cn.Node == nil || cn.Node.Retired() {
			continue
		}
		if err := cn.Node.VoteRemove(target); err != nil {
			return err
		}
	}
	deadline := time.Now().Add(timeout)
	for {
		// The target may be crashed/Byzantine and never observe its own
		// exclusion; what matters is the view of the remaining members.
		others := 0
		excluded := 0
		for id, cn := range c.Nodes {
			if id == target || cn.crashed || cn.Node == nil {
				continue
			}
			others++
			if !cn.Node.View().Contains(target) {
				excluded++
			}
		}
		if others > 0 && excluded == others {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("core: exclusion of %d not installed within %v", target, timeout)
		}
		time.Sleep(20 * time.Millisecond)
	}
}
