package core

import (
	"context"
	"path/filepath"
	"testing"
	"time"

	"smartchain/internal/blockchain"
	"smartchain/internal/client"
	"smartchain/internal/coin"
	"smartchain/internal/crypto"
	"smartchain/internal/smr"
	"smartchain/internal/storage"
	"smartchain/internal/transport"
)

// TestClusterTCPWireMintAndSpend runs the full stack — client proxy,
// ordering, execution, replies — over real loopback TCP and checks the
// wire stayed clean, after a first exchange and again after a burst that
// keeps the ordering window and every link's send queue busy: no drops, no
// failed dial, no authentication failure, no malformed frame, no failed
// invocation.
func TestClusterTCPWireMintAndSpend(t *testing.T) {
	c, minter := testCluster(t, 4, func(cfg *ClusterConfig) {
		cfg.TCPWire = true
		cfg.ChainID = "core-tcp-test"
		// The subject is the wire, not failover: under the race detector
		// the burst below takes up to ~15 s on two cores, and a progress
		// timer sized for leader-kill tests would have the view spend the
		// run deposing healthy leaders.
		cfg.ConsensusTimeout = 30 * time.Second
	})
	p := registeredClient(t, c, minter)

	coins := mint(t, p, 1, 100)
	alice := crypto.SeededKeyPair("alice-tcp", 1)
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
	if err := c.WaitHeight(2, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	for id, cn := range c.Nodes {
		svc := cn.App.(*coin.Service)
		if got := svc.State().Balance(alice.Public()); got != 100 {
			t.Fatalf("replica %d: alice balance %d", id, got)
		}
	}

	cleanWire := func(phase string) {
		t.Helper()
		stats := c.WireStats()
		if stats == nil {
			t.Fatal("no wire stats on TCP cluster")
		}
		for id, s := range stats {
			if d := s.TotalDrops(); d != 0 {
				t.Fatalf("%s: process %d dropped %d frames on a healthy loopback", phase, id, d)
			}
			if s.AuthFailures != 0 || s.ProtocolViolations != 0 {
				t.Fatalf("%s: process %d: auth=%d proto=%d", phase, id, s.AuthFailures, s.ProtocolViolations)
			}
			for peer, ps := range s.Peers {
				if ps.DialFailures != 0 {
					t.Fatalf("%s: process %d failed %d dials to %d", phase, id, ps.DialFailures, peer)
				}
			}
		}
	}
	cleanWire("after two operations")

	// Load phase: 8 proxies keep 100 asynchronous mints each in flight.
	const proxies, perProxy = 8, 100
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	var futures []*client.Future
	for i := 0; i < proxies; i++ {
		lp := coinClient(t, c, minter)
		defer lp.Close()
		for j := 0; j < perProxy; j++ {
			tx, err := coin.NewMint(minter, uint64(1000+i*perProxy+j), 1)
			if err != nil {
				t.Fatalf("mint tx: %v", err)
			}
			futures = append(futures, lp.InvokeAsync(ctx, WrapAppOp(tx.Encode())))
		}
	}
	for i, f := range futures {
		res, err := f.Result()
		if err != nil {
			t.Fatalf("burst invocation %d failed: %v", i, err)
		}
		if code, _, err := coin.ParseResult(res); err != nil || code != coin.ResultOK {
			t.Fatalf("burst invocation %d: code=%d err=%v", i, code, err)
		}
	}
	var maxH int64
	for _, cn := range c.Nodes {
		if h := cn.Node.Ledger().Height(); h > maxH {
			maxH = h
		}
	}
	if err := c.WaitHeight(maxH, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	for id, cn := range c.Nodes {
		svc := cn.App.(*coin.Service)
		if got := svc.State().Balance(minter.Public()); got != proxies*perProxy {
			t.Fatalf("replica %d: minter balance %d after the burst, want %d", id, got, proxies*perProxy)
		}
	}
	cleanWire("after the burst")
}

// TestDaemonDeploymentAnswersUnlistedClient is cmd/smartchaind +
// cmd/smartcoin in one process: four nodes over plain TCPNetworks whose
// directories list the replicas and nothing else, file-backed storage, and
// a client endpoint on an ephemeral port that no directory mentions. Mint,
// spend and an unordered balance read must each gather their reply quorum —
// the replies can only travel back over the connections the client dialed.
func TestDaemonDeploymentAnswersUnlistedClient(t *testing.T) {
	const n, chainID = 4, "daemon-deployment"
	secret := []byte("daemon-deployment-secret")
	minter := crypto.SeededKeyPair(chainID+"/minter", 0)
	genesis := blockchain.Genesis{
		ChainID:          chainID,
		Minters:          []crypto.PublicKey{minter.Public()},
		CheckpointPeriod: 1000,
		MaxBatchSize:     512,
	}
	for i := int64(0); i < n; i++ {
		genesis.Replicas = append(genesis.Replicas, blockchain.ReplicaInfo{
			ID:           int32(i),
			PermanentPub: crypto.SeededKeyPair(chainID+"/perm", i).Public(),
			ConsensusPub: crypto.SeededKeyPair(chainID+"/cons0", i).Public(),
		})
	}

	// The daemons get -listen and -peers on their command lines; here the
	// ports are ephemeral, so the same replicas-only directory is filled in
	// once every listener is bound.
	nets := make([]*transport.TCPNetwork, n)
	peers := make(map[int32]string, n)
	for i := range nets {
		tn, err := transport.NewTCPNetwork(int32(i), "127.0.0.1:0", secret, nil)
		if err != nil {
			t.Fatalf("listen %d: %v", i, err)
		}
		nets[i] = tn
		peers[int32(i)] = tn.Addr()
	}
	var members []int32
	for i, tn := range nets {
		for id, addr := range peers {
			tn.AddPeer(id, addr)
		}
		dir := t.TempDir()
		log, err := storage.OpenFileLog(filepath.Join(dir, "chain.log"))
		if err != nil {
			t.Fatal(err)
		}
		node, err := NewNode(Config{
			Self:                int32(i),
			Genesis:             genesis,
			Permanent:           crypto.SeededKeyPair(chainID+"/perm", int64(i)),
			InitialConsensusKey: crypto.SeededKeyPair(chainID+"/cons0", int64(i)),
			Transport:           tn,
			Log:                 log,
			Snapshots:           storage.NewFileSnapshotStore(filepath.Join(dir, "snapshot")),
			KeyFile:             storage.NewFileSnapshotStore(filepath.Join(dir, "consensus.key")),
			App:                 coin.NewService(genesis.Minters),
			Persistence:         PersistenceStrong,
			Storage:             smr.StorageSync,
			Verify:              smr.VerifyParallel,
			Pipeline:            true,
			ConsensusTimeout:    time.Second,
		})
		if err != nil {
			t.Fatalf("node %d: %v", i, err)
		}
		if err := node.Start(); err != nil {
			t.Fatalf("start %d: %v", i, err)
		}
		tn := tn
		t.Cleanup(func() {
			node.Stop()
			tn.Close()
			log.Close()
		})
		members = append(members, int32(i))
	}

	cn, err := transport.NewTCPNetwork(transport.ClientIDBase+1, "127.0.0.1:0", secret, peers)
	if err != nil {
		t.Fatalf("listen client: %v", err)
	}
	defer cn.Close()
	p := client.New(cn, minter, members, client.WithTimeout(10*time.Second))
	defer p.Close()
	proxyKeys[p.ID()] = minter

	coins := mint(t, p, 1, 100, 50)
	if len(coins) != 2 {
		t.Fatalf("minted %d coins, want 2", len(coins))
	}
	spend, err := coin.NewSpend(minter, 2, coins[:1], []coin.Output{{Owner: minter.Public(), Value: 100}})
	if err != nil {
		t.Fatalf("spend tx: %v", err)
	}
	res, err := p.Invoke(context.Background(), WrapAppOp(spend.Encode()))
	if err != nil {
		t.Fatalf("invoke spend: %v", err)
	}
	if code, _, err := coin.ParseResult(res); err != nil || code != coin.ResultOK {
		t.Fatalf("spend result: code=%d err=%v", code, err)
	}
	res, err = p.InvokeUnordered(context.Background(), WrapAppOp(coin.EncodeBalanceQuery(minter.Public())))
	if err != nil {
		t.Fatalf("unordered balance: %v", err)
	}
	if got, err := coin.ParseUint64Result(res); err != nil || got != 150 {
		t.Fatalf("balance %d (err %v), want 150", got, err)
	}
}

// TestClusterTCPWireFollowerCrashRecover crashes a follower on the TCP wire
// and recovers it: survivors must keep ordering while their links to the
// dead peer cycle through reconnect backoff, and the recovered replica
// (listening on a fresh port, re-announced through the fabric directory)
// must catch up.
func TestClusterTCPWireFollowerCrashRecover(t *testing.T) {
	c, minter := testCluster(t, 4, func(cfg *ClusterConfig) {
		cfg.TCPWire = true
		cfg.ChainID = "core-tcp-crash"
	})
	p := registeredClient(t, c, minter)

	mint(t, p, 1, 10)
	follower := int32(3)
	if l := c.Leader(); l == follower {
		follower = 2
	}
	if err := c.Crash(follower); err != nil {
		t.Fatal(err)
	}
	for i := uint64(2); i <= 4; i++ {
		mint(t, p, i, 10)
	}
	if err := c.Recover(follower); err != nil {
		t.Fatalf("recover: %v", err)
	}
	if err := c.WaitHeight(4, 15*time.Second); err != nil {
		t.Fatal(err)
	}
}
