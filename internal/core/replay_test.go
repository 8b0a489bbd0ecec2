package core

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"smartchain/internal/blockchain"
	"smartchain/internal/coin"
	"smartchain/internal/consensus"
	"smartchain/internal/crypto"
	"smartchain/internal/smr"
	"smartchain/internal/storage"
)

// submitAll hands a request to every running replica, as a client
// broadcasting it would.
func submitAll(c *Cluster, req smr.Request) {
	for _, cn := range c.Nodes {
		if cn.Node != nil && !cn.crashed {
			cn.Node.SubmitLocal(req)
		}
	}
}

// replicatedState is everything above the ledger a replica holds after its
// newest block: the checkpoint envelope it would write there plus the
// application snapshot.
func replicatedState(t *testing.T, cn *ClusterNode) (env, app []byte) {
	t.Helper()
	n := cn.Node
	tip, ok := n.ledger.CachedBlock(n.ledger.Height())
	if !ok {
		t.Fatalf("replica %d: tip block %d not cached", cn.ID, n.ledger.Height())
	}
	e := n.envelopeAt(&tip)
	return e.encode(), cn.App.Snapshot()
}

// TestReplayMatchesLiveExecution pins the property the durable chain rests
// on (paper §IV Observation 2, Fig. 8): re-executing the committed blocks
// reproduces exactly the state live execution reached. One history carries
// every kind of request the transition routes — an application request, a
// request with a forged signature under the sequential verification mode
// (answered "bad signature" inside execution), a request ordered twice, a
// join, and remove votes short of their quorum — and two replicas rebuild
// from it without having executed it live: a follower from its own log
// after a crash, and a fresh replica through catch-up. Both must hold the
// same application state, view, permanent keys, watermarks and pending
// remove votes as a replica that executed everything live.
func TestReplayMatchesLiveExecution(t *testing.T) {
	c, minter := testCluster(t, 5, func(cfg *ClusterConfig) {
		cfg.Verify = smr.VerifySequential
		cfg.Deferred = []int32{4}
	})
	live := c.Nodes[0]
	height := int64(0)
	awaitBlock := func(what string) {
		t.Helper()
		height++
		if err := c.WaitHeight(height, 10*time.Second); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
	}
	mintReq := func(seq uint64) smr.Request {
		t.Helper()
		tx, err := coin.NewMint(minter, seq, 10)
		if err != nil {
			t.Fatal(err)
		}
		req, err := smr.NewSignedRequest(1<<30, seq, WrapAppOp(tx.Encode()), minter)
		if err != nil {
			t.Fatal(err)
		}
		return req
	}

	first := mintReq(1)
	submitAll(c, first)
	awaitBlock("mint")

	// A 999-coin MINT naming the minter as issuer and request signer, with
	// garbage where the request signature belongs.
	forgedTx := coin.Tx{Type: coin.TxMint, Issuer: minter.Public(), Nonce: 99,
		Outputs: []coin.Output{{Owner: crypto.SeededKeyPair("forger", 0).Public(), Value: 999}}}
	submitAll(c, smr.Request{ClientID: 1<<30 + 1, Seq: 1, Op: WrapAppOp(forgedTx.Encode()),
		PubKey: minter.Public(), Sig: bytes.Repeat([]byte{0xa5}, 64)})
	awaitBlock("forged mint")

	// The executed mint ordered a second time next to a new one, as a
	// leader-change re-proposal racing a fresh slot would: the test plays
	// the leader's part and proposes the batch for the lowest open slot.
	again := smr.Batch{Timestamp: time.Now().UnixNano(), Requests: []smr.Request{first, mintReq(2)}}
	leader := c.Nodes[c.Leader()].Node
	forged, _ := leader.ledger.CachedBlock(height)
	for leader.nextInstance.Load() <= forged.Body.ConsensusID {
		time.Sleep(time.Millisecond) // the floor moves right after the block becomes visible
	}
	slot, value := leader.nextInstance.Load(), again.Encode()
	propose := func(now time.Time, m *consensus.Machine) ([]consensus.Decision, int64) {
		return m.Propose(now, slot, value) // ignored until the slot is open, and once it has a proposal
	}
	height++
	for deadline := time.Now().Add(10 * time.Second); live.Node.ledger.Height() < height; time.Sleep(20 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("re-proposed batch never decided")
		}
		leader.postInput(consInput{view: leader.View().ID, step: propose})
	}
	if err := c.WaitHeight(height, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	if blk, ok := live.Node.ledger.CachedBlock(height); !ok || len(blk.Body.Results) != 2 ||
		!bytes.Equal(blk.Body.Results[0], resultDuplicate) || bytes.Equal(blk.Body.Results[1], resultDuplicate) {
		t.Fatalf("block %d does not record [duplicate, executed]: %x", height, blk.Body.Results)
	}

	if err := c.Join(5, 15*time.Second); err != nil {
		t.Fatalf("join: %v", err)
	}
	awaitBlock("join")
	for _, voter := range []int32{0, 1} {
		if err := c.Nodes[voter].Node.VoteRemove(4); err != nil {
			t.Fatalf("replica %d remove vote: %v", voter, err)
		}
		awaitBlock("remove vote")
	}

	wantEnv, wantApp := replicatedState(t, live)
	if supply := live.App.(*coin.Service).State().TotalSupply(); supply != 20 {
		t.Fatalf("live supply %d, want 20 (two mints; the forged one refused, the repeated one skipped)", supply)
	}
	same := func(how string, cn *ClusterNode) {
		t.Helper()
		if err := c.WaitHeight(height, 20*time.Second); err != nil {
			t.Fatalf("%s: %v", how, err)
		}
		env, app := replicatedState(t, cn)
		if !bytes.Equal(app, wantApp) {
			t.Errorf("%s: replica %d application state differs from live execution (supply %d)",
				how, cn.ID, cn.App.(*coin.Service).State().TotalSupply())
		}
		if !bytes.Equal(env, wantEnv) {
			got, _ := decodeSnapshotEnvelope(env)
			want, _ := decodeSnapshotEnvelope(wantEnv)
			t.Errorf("%s: replica %d envelope differs from live execution:\n got %+v\nwant %+v", how, cn.ID, got, want)
		}
	}

	// (a) A follower rebuilds from its own log.
	follower := int32(1)
	if c.Leader() == follower {
		follower = 2
	}
	if err := c.Crash(follower); err != nil {
		t.Fatal(err)
	}
	if err := c.Recover(follower); err != nil {
		t.Fatalf("recover: %v", err)
	}
	same("crash-recovery replay", c.Nodes[follower])

	// (b) A fresh replica catches up over the whole history. It was not in
	// the join quorum, so it announces a consensus key for the new view;
	// the comparison waits until every replica has recorded it (announced
	// keys reach the view outside the ordered stream).
	if err := c.StartDeferred(4, []int32{0, 1, 2, 3, 5}); err != nil {
		t.Fatalf("start deferred: %v", err)
	}
	if err := c.WaitHeight(height, 20*time.Second); err != nil {
		t.Fatalf("catch-up: %v", err)
	}
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		key, _ := c.Nodes[4].Node.keys.Current()
		spread := key != nil
		for _, cn := range c.Nodes {
			if rec, ok := cn.Node.View().ConsensusKeys[4]; !ok || key == nil || !rec.Equal(key.Public()) {
				spread = false
			}
		}
		if spread {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("replica 4's consensus key never reached every view")
		}
	}
	wantEnv, wantApp = replicatedState(t, live)
	same("catch-up replay", c.Nodes[4])
	same("crash-recovery replay, after the key announce", c.Nodes[follower])
}

// bareNode builds an un-started node (under an ID no replica uses) over the
// given log: enough to run recovery and the catch-up fetcher's install path
// by hand.
func bareNode(t *testing.T, c *Cluster, log storage.Log, app Application) *Node {
	t.Helper()
	const id = 64
	ep := c.Net.Endpoint(id)
	n, err := NewNode(Config{
		Self:      id,
		Genesis:   c.Genesis,
		Permanent: crypto.SeededKeyPair("bare-node", id),
		Transport: ep,
		Log:       log,
		App:       app,
		Storage:   smr.StorageMemory,
	})
	if err != nil {
		t.Fatal(err)
	}
	n.logger = smr.NewDurableLogger(log, smr.StorageMemory)
	t.Cleanup(func() {
		n.logger.Close()
		n.verifier.Close()
		ep.Close()
	})
	return n
}

// TestReplayRejectsRecordContradictingExecution: a recorded block whose
// results or view update differ from what re-executing its batch produces
// must not install. Nothing else catches either: the header commits to the
// results but an uncertified tip's header is unsigned, and no hash covers
// Body.Update.
func TestReplayRejectsRecordContradictingExecution(t *testing.T) {
	c, minter := testCluster(t, 4, nil)
	p := registeredClient(t, c, minter)
	if err := c.Nodes[0].Node.VoteRemove(3); err != nil { // block 1: executes the same under any application
		t.Fatal(err)
	}
	if err := c.WaitHeight(1, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	mint(t, p, 1, 10) // block 2
	if err := c.Join(4, 15*time.Second); err != nil {
		t.Fatalf("join: %v", err) // block 3
	}
	mint(t, p, 2, 10) // block 4
	if err := c.WaitHeight(4, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	donor := c.Nodes[0]
	honest := donor.Node.ledger.CachedBlocks()
	if len(honest) != 4 || honest[2].Body.Update == nil {
		t.Fatalf("unexpected history: %d blocks, join update %v", len(honest), honest[2].Body.Update)
	}

	t.Run("results", func(t *testing.T) {
		// The donor's log replayed under an application that does not know
		// the minter: every MINT re-executes to another result code.
		records, err := donor.Log.ReadAll()
		if err != nil {
			t.Fatal(err)
		}
		log := storage.NewSimLog(nil)
		for _, rec := range records {
			if err := log.Append(rec); err != nil {
				t.Fatal(err)
			}
		}
		n := bareNode(t, c, log, coin.NewService(nil))
		if err := n.recoverLocal(); err != nil {
			t.Fatalf("recovery must stop at the prefix like a torn tail does, not fail: %v", err)
		}
		if h := n.ledger.Height(); h != 1 {
			t.Fatalf("recovered to height %d, want 1 (the prefix before the first MINT block)", h)
		}
		_, err = n.replayBlock(&honest[1])
		if err == nil || !strings.Contains(err.Error(), "block 2") || !strings.Contains(err.Error(), "results") {
			t.Fatalf("replaying the MINT block: %v, want a results mismatch naming block 2", err)
		}
	})

	t.Run("update", func(t *testing.T) {
		// The join block as the tip of a fetched range, with one voter's
		// certified key dropped from its update: the remaining keys still
		// reach the new view's quorum, so chain verification accepts the
		// record.
		u := *honest[2].Body.Update
		if len(u.Keys) <= len(u.Members)-1 {
			t.Skipf("only %d keys in the update (a vote missed the grace window): none to spare", len(u.Keys))
		}
		u.Keys = append([]crypto.CertifiedKey(nil), u.Keys[1:]...)
		tampered := append([]blockchain.Block(nil), honest[:3]...)
		tampered[2].Body.Update = &u
		genesis := blockchain.GenesisBlock(&c.Genesis)
		anchor, err := blockchain.GenesisAnchor(&genesis)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := blockchain.VerifyRange(anchor, tampered); err != nil {
			t.Fatalf("premise: chain verification should accept the altered update: %v", err)
		}

		app := coin.NewService([]crypto.PublicKey{minter.Public()})
		n := bareNode(t, c, storage.NewSimLog(nil), app)
		f := nodeFetcher{n}
		err = f.ApplyBlocks(tampered)
		if err == nil || !strings.Contains(err.Error(), "block 3") || !strings.Contains(err.Error(), "view update") {
			t.Fatalf("applying the altered range: %v, want a view-update mismatch naming block 3", err)
		}
		if h := n.ledger.Height(); h != 2 {
			t.Fatalf("height %d after the rejected range, want 2", h)
		}
		// The pool bans the supplier and refetches: the honest range must
		// now install, although block 3's batch has already executed once.
		if err := f.ApplyBlocks(honest); err != nil {
			t.Fatalf("honest range after the rejected one: %v", err)
		}
		after, err := blockchain.VerifyRange(anchor, honest)
		if err != nil {
			t.Fatal(err)
		}
		tip := honest[3]
		got, want := n.envelopeAt(&tip), donor.Node.envelopeAt(&tip)
		want.View = after.View // the donor's may also hold a late-announced key
		if !bytes.Equal(got.encode(), want.encode()) || !bytes.Equal(app.Snapshot(), donor.App.Snapshot()) {
			t.Fatalf("state after the refetch differs from the donor's:\n got %+v\nwant %+v", got, want)
		}
	})
}

// SubmitLocal injects a request as if received from the network.
func (n *Node) SubmitLocal(req smr.Request) {
	n.enqueueRequest(req)
}
