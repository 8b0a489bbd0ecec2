package core

import (
	"bytes"
	"testing"
	"time"

	"smartchain/internal/coin"
	"smartchain/internal/consensus"
	"smartchain/internal/crypto"
	"smartchain/internal/smr"
)

// A leader that puts a forged request into its own proposal gets no WRITE
// quorum under VerifyParallel: the followers check every request of a
// proposal before they vote. No correct replica executes it, the progress
// timeout deposes the leader, and honest load keeps committing. The two
// forgeries are a SPEND of the minter's coin whose envelope signature is
// bad, and one whose envelope is validly signed by a thief, not the issuer.
func TestLeaderCannotOrderForgedRequest(t *testing.T) {
	thief := crypto.SeededKeyPair("thief", 1)
	for _, tc := range []struct {
		name  string
		forge func(t *testing.T, spend coin.Tx, minter *crypto.KeyPair) smr.Request
	}{
		{"bad envelope signature", func(t *testing.T, spend coin.Tx, minter *crypto.KeyPair) smr.Request {
			req, err := smr.NewSignedRequest(1<<30, 1, WrapAppOp(spend.Encode()), minter)
			if err != nil {
				t.Fatal(err)
			}
			req.Sig = bytes.Repeat([]byte{0xa5}, crypto.SignatureSize)
			return req
		}},
		{"issuer is not the signer", func(t *testing.T, spend coin.Tx, _ *crypto.KeyPair) smr.Request {
			req, err := smr.NewSignedRequest(1<<30, 1, WrapAppOp(spend.Encode()), thief)
			if err != nil {
				t.Fatal(err)
			}
			return req
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c, minter := testCluster(t, 4, nil)
			p := registeredClient(t, c, minter)
			coins := mint(t, p, 1, 100)
			spend, err := coin.NewSpend(minter, 2, coins, []coin.Output{{Owner: thief.Public(), Value: 100}})
			if err != nil {
				t.Fatal(err)
			}
			forged := tc.forge(t, spend, minter)

			// The leader's part: the forged request goes straight into its
			// queue, past the verification every correct leader does.
			byzantine := c.Leader()
			if !c.Nodes[byzantine].Node.batcher.Add(forged) {
				t.Fatal("the leader's queue refused the forged request")
			}
			deadline := time.Now().Add(15 * time.Second)
			for c.Leader() == byzantine {
				if time.Now().After(deadline) {
					t.Fatal("the leader that proposed a forged request was never deposed")
				}
				time.Sleep(10 * time.Millisecond)
			}
			mint(t, p, 3, 7) // honest load commits under the new leader
			if err := c.WaitHeight(2, 10*time.Second); err != nil {
				t.Fatal(err)
			}

			changes := int64(0)
			for id, cn := range c.Nodes {
				state := cn.App.(*coin.Service).State()
				if got := state.Balance(thief.Public()); got != 0 {
					t.Errorf("replica %d executed the forged SPEND: thief holds %d", id, got)
				}
				if got := state.TotalSupply(); got != 107 {
					t.Errorf("replica %d: supply %d, want 107", id, got)
				}
				changes = max(changes, cn.Node.Stats().EpochChanges)
			}
			if changes < 1 {
				t.Fatalf("no epoch change deposed replica %d", byzantine)
			}
		})
	}
}

// A client that floods followers alone with forged requests deposes nobody:
// a follower holds them unverified, never more than MaxBatch, flushes them
// when the set fills or a progress deadline asks whether work is pending,
// and drops them all. Nothing forged executes.
func TestForgedRequestFloodToFollowersDeposesNobody(t *testing.T) {
	const maxBatch = 64
	c, minter := testCluster(t, 4, func(cfg *ClusterConfig) { cfg.MaxBatch = maxBatch })
	p := registeredClient(t, c, minter)
	mint(t, p, 1, 10)

	leader := c.Leader()
	tx, err := coin.NewMint(minter, 99, 1000)
	if err != nil {
		t.Fatal(err)
	}
	op := WrapAppOp(tx.Encode())
	ep := c.ClientEndpoint()
	peak := 0
	for seq := uint64(1); seq <= 10*maxBatch+maxBatch/2; seq++ {
		forged := smr.Request{ClientID: int64(ep.ID()), Seq: seq, Op: op, PubKey: minter.Public(),
			Sig: bytes.Repeat([]byte{byte(seq)}, crypto.SignatureSize)}
		payload := forged.Encode()
		for id, cn := range c.Nodes {
			if id == leader {
				continue
			}
			if err := ep.Send(id, MsgRequest, payload); err != nil {
				t.Fatal(err)
			}
			peak = max(peak, cn.Node.unverified.size())
		}
	}
	if peak > maxBatch {
		t.Fatalf("a follower held %d unverified requests, MaxBatch is %d", peak, maxBatch)
	}

	mint(t, p, 2, 5) // honest load still commits
	deadline := time.Now().Add(10 * time.Second)
	for id, cn := range c.Nodes {
		for cn.Node.unverified.size() > 0 { // a progress deadline flushes the rest
			if time.Now().After(deadline) {
				t.Fatalf("replica %d still holds %d forged requests", id, cn.Node.unverified.size())
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	for id, cn := range c.Nodes {
		if got := cn.Node.Stats().EpochChanges; got != 0 {
			t.Errorf("replica %d: %d epoch changes, want 0", id, got)
		}
		if got := cn.App.(*coin.Service).State().TotalSupply(); got != 15 {
			t.Errorf("replica %d: supply %d, want 15 (a forged mint executed?)", id, got)
		}
		if got := cn.Node.batcher.Pending(); got != 0 {
			t.Errorf("replica %d: %d requests pending", id, got)
		}
	}
}

// The flood's protocol fact on the driver rig's virtual clock: a
// VerifyParallel follower holding only forged requests reaches its progress
// deadline, and the deadline's HasPending flushes them (admit) into a
// batcher that stays empty — so it starts no epoch change, and its
// unverified set ends up empty.
func TestFollowerHoldingOnlyForgedRequestsStartsNoEpochChange(t *testing.T) {
	const timeout = time.Second
	r := newDriverRig(t, 1, timeout, true, smr.VerifyParallel) // replica 0 leads
	minter := crypto.SeededKeyPair("flood", 1)
	tx, err := coin.NewMint(minter, 99, 1000)
	if err != nil {
		t.Fatal(err)
	}
	const forged = 5 // fewer than MaxBatch: no flush before the deadline
	for seq := uint64(1); seq <= forged; seq++ {
		r.n.enqueueRequest(smr.Request{ClientID: 7, Seq: seq, Op: WrapAppOp(tx.Encode()), PubKey: minter.Public(),
			Sig: bytes.Repeat([]byte{byte(seq)}, crypto.SignatureSize)})
	}
	if got := r.n.unverified.size(); got != forged {
		t.Fatalf("the follower holds %d unverified requests, want %d", got, forged)
	}

	r.now = r.now.Add(timeout + time.Millisecond) // past slot 1's progress deadline
	r.n.onTimer(r.now)
	for _, m := range r.ep.sent {
		if m.Type == consensus.MsgEpochStop {
			t.Fatal("an EPOCH-STOP left the follower: a forged request counted as pending work")
		}
	}
	if got := r.n.Stats().EpochChanges; got != 0 {
		t.Fatalf("%d regencies installed, want 0", got)
	}
	if got := r.n.unverified.size(); got != 0 {
		t.Fatalf("%d requests still held unverified after the deadline", got)
	}
	if got := r.n.batcher.Pending(); got != 0 {
		t.Fatalf("%d forged requests pending", got)
	}
}

// A follower's batch equation gives all the requests one client key signed a
// single key term, so the natural attack on it is a transplanted signature: a
// request carrying a valid signature by the same key over a sibling request.
// A proposal of 32 requests from one client holding one such signature is
// refused; the 32 honest requests are accepted.
func TestFollowerRefusesTransplantedSignatureFromOneClient(t *testing.T) {
	r := newDriverRig(t, 1, time.Second, true, smr.VerifyParallel) // replica 0 leads
	client := crypto.SeededKeyPair("one-client", 1)
	honest := make([]smr.Request, 32)
	for i := range honest {
		tx, err := coin.NewMint(client, uint64(i), 10)
		if err != nil {
			t.Fatal(err)
		}
		if honest[i], err = smr.NewSignedRequest(7, uint64(i+1), WrapAppOp(tx.Encode()), client); err != nil {
			t.Fatal(err)
		}
	}
	transplanted := append([]smr.Request(nil), honest...)
	transplanted[13].Sig = honest[14].Sig
	if r.n.validProposal(1, (&smr.Batch{Timestamp: 1, Requests: transplanted}).Encode()) {
		t.Fatal("a proposal holding a sibling's signature was accepted")
	}
	if !r.n.validProposal(1, (&smr.Batch{Timestamp: 1, Requests: honest}).Encode()) {
		t.Fatal("the honest proposal was refused")
	}
}

// The leader verifies what it proposes the way a follower does, in one batch
// equation per cut, and nothing on arrival: replica 0 leads under
// VerifyParallel and receives 10 × MaxBatch forged requests, each claiming
// an honest client's identity and sequence number ahead of the honest signed
// request (a queue keyed by client and sequence would keep the forgery and
// refuse the real one), interleaved with the honest requests. It never holds
// more than MaxBatch unverified, every honest request commits, nothing
// forged does, and nobody campaigns.
func TestLeaderFloodedWithForgedRequestsCommitsEveryHonestOne(t *testing.T) {
	const timeout = time.Minute
	r := newDriverRig(t, 0, timeout, true, smr.VerifyParallel)
	maxBatch := r.n.cfg.MaxBatch
	client := crypto.SeededKeyPair("leader-flood", 1)
	forgedOp := WrapAppOp(func() []byte {
		tx, err := coin.NewMint(client, 1<<20, 1000)
		if err != nil {
			t.Fatal(err)
		}
		return tx.Encode()
	}())
	var honest, forged []smr.Request
	for seq := uint64(1); seq <= uint64(10*maxBatch); seq++ {
		fake := smr.Request{ClientID: 7, Seq: seq, Op: forgedOp, PubKey: client.Public(),
			Sig: bytes.Repeat([]byte{byte(seq)}, crypto.SignatureSize)}
		forged = append(forged, fake)
		r.n.enqueueRequest(fake)
		if seq%4 == 0 {
			tx, err := coin.NewMint(client, seq, 10)
			if err != nil {
				t.Fatal(err)
			}
			req, err := smr.NewSignedRequest(7, seq, WrapAppOp(tx.Encode()), client)
			if err != nil {
				t.Fatal(err)
			}
			honest = append(honest, req)
			r.n.enqueueRequest(req)
		}
		if got := r.n.unverified.size(); got > maxBatch {
			t.Fatalf("the leader holds %d unverified requests, MaxBatch is %d", got, maxBatch)
		}
		if seq%12 == 0 { // the driver steps between bursts: some flushes are the set's, some a cut's
			r.run()
		}
	}
	r.run()

	r.now = r.now.Add(timeout + time.Millisecond) // past every progress deadline
	r.n.onTimer(r.now)
	r.run()
	committed := r.committed(t)
	for _, req := range honest {
		if !committed[req.Digest()] {
			t.Errorf("honest request %d never committed", req.Seq)
		}
	}
	for _, req := range forged {
		if committed[req.Digest()] {
			t.Errorf("forged request %d committed", req.Seq)
		}
	}
	for _, m := range r.ep.sent {
		if m.Type == consensus.MsgEpochStop {
			t.Fatal("an EPOCH-STOP left the leader")
		}
	}
	if got := r.n.Stats().EpochChanges; got != 0 {
		t.Fatalf("%d regencies installed, want 0", got)
	}
	if held, pending := r.n.unverified.size(), r.n.batcher.Pending(); held != 0 || pending != 0 {
		t.Fatalf("%d requests held unverified and %d pending at the end, want none", held, pending)
	}
}

// A follower's held requests that a passing PROPOSE names are verified by
// that check: they leave the unverified set for the batcher. When a regency
// change then makes the follower the leader, its first cut proposes them
// straight from the batcher — the flush before it runs over an empty set, so
// nothing is verified twice — and they commit.
func TestFollowerThatLeadsProposesClaimedRequestsWithoutReverifying(t *testing.T) {
	const timeout = time.Minute
	r := newDriverRig(t, 1, timeout, true, smr.VerifyParallel) // replica 0 leads regency 0, replica 1 regency 1
	client := crypto.SeededKeyPair("claimed", 1)
	reqs := make([]smr.Request, 3)
	for i := range reqs {
		tx, err := coin.NewMint(client, uint64(i), 10)
		if err != nil {
			t.Fatal(err)
		}
		if reqs[i], err = smr.NewSignedRequest(7, uint64(i+1), WrapAppOp(tx.Encode()), client); err != nil {
			t.Fatal(err)
		}
		r.n.enqueueRequest(reqs[i])
	}

	// Replica 0 proposes them to replica 1 alone and falls silent.
	r.peers[0].Start(r.now, 1, (&smr.Batch{Timestamp: 1, Requests: reqs}).Encode())
	r.peers[2].Start(r.now, 1, nil)
	r.peers[3].Start(r.now, 1, nil)
	r.started = 1
	for _, m := range r.flight {
		if m.From == 0 && m.To == 1 && m.Type == consensus.MsgPropose {
			r.toNode = append(r.toNode, m)
		}
	}
	r.flight = nil
	r.down = map[int32]bool{0: true}
	r.deliver()
	if held, pending := r.n.unverified.size(), r.n.batcher.Pending(); held != 0 || pending != len(reqs) {
		t.Fatalf("after the PROPOSE passed: %d held unverified, %d pending; want 0 and %d", held, pending, len(reqs))
	}

	type cut struct {
		held  int
		batch smr.Batch
	}
	var cuts []cut
	next := r.n.w.next
	r.n.w.next = func(full bool) (smr.Batch, bool) {
		held := r.n.unverified.size()
		batch, ok := next(full)
		if ok {
			cuts = append(cuts, cut{held, batch})
		}
		return batch, ok
	}
	r.now = r.now.Add(timeout + time.Millisecond) // slot 1's deadline on replica 1 and both live peers
	r.n.onTimer(r.now)
	r.peers[2].Tick(r.now)
	r.peers[3].Tick(r.now)
	r.run()
	if got := r.n.Regency(); got != 1 || r.n.Leader() != 1 {
		t.Fatalf("regency %d led by %d, want replica 1 leading regency 1", got, r.n.Leader())
	}
	if len(cuts) == 0 {
		t.Fatal("the new leader cut no batch")
	}
	if cuts[0].held != 0 {
		t.Fatalf("the new leader's first cut flushed %d held requests, want an empty set", cuts[0].held)
	}
	if got := len(cuts[0].batch.Requests); got != len(reqs) {
		t.Fatalf("the first cut carries %d requests, want the %d claimed", got, len(reqs))
	}
	committed := r.committed(t)
	for _, req := range reqs {
		if !committed[req.Digest()] {
			t.Errorf("claimed request %d never committed", req.Seq)
		}
	}
}
