package core

import (
	"testing"
	"time"

	"smartchain/internal/coin"
	"smartchain/internal/crypto"
	"smartchain/internal/reconfig"
	"smartchain/internal/smr"
)

// TestRetransmissionAnsweredFromReplyCache: replicas never re-order an
// executed request, so a retransmission (e.g. after the original replies
// were lost) must be answered from the reply cache — identically to the
// original reply and without consuming a consensus instance.
func TestRetransmissionAnsweredFromReplyCache(t *testing.T) {
	c, minter := testCluster(t, 4, nil)
	ep := c.ClientEndpoint()
	defer ep.Close()

	tx, err := coin.NewMint(minter, 1, 25)
	if err != nil {
		t.Fatal(err)
	}
	req, err := smr.NewSignedRequest(int64(ep.ID()), 1, WrapAppOp(tx.Encode()), minter)
	if err != nil {
		t.Fatal(err)
	}
	payload := req.Encode()
	for _, m := range c.Members() {
		_ = ep.Send(m, smr.MsgRequest, payload)
	}

	awaitReplies := func(want int) map[int32]smr.Reply {
		t.Helper()
		got := make(map[int32]smr.Reply)
		deadline := time.After(10 * time.Second)
		for len(got) < want {
			select {
			case m, ok := <-ep.Receive():
				if !ok {
					t.Fatal("endpoint closed")
				}
				if m.Type != smr.MsgReply {
					continue
				}
				rep, err := smr.DecodeReply(m.Payload)
				if err != nil || rep.Digest != req.Digest() {
					continue
				}
				got[rep.ReplicaID] = rep
			case <-deadline:
				t.Fatalf("only %d/%d replies", len(got), want)
			}
		}
		return got
	}
	first := awaitReplies(4)

	// Retransmit the identical signed request: every replica must answer
	// again — from its cache, with the identical result — while the
	// instance counters stand still (nothing was re-ordered).
	instances := make(map[int32]int64)
	for id, cn := range c.Nodes {
		instances[id] = cn.Node.Stats().Instances
	}
	for _, m := range c.Members() {
		_ = ep.Send(m, smr.MsgRequest, payload)
	}
	second := awaitReplies(4)
	for id, rep := range second {
		if string(rep.Result) != string(first[id].Result) {
			t.Fatalf("replica %d cached reply diverges from the original", id)
		}
	}
	for id, cn := range c.Nodes {
		if got := cn.Node.Stats().Instances; got != instances[id] {
			t.Fatalf("replica %d consumed %d instances answering a retransmission", id, got-instances[id])
		}
	}

	// A different signed request reusing the same (client, seq) must NOT be
	// served the cached reply: the digest binds the cache entry to the
	// exact signed request.
	attacker := crypto.SeededKeyPair("cache-attacker", 1)
	forged, err := smr.NewSignedRequest(int64(ep.ID()), 1, WrapAppOp(tx.Encode()), attacker)
	if err != nil {
		t.Fatal(err)
	}
	_ = ep.Send(c.Members()[0], smr.MsgRequest, forged.Encode())
	select {
	case m := <-ep.Receive():
		if m.Type == smr.MsgReply {
			if rep, err := smr.DecodeReply(m.Payload); err == nil && rep.Digest == req.Digest() {
				t.Fatal("cache served the original reply for a differently-signed request")
			}
		}
	case <-time.After(400 * time.Millisecond):
		// Silence is the expected outcome (the forged request fails the
		// coin-signature check in verification and is dropped).
	}

	// A replica that caught up over a block by replay answers
	// retransmissions of every request in it, reconfiguration transactions
	// included — its live executors can number fewer than a reply quorum.
	// Replica 3 sleeps through member 0's remove vote against it.
	if err := c.Crash(3); err != nil {
		t.Fatal(err)
	}
	key, err := crypto.CertifyConsensusKey(c.Nodes[0].Permanent, 0, 1, crypto.SeededKeyPair("next-view-key", 0).Public())
	if err != nil {
		t.Fatal(err)
	}
	vote, err := reconfig.NewRemoveVote(0, c.Nodes[0].Permanent, 3, 1, key)
	if err != nil {
		t.Fatal(err)
	}
	req, err = smr.NewSignedRequest(int64(ep.ID()), 2, append([]byte{OpRemoveVote}, vote.Encode()...), c.Nodes[0].Permanent)
	if err != nil {
		t.Fatal(err)
	}
	payload = req.Encode()
	for _, m := range []int32{0, 1, 2} {
		_ = ep.Send(m, smr.MsgRequest, payload)
	}
	awaitReplies(3)
	if err := c.Recover(3); err != nil {
		t.Fatalf("recover: %v", err)
	}
	if err := c.WaitHeight(2, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	_ = ep.Send(3, smr.MsgRequest, payload)
	if rep := awaitReplies(1)[3]; string(rep.Result) != string(resultReconfigOK) {
		t.Fatalf("replica 3 answered the retransmitted remove vote with %x", rep.Result)
	}
}
