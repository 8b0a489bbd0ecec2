package core

import (
	"fmt"
	"os"
	"time"

	"smartchain/internal/crypto"
	"smartchain/internal/smr"
)

// DefaultReadParkTimeout bounds how long a replica parks an unordered read
// whose ReadFloor is above its executed height before answering "behind"
// (the client then falls back to an ordered read). DefaultReadParkLimit
// bounds the park queue; overflow answers "behind" immediately.
const (
	DefaultReadParkTimeout = time.Second
	DefaultReadParkLimit   = 256
)

// parkedRead is one verified unordered request waiting for the replica's
// executed height to reach its ReadFloor. The digest is computed once at
// insert so the dedup scan compares cached hashes.
type parkedRead struct {
	req    smr.Request
	digest crypto.Hash
	expiry time.Time
}

// replyTag assembles this replica's signed view tag for a reply at the
// given (epoch, height). The signature covers only the tag (bound to the
// replica ID), so it is cached and re-signed only when the view, epoch, or
// height moves — one Ed25519 signature per committed block instead of one
// per reply.
func (n *Node) replyTag(epoch, height int64) (smr.ViewTag, []byte) {
	n.mu.Lock()
	v := n.curView
	n.mu.Unlock()

	n.tagMu.Lock()
	defer n.tagMu.Unlock()
	if n.tagHashView != v.ID || n.tagHash.IsZero() {
		n.tagHash = v.MembershipHash()
		n.tagHashView = v.ID
	}
	tag := smr.ViewTag{ViewID: v.ID, Epoch: epoch, MemberHash: n.tagHash, Height: height}
	if tag == n.tagLast && n.tagLastSig != nil {
		return tag, n.tagLastSig
	}
	sig, err := tag.Sign(n.cfg.Self, n.cfg.Permanent)
	if err != nil {
		// A reply with a nil tag signature is discarded by every
		// self-healing client, so a replica with a broken permanent key
		// would silently stop contributing to reply quorums. Count every
		// failure (Stats.TagSignFailures) and say so once on stderr so the
		// degradation is observable.
		n.tagSignFails.Add(1)
		n.tagSignWarn.Do(func() {
			fmt.Fprintf(os.Stderr,
				"smartchain: replica %d cannot sign reply view tags (%v); its replies will be discarded by clients\n",
				n.cfg.Self, err)
		})
		return tag, nil
	}
	n.tagLast = tag
	n.tagLastSig = sig
	return tag, sig
}

// newReply assembles this replica's reply to req under a signed view tag:
// the one site that fills smr.Reply, for ordered, replayed and unordered
// answers alike.
func (n *Node) newReply(req *smr.Request, tag smr.ViewTag, tagSig []byte, flags uint8, result []byte) smr.Reply {
	return smr.Reply{ReplicaID: n.cfg.Self, ClientID: req.ClientID, Seq: req.Seq,
		Digest: req.Digest(), Flags: flags, Tag: tag, TagSig: tagSig, Result: result}
}

// sendReadReply answers an unordered read at the replica's current view,
// regency and executed height. Loss is tolerated: the client falls back to
// an ordered read.
func (n *Node) sendReadReply(r *smr.Request, flags uint8, result []byte) {
	tag, sig := n.replyTag(n.engineEpoch(), n.ledger.Height())
	rep := n.newReply(r, tag, sig, flags, result)
	_ = n.cfg.Transport.Send(int32(r.ClientID), MsgReply, rep.Encode()) //smartlint:allow errdrop unordered-read reply; client falls back to an ordered read
}

// engineEpoch reports the regency of the live engine (0 when none runs).
func (n *Node) engineEpoch() int64 {
	n.mu.Lock()
	eng := n.engine
	n.mu.Unlock()
	if eng == nil {
		return 0
	}
	return eng.Regency()
}

// answerUnordered executes one VERIFIED read-only request against local
// state and replies. The batcher, consensus, the ledger, and the
// durability path are never involved, so the read consumes no consensus
// instance and costs no ordering latency.
func (n *Node) answerUnordered(r smr.Request) {
	var result []byte
	if len(r.Op) > 0 && r.Op[0] == OpApp {
		if ua, capable := n.app.(UnorderedApplication); capable {
			unwrapped := r
			unwrapped.Op = r.Op[1:]
			result = ua.ExecuteUnordered(unwrapped)
		} else {
			result = resultUnorderedUnsupported
		}
	} else {
		// Only application reads exist on this path: reconfiguration
		// operations are state changes and must be ordered.
		result = resultBadOperation
	}
	n.unorderedReads.Add(1)
	n.sendReadReply(&r, 0, result)
}

// replyBehind answers a read-floor miss: no result, just the flag and the
// replica's current view tag, so the client can fall back to an ordered
// read once a quorum reports the floor unserveable.
func (n *Node) replyBehind(r smr.Request) {
	n.sendReadReply(&r, smr.ReplyFlagBehind, nil)
}

// parkRead enqueues a verified read whose floor is ahead of the executed
// height. A retransmission of an already-parked read is absorbed without
// consuming a second slot — the client's retry interval and the park
// timeout are of the same order, so without the dedup every slow catch-up
// would double-fill the queue and push unrelated reads into the ordered
// fallback. The ORIGINAL expiry is deliberately kept: the retry interval
// can match the park timeout, and a refreshed deadline would let each
// retransmission outrun the sweeper forever, starving the behind reply
// the client's ordered fallback waits for. Returns false when the
// (bounded) queue is full.
func (n *Node) parkRead(r smr.Request) bool {
	d := r.Digest()
	n.parkMu.Lock()
	defer n.parkMu.Unlock()
	for i := range n.parked {
		p := &n.parked[i]
		if p.req.ClientID == r.ClientID && p.req.Seq == r.Seq && p.digest == d {
			return true
		}
	}
	if len(n.parked) >= n.cfg.ReadParkLimit {
		return false
	}
	n.parked = append(n.parked, parkedRead{req: r, digest: d, expiry: time.Now().Add(n.cfg.ReadParkTimeout)})
	return true
}

// releaseParked serves every parked read whose floor the executed height
// has reached and expires the overdue rest with a "behind" reply. Called
// from the commit path after each block (latency path) and from the park
// sweeper (catch-up after state transfer, timeout expiry).
func (n *Node) releaseParked() {
	n.parkMu.Lock()
	if len(n.parked) == 0 {
		n.parkMu.Unlock()
		return
	}
	h := n.ledger.Height()
	now := time.Now()
	var serve, expire []smr.Request
	kept := n.parked[:0]
	for _, pr := range n.parked {
		switch {
		case pr.req.ReadFloor <= h:
			serve = append(serve, pr.req)
		case now.After(pr.expiry):
			expire = append(expire, pr.req)
		default:
			kept = append(kept, pr)
		}
	}
	n.parked = kept
	n.parkMu.Unlock()
	for i := range serve {
		n.answerUnordered(serve[i])
	}
	for i := range expire {
		n.replyBehind(expire[i])
	}
}

// parkSweeper periodically drains the park queue: reads become serveable
// when state transfer (rather than the commit path) advances the height,
// and overdue reads must answer "behind" even on a quiet replica.
func (n *Node) parkSweeper() {
	t := time.NewTicker(50 * time.Millisecond)
	defer t.Stop()
	for {
		select {
		case <-n.stop:
			return
		case <-t.C:
			n.releaseParked()
		}
	}
}

// onViewQuery answers a client's view query with the installed view. A
// retired replica still answers — it is precisely the one a client must
// learn the new membership from after being removed.
func (n *Node) onViewQuery(from int32) {
	n.mu.Lock()
	v := n.curView
	n.mu.Unlock()
	vi := smr.ViewInfo{ViewID: v.ID, Members: v.Members}
	_ = n.cfg.Transport.Send(from, smr.MsgViewInfo, vi.Encode()) //smartlint:allow errdrop view-info reply; client re-queries on timeout
}
