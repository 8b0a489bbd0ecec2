package core

import (
	"time"

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

// replyTag assembles this replica's view tag for a reply at the given
// (epoch, height). The membership hash is cached per view.
func (n *Node) replyTag(epoch, height int64) smr.ViewTag {
	n.mu.Lock()
	v := n.curView
	n.mu.Unlock()

	n.tagMu.Lock()
	defer n.tagMu.Unlock()
	if n.tagHashView != v.ID || n.tagHash.IsZero() {
		n.tagHash = v.MembershipHash()
		n.tagHashView = v.ID
	}
	return smr.ViewTag{ViewID: v.ID, Epoch: epoch, MemberHash: n.tagHash, Height: height}
}

// newReply assembles this replica's reply to req under a view tag: the one
// site that fills smr.Reply, for ordered, replayed and unordered answers
// alike.
func (n *Node) newReply(req *smr.Request, tag smr.ViewTag, flags uint8, result []byte) smr.Reply {
	return smr.Reply{ReplicaID: n.cfg.Self, ClientID: req.ClientID, Seq: req.Seq,
		Digest: req.Digest(), Flags: flags, Tag: tag, Result: result}
}

// sendReadReply answers an unordered read at the replica's current view,
// regency and executed height — with a result, or on a read-floor miss with
// ReplyFlagBehind and none. Loss is tolerated: a client that hears nothing,
// or behind from a quorum, falls back to an ordered read.
func (n *Node) sendReadReply(r *smr.Request, flags uint8, result []byte) {
	tag := n.replyTag(max(n.Regency(), 0), n.ledger.Height()) // regency 0 while no engine runs
	rep := n.newReply(r, tag, flags, result)
	_ = n.cfg.Transport.Send(int32(r.ClientID), MsgReply, rep.Encode()) //smartlint:allow errdrop unordered-read reply; client falls back to an ordered read
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
