package core

import (
	"time"

	"smartchain/internal/blockchain"
	"smartchain/internal/smr"
)

// tailLoop is the commit tail's runtime: it feeds the tail machine (tail.go)
// the events the other goroutines post and performs the effects each step
// returns. It alone owns the machine, its clock and the one timer.
func (n *Node) tailLoop() {
	defer n.loops.Done()
	// The earliest park expiry only moves later and an early tick is
	// harmless, so the timer is re-armed once it has fired, never reset.
	timer, armed := time.NewTimer(time.Hour), false
	defer timer.Stop()
	timer.Stop()
	for {
		if next := n.tail.nextDeadline(); !armed && !next.IsZero() {
			timer.Reset(time.Until(next))
			armed = true
		}
		select {
		case <-n.stop:
			return
		case ev := <-n.tailCh:
			n.tend(time.Now(), ev)
		case <-timer.C:
			armed = false
			n.tend(time.Now(), tailEvent{kind: tevTick})
		}
	}
}

// post queues an event for the tail, waiting for room: none is dropped.
// After Stop it is a no-op, so the logger draining on Close never blocks.
func (n *Node) post(ev tailEvent) {
	select {
	case n.tailCh <- ev:
	case <-n.stop:
	}
}

// tend steps the tail at instant now and performs the effects; the share a
// tfxSign produces is stepped before tend returns.
func (n *Node) tend(now time.Time, ev tailEvent) {
	for again := true; again; {
		again = false
		for _, fx := range n.tail.step(now, ev) {
			switch fx.kind {
			case tfxSign:
				signer, viewID := n.keys.Current()
				sig := signer.MustSign(blockchain.ContextPersist, blockchain.PersistDigest(fx.hash))
				if sig == nil {
					continue // key rotated away mid-flight; the new view re-certifies
				}
				pm := persistMsg{Number: fx.number, ViewID: viewID, Signer: n.cfg.Self, HeaderHash: fx.hash, Sig: sig}
				n.sendShare(-1, pm)
				ev, again = tailEvent{kind: tevShare, share: pm, own: true}, true // a step signs at most one block
			case tfxShare:
				n.sendShare(fx.to, fx.share)
			case tfxCertify:
				_ = n.ledger.AttachCert(fx.number, fx.cert) //smartlint:allow errdrop asynchronous certificate write (Algorithm 1 line 34)
				// No callback, so no sync of its own: the next block's sync covers it.
				n.logger.Append(blockchain.EncodeCertRecord(fx.number, &fx.cert), nil)
			case tfxReply:
				n.sendReplies(fx.number, fx.replies)
			case tfxRelease:
				select {
				case n.released <- struct{}{}:
				default: // never full while the driver runs: it takes each token before it holds another block
				}
			case tfxAnswer:
				n.answerUnordered(fx.req)
			case tfxBehind:
				n.sendReadReply(&fx.req, smr.ReplyFlagBehind, nil)
			}
		}
	}
}

// sendShare sends a PERSIST share to peer, or to every other member of the
// view when peer is -1.
func (n *Node) sendShare(peer int32, pm persistMsg) {
	payload := pm.encode()
	peers := []int32{peer}
	if peer < 0 {
		peers = n.View().Others(n.cfg.Self)
	}
	for _, p := range peers {
		_ = n.cfg.Transport.Send(p, MsgPersist, payload) //smartlint:allow errdrop a lost share is sent again while its block waits for the certificate
	}
}
