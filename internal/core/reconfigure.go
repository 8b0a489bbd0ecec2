package core

import (
	"fmt"
	"slices"
	"time"

	"smartchain/internal/blockchain"
	"smartchain/internal/consensus"
	"smartchain/internal/crypto"
	"smartchain/internal/reconfig"
	"smartchain/internal/smr"
	"smartchain/internal/transport"
	"smartchain/internal/view"
)

func clonePermKeys(m map[int32]crypto.PublicKey) map[int32]crypto.PublicKey {
	out := make(map[int32]crypto.PublicKey, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

// installView is the replicated half of a view change, run by closeBlock
// for every reconfiguration block wherever it is applied: the joiners'
// permanent keys, the new view, a fresh remove tracker (votes target a view
// that no longer exists; keeping them would let a later vote complete a
// quorum no other replica sees), and — when the change excludes this
// member — retirement (paper §V-D): its consensus machine is dropped and it
// stays only to serve state transfer. A joiner replaying history it was
// never part of is not a member of the prior view and is left alone.
func (n *Node) installView(u *blockchain.ViewUpdate) {
	keys := make(map[int32]crypto.PublicKey, len(u.Keys))
	for _, ck := range u.Keys {
		keys[ck.Signer] = ck.ConsensusPub
	}
	next := view.New(u.NewViewID, u.Members, keys)

	n.mu.Lock()
	for i := range u.Joining {
		n.permanentKeys[u.Joining[i].ID] = u.Joining[i].PermanentPub
	}
	excluded := n.curView.Contains(n.cfg.Self) && !n.retired && !next.Contains(n.cfg.Self)
	n.curView = next
	n.removeTracker = reconfig.NewRemoveTracker()
	n.retired = n.retired || excluded
	n.mu.Unlock()
	if excluded {
		n.seat(nil)
	}
}

// reconcileEngine is the local half: bring this member's consensus key and
// machine in line with the installed view. It runs on the ordering driver's
// goroutine only: as its first act, right after a live reconfiguration block
// (durable and PERSIST-certified under the old keys by then) and once per
// state-transfer round that installed something — not per replayed block:
// only the last view of a replayed range ever orders anything, and each
// rotation erases a key (the forgetting protocol) and costs a new machine.
// A member whose key is not in the view record — it was not part of the
// reconfiguration quorum, or slept through the change — announces the fresh
// one (paper §V-D).
func (n *Node) reconcileEngine() {
	n.mu.Lock()
	v := n.curView
	member := v.Contains(n.cfg.Self) && !n.retired
	n.mu.Unlock()
	if !member {
		return
	}
	cur, viewID := n.keys.Current()
	if viewID != v.ID || cur == nil || cur.Erased() {
		n.seat(nil) // a key the store is about to erase signs nothing more
		fresh, err := n.keys.Install(v.ID)
		if err != nil {
			return
		}
		cur = fresh
	}
	n.persistConsensusKey()
	if rec, ok := v.ConsensusKeys[n.cfg.Self]; !ok || !rec.Equal(cur.Public()) {
		n.mu.Lock()
		n.curView = n.curView.WithKey(n.cfg.Self, cur.Public())
		n.mu.Unlock()
		if ck, err := n.keys.CertifyCurrent(); err == nil {
			ann := keyAnnounce{Key: ck}
			payload := ann.encode()
			for _, peer := range v.Others(n.cfg.Self) {
				_ = n.cfg.Transport.Send(peer, MsgKeyAnnounce, payload) //smartlint:allow errdrop key announce is repeated on the next view install or membership sync
			}
		}
	}
	if n.cons != nil {
		return
	}
	ep := n.cfg.Transport
	n.seat(consensus.NewMachine(consensus.Config{
		Self:     n.cfg.Self,
		View:     n.View(),
		Signer:   cur,
		Send:     func(to int32, typ uint16, p []byte) { _ = ep.Send(to, typ, p) }, //smartlint:allow errdrop consensus tolerates loss via retransmit and epoch change
		Timeout:  n.cfg.ConsensusTimeout,
		Validate: n.validProposal,
		// RequestValue is deliberately absent: batch handout stays with
		// the ordering driver, which tracks every handed-out batch per
		// instance and requeues it if the instance is abandoned (view
		// drain, state transfer). A new leader elected mid-instance
		// proposes the empty filler value instead; the pending work goes
		// into the next window slots through the driver.
		// Asked to answer a progress deadline: what is held unverified is
		// flushed first, so a leader censoring a valid request is deposed
		// and one that never saw a forged request is not.
		HasPending: func() bool {
			n.admit(n.unverified.take())
			return n.batcher.Pending() > 0
		},
	}))
}

// onJoinAsk is a member's side of Fig. 5a step 1-2: admit the candidate —
// every member admits every join, and so does the ordered certificate's
// check in applyBatch — and reply with a signed vote carrying
// our fresh certified consensus key for the next view. The same message doubles
// as a leave request when the "candidate" is a current member asking to
// depart: members always vote for voluntary leaves (the alternative is a
// member held hostage in the consortium).
func (n *Node) onJoinAsk(m transport.Message) {
	req, err := reconfig.DecodeJoinRequest(m.Payload)
	if err != nil || req.Verify() != nil {
		return
	}
	n.mu.Lock()
	cur := n.curView
	member := cur.Contains(n.cfg.Self) && !n.retired
	n.mu.Unlock()
	if !member {
		return
	}
	if req.NextViewID != cur.ID+1 {
		return // stale or premature request: candidate retries
	}
	leaving := cur.Contains(req.Candidate)
	if leaving && req.Candidate != m.From {
		return // only the leaver itself may ask for its departure
	}
	nk, err := n.keys.PrepareFor(req.NextViewID)
	if err != nil {
		return
	}
	vote, err := reconfig.NewVote(n.cfg.Self, n.cfg.Permanent, req.Hash(), req.NextViewID, nk)
	if err != nil {
		return
	}
	_ = n.cfg.Transport.Send(m.From, MsgJoinVote, vote.Encode()) //smartlint:allow errdrop vote reply; the joiner re-asks unanswered members
}

// onKeyAnnounce installs a late-announced consensus key for the current
// view, in the node's view and — through the inbox — in the machine of that
// view.
func (n *Node) onKeyAnnounce(m transport.Message) {
	ann, err := decodeKeyAnnounce(m.Payload)
	if err != nil || ann.Key.Signer != m.From {
		return
	}
	n.mu.Lock()
	cur := n.curView
	perm, known := n.permanentKeys[ann.Key.Signer]
	n.mu.Unlock()
	if !known || ann.Key.ViewID != cur.ID || !cur.Contains(ann.Key.Signer) {
		return
	}
	if err := ann.Key.Verify(perm); err != nil {
		return
	}
	n.mu.Lock()
	n.curView = n.curView.WithKey(ann.Key.Signer, ann.Key.ConsensusPub)
	n.mu.Unlock()
	id, pub := ann.Key.Signer, ann.Key.ConsensusPub
	n.postInput(consInput{view: ann.Key.ViewID, step: func(now time.Time, m *consensus.Machine) ([]consensus.Decision, int64) {
		return m.UpdateKey(now, id, pub)
	}})
}

// RequestJoin drives a candidate's side of the join protocol (Fig. 5a):
// ask every current member for a vote, assemble the certificate from n−f
// acceptances, and submit it as a totally-ordered reconfiguration
// transaction through one of the members. The caller supplies the current
// membership (e.g. learned out of band or from a chain copy); votes settle
// which view the candidate actually joins.
func (n *Node) RequestJoin(members []int32, payload []byte, timeout time.Duration) error {
	n.mu.Lock()
	cur := n.curView
	n.mu.Unlock()
	if cur.Contains(n.cfg.Self) {
		return fmt.Errorf("core: already a member")
	}
	nextID := cur.ID + 1
	myKey, err := n.keys.PrepareFor(nextID)
	if err != nil {
		return fmt.Errorf("prepare consensus key: %w", err)
	}
	req, err := reconfig.NewJoinRequest(n.cfg.Self, n.cfg.Permanent, nextID, myKey, payload)
	if err != nil {
		return fmt.Errorf("join request: %w", err)
	}
	needed := view.ReconfigQuorum(len(members), view.FaultTolerance(len(members)))
	cert := reconfig.Certificate{Kind: reconfig.ChangeJoin, Request: req}
	if err := n.collectVotes(members, &cert, needed, timeout); err != nil {
		return err
	}

	// Submit the certificate as an ordered transaction via the members.
	op := append([]byte{OpReconfig}, cert.Encode()...)
	joinReq, err := smr.NewSignedRequest(int64(n.cfg.Self), uint64(nextID), op, n.cfg.Permanent)
	if err != nil {
		return fmt.Errorf("sign join tx: %w", err)
	}
	payload2 := joinReq.Encode()
	for _, m := range members {
		_ = n.cfg.Transport.Send(m, MsgRequest, payload2) //smartlint:allow errdrop join tx fan-out; any one member suffices to order it
	}
	return nil
}

// collectVotes asks targets to vote on cert's request and gathers the votes
// binding it until `needed` distinct voters are in. Votes come back through
// the receive loop, which does not know about this flow, so they are
// collected here from a dedicated sink. After the quorum is met it keeps
// collecting stragglers for a short grace window (up to every target):
// every extra vote puts one more certified consensus key into the
// reconfiguration block, which keeps the new view's decision proofs and
// block certificates verifiable by third parties even when the quorum
// members alone would not suffice (paper §V-D records "at most v.n − v.f"
// keys as the liveness bound, not a target). The ask is repeated
// periodically to the targets not heard yet: a member that was mid-catch-up
// when the first ask arrived declines it (view mismatch) but votes happily
// once it installs the current view — without the retry its vote is lost
// and the quorum can miss by exactly the replicas that were behind, which
// under churn is the common case.
func (n *Node) collectVotes(targets []int32, cert *reconfig.Certificate, needed int, timeout time.Duration) error {
	votes := make(chan reconfig.Vote, len(targets))
	n.setJoinVoteSink(func(v reconfig.Vote) {
		select {
		case votes <- v:
		default:
		}
	})
	defer n.setJoinVoteSink(nil)

	seen := make(map[int32]bool)
	reqHash, payload := cert.Request.Hash(), cert.Request.Encode()
	ask := func() <-chan time.Time {
		for _, m := range targets {
			if !seen[m] {
				_ = n.cfg.Transport.Send(m, MsgJoinAsk, payload) //smartlint:allow errdrop repeated to the silent targets until quorum or timeout
			}
		}
		return time.After(500 * time.Millisecond)
	}
	deadline, retry := time.After(timeout), ask()
	var grace <-chan time.Time
	for {
		if len(seen) >= len(targets) {
			return nil
		}
		if len(seen) >= needed && grace == nil {
			grace = time.After(250 * time.Millisecond)
		}
		select {
		case v := <-votes:
			if v.RequestHash != reqHash || seen[v.Voter] || !slices.Contains(targets, v.Voter) {
				continue
			}
			seen[v.Voter] = true
			cert.Votes = append(cert.Votes, v)
		case <-retry:
			retry = ask()
		case <-grace:
			return nil
		case <-deadline:
			if len(seen) >= needed {
				return nil
			}
			return fmt.Errorf("core: vote quorum not reached (%d/%d)", len(seen), needed)
		case <-n.stop:
			return ErrStopped
		}
	}
}

// joinVoteSink lets RequestJoin intercept MsgJoinVote deliveries.
func (n *Node) setJoinVoteSink(sink func(reconfig.Vote)) {
	n.mu.Lock()
	n.joinVotes = sink
	n.mu.Unlock()
}

func (n *Node) onJoinVote(m transport.Message) {
	v, err := reconfig.DecodeVote(m.Payload)
	if err != nil || v.Voter != m.From {
		return
	}
	n.mu.Lock()
	sink := n.joinVotes
	perm, known := n.permanentKeys[v.Voter]
	n.mu.Unlock()
	if sink == nil || !known {
		return
	}
	if err := v.Verify(perm); err != nil {
		return
	}
	sink(v)
}

// RequestLeave drives a member's voluntary departure (paper §V-D): collect
// votes (and fresh keys) for the view without us, then submit the leave
// certificate in total order.
func (n *Node) RequestLeave(timeout time.Duration) error {
	n.mu.Lock()
	cur := n.curView
	n.mu.Unlock()
	if !cur.Contains(n.cfg.Self) {
		return ErrNotMember
	}
	nextID := cur.ID + 1
	// The leaver's key is irrelevant to the next view but the request
	// format carries one; certify the current key for binding.
	myKey, err := n.keys.PrepareFor(nextID)
	if err != nil {
		return fmt.Errorf("prepare key: %w", err)
	}
	req, err := reconfig.NewJoinRequest(n.cfg.Self, n.cfg.Permanent, nextID, myKey, nil)
	if err != nil {
		return fmt.Errorf("leave request: %w", err)
	}

	cert := reconfig.Certificate{Kind: reconfig.ChangeLeave, Request: req}
	if err := n.collectVotes(cur.Others(n.cfg.Self), &cert, cur.JoinQuorum(), timeout); err != nil {
		return err
	}

	op := append([]byte{OpReconfig}, cert.Encode()...)
	leaveReq, err := smr.NewSignedRequest(int64(n.cfg.Self), uint64(nextID)<<20, op, n.cfg.Permanent)
	if err != nil {
		return fmt.Errorf("sign leave tx: %w", err)
	}
	p := leaveReq.Encode()
	for _, m := range cur.Members {
		_ = n.cfg.Transport.Send(m, MsgRequest, p) //smartlint:allow errdrop leave tx fan-out; any one member suffices to order it
	}
	return nil
}

// VoteRemove submits this member's exclusion vote for target as an ordered
// transaction (Fig. 5b). When n−f members have done so, the view change
// executes on all replicas.
//
//smartlint:allow structure the Fig. 5b exclusion vote: no shipped surface issues one yet, core's exclusion tests do
func (n *Node) VoteRemove(target int32) error {
	n.mu.Lock()
	cur := n.curView
	n.mu.Unlock()
	if !cur.Contains(n.cfg.Self) {
		return ErrNotMember
	}
	nextID := cur.ID + 1
	nk, err := n.keys.PrepareFor(nextID)
	if err != nil {
		return fmt.Errorf("prepare key: %w", err)
	}
	vote, err := reconfig.NewRemoveVote(n.cfg.Self, n.cfg.Permanent, target, nextID, nk)
	if err != nil {
		return fmt.Errorf("remove vote: %w", err)
	}
	op := append([]byte{OpRemoveVote}, vote.Encode()...)
	req, err := smr.NewSignedRequest(int64(n.cfg.Self), uint64(nextID)<<20|uint64(uint32(target)), op, n.cfg.Permanent)
	if err != nil {
		return fmt.Errorf("sign remove tx: %w", err)
	}
	p := req.Encode()
	for _, m := range cur.Members {
		_ = n.cfg.Transport.Send(m, MsgRequest, p) //smartlint:allow errdrop remove tx fan-out; any one member suffices to order it
	}
	return nil
}
