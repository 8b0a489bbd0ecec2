package core

import (
	"slices"
	"time"

	"smartchain/internal/blockchain"
	"smartchain/internal/catchup"
	"smartchain/internal/consensus"
	"smartchain/internal/reconfig"
	"smartchain/internal/smr"
	"smartchain/internal/storage"
)

// Result codes the node produces itself (application result codes are
// app-defined; these cover requests that never reach the application).
var (
	resultBadSignature  = []byte{0xF0}
	resultBadOperation  = []byte{0xF1}
	resultReconfigOK    = []byte{0x01}
	resultReconfigError = []byte{0xF2}
	resultDuplicate     = []byte{0xF3}
	// resultUnorderedUnsupported answers unordered reads when the hosted
	// application does not implement UnorderedApplication.
	resultUnorderedUnsupported = []byte{0xF4}
)

// syncAsk is a caller's request for state transfer: the evSyncAsk to step and where the outcome goes.
type syncAsk struct {
	ev   event
	done chan error
}

// consInput is a consensus step another goroutine queues for the driver — a
// wire message, a late-announced key — for the machine of the view it came
// in; or, with flush set, a full set of unverified requests to flush.
type consInput struct {
	view  int64
	step  func(now time.Time, m *consensus.Machine) ([]consensus.Decision, int64)
	flush []smr.Request
}

// driverLoop is the ordering driver's runtime: the window machine
// (window.go) orders, the consensus machine agrees, and the loop turns what
// happens around them into steps, one plain method per case. It alone owns
// both machines, the clock (read once per case: the methods take now), the
// one timer, every machine start, the commit path and the catch-up round.
func (n *Node) driverLoop() {
	defer n.loops.Done()
	n.beginOrdering(time.Now())
	// A tick that finds nothing due is harmless, so the timer is re-armed only
	// for an instant earlier than the armed one: deadlines moving later cost nothing.
	armed, timer := time.Now().Add(time.Hour), time.NewTimer(time.Hour) // armed: when it fires; zero once it has
	defer timer.Stop()
	for {
		for _, next := range n.deadlines() {
			if !next.IsZero() && (armed.IsZero() || next.Before(armed)) {
				timer.Reset(time.Until(next))
				armed = next
			}
		}
		select {
		case <-n.stop:
			return
		case in := <-n.inbox:
			n.onInput(time.Now(), in)
		case <-n.batcher.Ready():
			n.drive(time.Now(), event{kind: evWork})
		case <-n.unverified.ready:
			n.drive(time.Now(), event{kind: evWork})
		case ask := <-n.syncAsks:
			n.onAsk(time.Now(), ask)
		case resp := <-n.syncReplies:
			n.onReply(time.Now(), resp)
		case <-n.released:
			n.onReleased(time.Now())
		case <-timer.C:
			armed = time.Time{}
			n.onTimer(time.Now())
		}
	}
}

// beginOrdering is the driver's first act: the window at the floor recovery
// left, and a member's consensus machine (what arrived earlier waits in the inbox).
func (n *Node) beginOrdering(now time.Time) {
	period := max(4*n.cfg.ConsensusTimeout, 2*time.Second)
	// The leader's batch source: flush, then cut, so it proposes verified
	// requests only. A cut the depth rule would refuse (full, and not enough
	// requests for one) flushes nothing: what is held waits to be checked in
	// the equation of the cut that takes it.
	next := func(full bool) (smr.Batch, bool) {
		if full && n.batcher.Pending()+n.unverified.size() < n.cfg.MaxBatch {
			return smr.Batch{}, false
		}
		n.admit(n.unverified.take())
		return n.batcher.Next(full)
	}
	n.w = newWindow(n.cfg.PipelineDepth, period, n.nextInstance.Load(), next, n.batcher.Requeue, n.batcherOrPeersBusy)
	n.reconcileEngine()
	n.reseated = false // no outcome to settle: the engine event goes alone
	n.drive(now, n.engineEvent())
}

// deadlines are the instants the machines the driver steps want a tick at (zero: none).
func (n *Node) deadlines() []time.Time {
	if n.cons == nil {
		return []time.Time{n.w.nextDeadline(), n.source.NextDeadline()}
	}
	return []time.Time{n.w.nextDeadline(), n.source.NextDeadline(), n.cons.NextDeadline()}
}

// onInput steps the consensus machine for another goroutine — an input
// without a seat, or whose view went with its machine, goes — or flushes,
// then the window.
func (n *Node) onInput(now time.Time, in consInput) {
	if in.flush != nil {
		n.admit(in.flush)
	} else if n.cons != nil && in.view == n.View().ID {
		n.stepped(in.step(now, n.cons))
	}
	n.drive(now)
}

// postInput queues a consensus step, waiting for room; after Stop a no-op.
func (n *Node) postInput(in consInput) {
	select {
	case n.inbox <- in:
	case <-n.stop:
	}
}

// postMessage queues a wire message PreVerify made ready, received in view.
func (n *Node) postMessage(view int64, in consensus.Input) {
	n.postInput(consInput{view: view, step: func(now time.Time, m *consensus.Machine) ([]consensus.Decision, int64) {
		return m.Message(now, in)
	}})
}

// onAsk takes an ask for state transfer, answered once no round is in flight or owed.
func (n *Node) onAsk(now time.Time, ask syncAsk) {
	n.waiting = append(n.waiting, ask.done)
	n.drive(now, ask.ev)
}

// onReply feeds a donor's reply to the catch-up round.
func (n *Node) onReply(now time.Time, resp catchup.Response) {
	if done, progressed, err := n.source.Handle(now, resp); done {
		n.settle(n.synced(progressed, err))
		n.drive(now)
	}
}

// onReleased finishes the held commit: the tail has settled its block.
func (n *Node) onReleased(now time.Time) {
	n.settle(n.closeCommit(n.held.Body.ConsensusID))
	n.drive(now)
}

// onTimer steps every consensus input already queued before the tick:
// executing a block, a checkpoint or a catch-up apply can hold the driver
// past a progress deadline, and votes that arrived meanwhile must count
// first, or the stall becomes a campaign.
func (n *Node) onTimer(now time.Time) {
	for range len(n.inbox) {
		n.onInput(now, <-n.inbox)
	}
	if done, progressed, err := n.source.Tick(now); done {
		n.settle(n.synced(progressed, err))
	}
	if n.cons != nil {
		n.stepped(n.cons.Tick(now))
	}
	n.drive(now, event{kind: evTick})
}

// drive steps the window through the pending events, evs last, performing
// the effects. Window effects step the consensus machine and its outputs are
// window events, so neither runs inside the other's effect list: an outcome
// goes to the queue's front (settle), consensus outputs to its back
// (stepped). Callers waiting for a round are told once none is in flight or owed.
func (n *Node) drive(now time.Time, evs ...event) {
	n.pending = append(n.pending, evs...)
	for len(n.pending) > 0 {
		ev := n.pending[0]
		n.pending = append(n.pending[:0], n.pending[1:]...)
		for _, fx := range n.w.step(now, ev) {
			if n.cons == nil && fx.kind != fxCommit && fx.kind != fxSync {
				continue // a round replayed this replica's removal; its outcome tells the window
			}
			switch fx.kind {
			case fxAdvance:
				n.stepped(n.cons.Advance(now, fx.inst))
			case fxStart:
				n.stepped(n.cons.Start(now, fx.inst, nil))
			case fxPropose:
				n.stepped(n.cons.Propose(now, fx.inst, fx.value))
			case fxCommit: // a held block's outcome is onReleased's to settle
				if !n.commitDecision(fx.decision) {
					n.settle(n.closeCommit(fx.decision.Instance))
				}
			case fxSync:
				if fx.peers == nil {
					fx.peers = n.View().Others(n.cfg.Self)
				}
				if done, progressed, err := n.source.Begin(now, nodeFetcher{n}, fx.peers, fx.timeout); done {
					n.settle(n.synced(progressed, err))
				}
			}
		}
	}
	if n.w.inFlight != fxSync && !n.w.asked {
		for _, done := range n.waiting {
			done <- n.syncErr // buffered: the caller may have left with the node stopping
		}
		n.waiting = n.waiting[:0]
	}
}

// stepped queues a consensus step's decisions and the leadership of a regency it installed.
func (n *Node) stepped(decided []consensus.Decision, installed int64) {
	for _, d := range decided {
		n.pending = append(n.pending, event{kind: evDecision, decision: d})
	}
	if installed > 0 {
		n.regency.Store(installed)
		n.epochChanges.Add(1) // across machines: one per view, the count survives them
		n.pending = append(n.pending, event{kind: evLeader, leads: n.View().Leader(installed) == n.cfg.Self})
	}
}

// settle queues the outcome of a commit or a round first. One that replaced
// the machine voids the queue — all of it came from the old one — and the
// engine event announcing the new seat follows it.
func (n *Node) settle(ev event) {
	if !n.reseated {
		n.pending = slices.Insert(n.pending, 0, ev)
		return
	}
	n.reseated, ev.replaced = false, true
	n.pending = append(n.pending[:0], ev, n.engineEvent())
}

// seat makes m this replica's consensus machine (nil: no seat). The old one
// is never stepped again: it cannot sign after a key rotation.
func (n *Node) seat(m *consensus.Machine) {
	n.cons, n.reseated = m, true
	regency := int64(0)
	if m == nil {
		regency = -1
	}
	n.regency.Store(regency)
}

// engineEvent announces the seat, and whether it leads its first regency.
func (n *Node) engineEvent() event {
	member := n.cons != nil
	return event{kind: evEngine, member: member, leads: member && n.View().Leader(0) == n.cfg.Self}
}

// synced closes a round on the node's side and reports it to the machine.
// Like a live reconfiguration block, a round that installed something is
// followed by reconcileEngine: once per round, not per replayed block.
func (n *Node) synced(progressed bool, err error) event {
	if progressed {
		n.stateTransfers.Add(1)
		n.reconcileEngine()
		// Parked reads may be serveable now, a new view's members no strangers.
		n.post(tailEvent{kind: tevView, view: n.View()})
		n.post(tailEvent{kind: tevHeight, number: n.ledger.Height()})
	}
	n.syncErr = err
	return event{kind: evSynced, floor: n.nextInstance.Load(), progressed: progressed}
}

// batcherOrPeersBusy gates re-sync: an idle system with nothing pending has
// no reason to transfer state. Outstanding counts too: a replica that
// handed batches to instances the rest of the view has moved past (e.g. an
// ex-leader healing from a partition) sees no decisions and no pending
// requests, yet must still recover the missed suffix.
func (n *Node) batcherOrPeersBusy() bool {
	return n.batcher.Pending() > 0 || n.batcher.Outstanding() > 0 ||
		n.ledger.Height() > n.lastReplyBlock.Load()
}

// commitDecision runs Algorithm 1 for one decided batch up to its wait: apply
// it (the transition shared with replay), then what only the live path does —
// build the block, leave it in held for closeCommit, hand it to the logger and
// the tail (which owes the replies). It reports whether the block is held.
func (n *Node) commitDecision(d consensus.Decision) bool {
	if len(d.Value) == 0 {
		return false // leader-change filler decision: no block
	}
	batch, err := smr.DecodeBatch(d.Value)
	if err != nil {
		return false // validated at proposal time; cannot happen with correct quorum
	}
	results, update, replies := n.applyBatch(n.ledger.Height()+1, d.Instance, d.Epoch, &batch)
	n.executedTxs.Add(int64(len(batch.Requests)))

	kind := blockchain.KindTransactions
	if update != nil {
		kind = blockchain.KindReconfig
	}
	blk, err := n.ledger.BuildBlock(kind, d.Instance, d.Epoch, d.Value, d.Proof, results, update)
	if err != nil {
		return false
	}
	if err := n.ledger.Commit(&blk); err != nil {
		return false
	}
	n.blocksBuilt.Add(1)
	n.held = &blk

	// Tell the tail what the block owes, hand the record to the logger and
	// carry on: ordering overlaps storage (Algorithm 1). Two cases hold the
	// block until the tail has settled it: the naive SMaRtCoin-on-BFT-SMaRt
	// path (Table I) does everything — write, sync, (persist round,) reply —
	// before the next instance; and a reconfiguration block is a barrier,
	// certified under the OLD view's keys before the rotation erases them
	// (logger and tail queue are FIFO: every earlier block is, too).
	number, wait := blk.Header.Number, !n.cfg.Pipeline || update != nil
	n.post(tailEvent{kind: tevClosed, number: number, hash: blk.Header.Hash(), view: n.View(), replies: replies, wait: wait})
	n.logger.Append(blockchain.EncodeBlockRecord(&blk), func(err error) {
		n.post(tailEvent{kind: tevDurable, number: number, err: err})
	})
	return wait
}

// closeCommit is Algorithm 1 after the wait for the decision of instance:
// close its block (held; nil: none), reconcile keys and machine after a view
// update, write the checkpoint it marked, and report the new floor.
func (n *Node) closeCommit(instance int64) event {
	if b := n.held; b != nil {
		n.held = nil
		n.closeBlock(b)
		if b.Body.Update != nil {
			n.viewChanges.Add(1)
			n.reconcileEngine()
			n.post(tailEvent{kind: tevView, view: n.View()})
		}
		if n.ledger.LastCheckpoint() == b.Header.Number {
			n.writeCheckpoint(b)
		}
	}
	n.nextInstance.Store(instance + 1) // a filler decision has no block to close
	return event{kind: evCommitted, floor: instance + 1}
}

// applyBatch is the one transition of the replicated state above the
// application, run identically for a live decision, a block replayed from
// the local log and a block fetched by catch-up: filter the requests an
// earlier block already executed, route the rest — application operations
// to the service in one bulk ExecuteBatch call (preserving order),
// reconfiguration operations to the membership logic (paper §V-D) — and
// build this replica's reply to each. It returns what the block records
// (results, view update) plus the replies; the caller turns them into a new
// block or checks them against a recorded one. At most one view change
// takes effect per block; competing changes in a batch fail
// deterministically.
//
// Applying is idempotent per block: a recorded block that replay executed
// and then refused (the record contradicted the execution) leaves the
// application one batch ahead of the ledger, so whoever supplies that block
// next — another donor, or the live decision — gets the first execution's
// outcome back, not a second execution the duplicate filter would turn
// into all-duplicate results.
func (n *Node) applyBatch(number, instance, epoch int64, batch *smr.Batch) ([][]byte, *blockchain.ViewUpdate, []smr.Reply) {
	if a := &n.lastApplied; a.number == number && a.instance == instance {
		return a.results, a.update, a.replies
	}
	reqs := batch.Requests
	results := make([][]byte, len(reqs))
	sequential := n.cfg.Verify == smr.VerifySequential
	// Sequential strategy (Table I left half): verify inside the execution
	// path, one at a time. The verdict is part of the block's results, so
	// replay repeats it. A request whose signature fails did not execute: it
	// is left out of the executed record, or a forged copy ordered first
	// would burn the sequence number of the request it copies.
	signed := reqs
	if sequential {
		signed = nil
		var forged []smr.Request
		for i := range reqs {
			if reqs[i].VerifySig() != nil {
				results[i] = resultBadSignature
				forged = append(forged, reqs[i])
			} else {
				signed = append(signed, reqs[i])
			}
		}
		n.batcher.Discard(forged)
	}
	// With a pipelined window a request can be ordered twice (a
	// leader-change re-proposal plus a fresh slot); the executed watermark
	// — a deterministic function of the committed prefix — filters the
	// second execution identically on every replica. The block height also
	// drives the per-client session GC (idle executed records evict after
	// Config.SessionGCBlocks), so eviction is block-driven and identical
	// everywhere too.
	fresh := n.batcher.Fresh(signed)
	n.batcher.MarkDeliveredAt(number, signed)
	n.unverified.drop(reqs)
	appReqs := make([]smr.Request, 0, len(reqs))
	appIdx := make([]int, 0, len(reqs))
	var update *blockchain.ViewUpdate

	n.mu.Lock()
	cur := n.curView
	permKeys := clonePermKeys(n.permanentKeys)
	tracker := n.removeTracker
	n.mu.Unlock()

	for i, f := 0, 0; i < len(reqs); i++ {
		req := &reqs[i]
		if results[i] != nil {
			continue // its signature failed
		}
		if f++; !fresh[f-1] {
			results[i] = resultDuplicate
			continue
		}
		if len(req.Op) == 0 {
			results[i] = resultBadOperation
			continue
		}
		switch req.Op[0] {
		case OpApp:
			r := *req
			r.Op = req.Op[1:]
			if sequential && !n.app.VerifyOp(&r) {
				results[i] = resultBadSignature
				continue
			}
			appReqs = append(appReqs, r)
			appIdx = append(appIdx, i)
		case OpReconfig:
			if update != nil {
				results[i] = resultReconfigError
				continue
			}
			cert, err := reconfig.DecodeCertificate(req.Op[1:])
			if err != nil {
				results[i] = resultReconfigError
				continue
			}
			u, err := cert.BuildUpdate(cur, permKeys)
			if err != nil {
				results[i] = resultReconfigError
				continue
			}
			update = u
			results[i] = resultReconfigOK
		case OpRemoveVote:
			// Pending remove votes are replicated state: every replica
			// counts the same ordered votes, so all reach the quorum on the
			// same one.
			vote, err := reconfig.DecodeRemoveVote(req.Op[1:])
			if err != nil {
				results[i] = resultReconfigError
				continue
			}
			u, err := tracker.Observe(cur, permKeys, vote)
			if err != nil {
				results[i] = resultReconfigError
				continue
			}
			results[i] = resultReconfigOK
			if u != nil && update == nil {
				update = u
			}
		default:
			results[i] = resultBadOperation
		}
	}

	if len(appReqs) > 0 {
		// The ordering context is the same wherever the block is applied, so
		// any timestamp-derived state is bit-identical too.
		bc := smr.NewBatchContext(number, instance, epoch, batch)
		appResults := n.app.ExecuteBatch(bc, appReqs)
		for j, idx := range appIdx {
			results[idx] = appResults[j]
		}
	}

	// One view tag covers every reply of the block: the tag is a function
	// of (view, deciding epoch, height) only. The view is the one the block
	// was created in — a view update the block itself carries is installed
	// by closeBlock, after the replies are built.
	tag := n.replyTag(epoch, number)
	replies := make([]smr.Reply, len(reqs))
	for i := range reqs {
		replies[i] = n.newReply(&reqs[i], tag, 0, results[i])
	}
	n.lastApplied = appliedBatch{number, instance, results, update, replies}
	return results, update, replies
}

// appliedBatch is one block's outcome of applyBatch, keyed by its ordering
// coordinates.
type appliedBatch struct {
	number, instance int64
	results          [][]byte
	update           *blockchain.ViewUpdate
	replies          []smr.Reply
}

// closeBlock is the second half of the transition, run once the block is
// in the ledger (live: durable and certified under the view that created
// it): install the view the block carries, mark a due checkpoint — the mark
// is replicated state, it is the LastCheckpoint link of every later header
// — and advance the commit floor past the block's instance.
func (n *Node) closeBlock(b *blockchain.Block) {
	if b.Body.Update != nil {
		n.installView(b.Body.Update)
	}
	if n.ledger.ShouldCheckpoint(b.Header.Number) {
		n.ledger.MarkCheckpoint(b.Header.Number)
	}
	n.nextInstance.Store(b.Body.ConsensusID + 1)
}

// sendReplies transmits one reply per executed request of block number to
// its client and feeds the reply cache — this is the single egress for
// ordered replies (tend's, weak and post-PERSIST strong path alike), so a
// reply enters the cache exactly when it becomes externally sendable.
func (n *Node) sendReplies(number int64, replies []smr.Reply) {
	for i := range replies {
		payload := replies[i].Encode()
		n.replies.store(&replies[i], payload)
		_ = n.cfg.Transport.Send(int32(replies[i].ClientID), MsgReply, payload) //smartlint:allow errdrop reply is cached first; client retransmission triggers a resend
	}
	// Certificates can complete out of block order; the mark only rises.
	if number > n.lastReplyBlock.Load() {
		n.lastReplyBlock.Store(number)
	}
}

// checkpointChunkBytes is the size checkpoints split the application state
// at. Every replica chunks alike, so their stored envelopes (and therefore
// catch-up fingerprints) are byte-identical; tests lower it to spread a
// small state over several chunks.
var checkpointChunkBytes = storage.DefaultChunkBytes

// writeCheckpoint stores the service snapshot for the checkpoint closeBlock
// just marked at b (Algorithm 1 lines 49-54). It runs synchronously in the
// driver: the paper's Fig. 7 shows exactly this throughput dip during
// checkpoints. The store write is chunked: the metadata envelope plus the
// application state split at checkpointChunkBytes, each chunk
// digest-addressed so catch-up peers can fetch and verify them
// independently.
func (n *Node) writeCheckpoint(b *blockchain.Block) {
	env := n.envelopeAt(b)
	_ = n.saveSnapshot(b.Header.Number, env.encode(), n.app.Snapshot(), checkpointChunkBytes) //smartlint:allow errdrop best-effort checkpoint; recovery and donors fall back to the previous one plus the log
}

// saveSnapshot replaces the stored service snapshot, whole: donor reads
// wait out the save instead of seeing it half-written (see snapMu).
func (n *Node) saveSnapshot(height int64, meta, state []byte, chunkBytes int) error {
	n.snapMu.Lock()
	defer n.snapMu.Unlock()
	return storage.SaveSnapshot(n.cfg.Snapshots, height, meta, state, chunkBytes)
}

// envelopeAt captures the replicated state above the application as of
// block b, the newest applied block.
func (n *Node) envelopeAt(b *blockchain.Block) snapshotEnvelope {
	n.mu.Lock()
	v := n.curView
	permKeys := clonePermKeys(n.permanentKeys)
	tracker := n.removeTracker
	n.mu.Unlock()
	return snapshotEnvelope{
		// The checkpointed block's consensus coordinate, NOT the live
		// floor: every replica checkpointing this height writes the same
		// instance, keeping envelopes a pure function of the chain prefix.
		Instance:     b.Body.ConsensusID + 1,
		BlockHash:    b.Header.Hash(),
		LastReconfig: n.ledger.LastReconfig(),
		View:         v,
		PermKeys:     permKeys,
		Watermarks:   n.batcher.Watermarks(),
		RemoveVotes:  tracker.Votes(),
	}
}
