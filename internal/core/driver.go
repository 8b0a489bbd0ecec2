package core

import (
	"bytes"
	"sort"
	"time"

	"smartchain/internal/blockchain"
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

// driverLoop is the ordering driver: it keeps a window of up to
// W = PipelineDepth consensus instances live at once and releases their
// decisions to the commit path (Algorithm 1: block append + durability +
// reply) strictly in instance order through a reorder buffer. W = 1
// reproduces the strictly sequential seed behavior.
func (n *Node) driverLoop() {
	defer close(n.done)
	for {
		select {
		case <-n.stop:
			return
		default:
		}
		n.mu.Lock()
		eng := n.engine
		member := n.curView.Contains(n.cfg.Self) && !n.retired
		n.mu.Unlock()
		if !member || eng == nil {
			// Not (yet) a participant: candidates wait to be joined,
			// retired nodes only serve state transfer.
			select {
			case <-n.stop:
				return
			case <-time.After(50 * time.Millisecond):
			}
			continue
		}
		n.runWindow(eng)
	}
}

// proposal is a batch this replica offered to one instance, with its wire
// encoding kept so the commit path can cheaply tell whether the decided
// value is this batch.
type proposal struct {
	batch smr.Batch
	enc   []byte
}

// window is the driver's pipeline bookkeeping for one engine (one view):
// decided-but-not-yet-committable instances (the reorder buffer), the
// batches this replica proposed per instance (returned to the batcher if
// the window drains before they commit), and started slots awaiting a
// proposal.
type window struct {
	pending    map[int64]consensus.Decision
	proposed   map[int64]proposal
	unproposed []int64
}

// dropBelow forgets bookkeeping for instances below the commit floor.
// Proposed batches below the floor are requeued: if their requests were
// committed meanwhile (typically via state-transfer replay) the batcher's
// executed watermark filters them; anything genuinely unordered goes back
// to the front of the queue.
func (w *window) dropBelow(floor int64, b *smr.Batcher) {
	var requeue []smr.Request
	for inst := range w.proposed {
		if inst < floor {
			requeue = append(requeue, w.proposed[inst].batch.Requests...)
			delete(w.proposed, inst)
		}
	}
	if len(requeue) > 0 {
		b.Requeue(requeue)
	}
	for inst := range w.pending {
		if inst < floor {
			delete(w.pending, inst)
		}
	}
	kept := w.unproposed[:0]
	for _, inst := range w.unproposed {
		if inst >= floor {
			kept = append(kept, inst)
		}
	}
	w.unproposed = kept
}

// drain returns every proposed-but-uncommitted batch to the batcher (in
// instance order) when the window is abandoned at a view boundary: the
// instances restart under the new view and the requests must be re-ordered
// there (they are also queued at every other replica, so this is a liveness
// optimization, not a safety requirement).
func (w *window) drain(b *smr.Batcher) {
	insts := make([]int64, 0, len(w.proposed))
	for inst := range w.proposed {
		insts = append(insts, inst)
	}
	sort.Slice(insts, func(i, j int) bool { return insts[i] < insts[j] })
	var requeue []smr.Request
	for _, inst := range insts {
		requeue = append(requeue, w.proposed[inst].batch.Requests...)
	}
	if len(requeue) > 0 {
		b.Requeue(requeue)
	}
}

// runWindow drives the ordering pipeline for one engine. It returns when
// the engine is replaced (view change or state-transfer reconciliation) or
// the node stops; the outer driverLoop then re-acquires the live engine.
func (n *Node) runWindow(eng *consensus.Engine) {
	resync := 4 * n.cfg.ConsensusTimeout
	if resync < 2*time.Second {
		resync = 2 * time.Second
	}

	// The resync timer must NOT be a per-iteration time.After: under
	// sustained client load the batcher's Ready channel fires more often
	// than the resync period, and a fresh timer every loop iteration would
	// never expire — a behind replica would then wait forever while its
	// clients keep retrying (the starvation is precisely worst when traffic
	// is heaviest). A persistent timer, reset only when a decision actually
	// arrives, measures what it means to measure: time since last progress.
	resyncTimer := time.NewTimer(resync)
	defer resyncTimer.Stop()
	resetResync := func() {
		if !resyncTimer.Stop() {
			select {
			case <-resyncTimer.C:
			default:
			}
		}
		resyncTimer.Reset(resync)
	}

	win := &window{
		pending:  make(map[int64]consensus.Decision),
		proposed: make(map[int64]proposal),
	}
	startFloor := n.nextInstance.Load()
	eng.AdvanceTo(startFloor)
	nextStart := startFloor
	advanced := startFloor // floor the engine has been advanced to

	// Decisions the previous window observed after this engine went live
	// land here first; entries from engines replaced since are stale.
	if len(n.carryover) > 0 {
		carried := n.carryover
		n.carryover = nil
		for _, ed := range carried {
			if ed.eng != eng {
				continue
			}
			if n.processDecision(win, ed.dec) {
				win.drain(n.batcher)
				return
			}
		}
	}

	for {
		// The engine may have been replaced outside the commit path (a
		// state-transfer round installed a newer view): hand control back
		// so the outer loop binds to the live engine.
		n.mu.Lock()
		live := n.engine
		member := n.curView.Contains(n.cfg.Self) && !n.retired
		n.mu.Unlock()
		if live != eng || !member {
			win.drain(n.batcher)
			return
		}

		// State transfer (or the commit loop) may have advanced the
		// floor while we waited: abandon every overtaken slot — also
		// when the catch-up lands inside the open window, where stale
		// engine instances below the floor could otherwise never decide
		// yet keep gating the lowest-undecided timeout rule.
		floor := n.nextInstance.Load()
		if floor > advanced {
			win.dropBelow(floor, n.batcher)
			eng.AdvanceTo(floor)
			advanced = floor
			if nextStart < floor {
				nextStart = floor
			}
		}

		// Offer work to slots opened empty BEFORE opening new ones: covers
		// batches that arrived since the slot opened and leadership
		// acquired mid-window (after a synchronization phase the new leader
		// proposes filler for the contested instance; the real work flows
		// here). Lowest slot first is load-bearing: commits are in instance
		// order, so a batch handed to a freshly opened slot while lower
		// slots sit empty could not commit until those decide — and with
		// every client blocked on that batch nothing would ever fill them
		// short of a progress timeout.
		n.fillSlots(eng, win)
		// Open slots up to the window. The leader proposes a batch per
		// slot as long as it has requests; slots opened empty receive a
		// proposal later (fillSlots) when work arrives. If we are wrong
		// about leadership the engine ignores the value; the requests are
		// also queued at the real leader (clients broadcast requests to
		// the whole view).
		for nextStart < floor+int64(n.pipelineDepth) {
			var value []byte
			if eng.Leader() == n.cfg.Self {
				if batch, ok := n.batcher.TryNext(); ok {
					value = batch.Encode()
					win.proposed[nextStart] = proposal{batch: batch, enc: value}
				}
			}
			eng.StartInstance(nextStart, value)
			if value == nil {
				win.unproposed = append(win.unproposed, nextStart)
			}
			nextStart++
		}

		select {
		case <-n.stop:
			return
		case ed := <-n.decisions:
			if ed.eng != eng {
				n.mu.Lock()
				live := n.engine
				n.mu.Unlock()
				if ed.eng == live {
					// A new engine is already running: carry the decision
					// to the next window losslessly (the reorder buffer
					// makes delivery order irrelevant) and restart.
					n.carryover = append(n.carryover, ed)
					win.drain(n.batcher)
					return
				}
				continue // in-flight decision from a replaced engine
			}
			floorBefore := n.nextInstance.Load()
			viewChanged := n.processDecision(win, ed.dec)
			if n.nextInstance.Load() > floorBefore {
				// Only a committed decision counts as progress for the
				// resync clock: decisions parked in the reorder buffer
				// behind a gap must not hold off the state transfer that
				// would close the gap.
				resetResync()
			}
			if viewChanged {
				// A reconfiguration committed: the view changed, the
				// engine was replaced, and instances beyond the
				// reconfiguration point restart under the new view.
				win.drain(n.batcher)
				return
			}
		case <-n.batcher.Ready():
			n.fillSlots(eng, win)
		case <-resyncTimer.C:
			// A replica that fell behind (e.g. just recovered while the
			// rest of the view moved on) sees no decisions for instances
			// the others already closed; after a quiet period it re-syncs
			// via state transfer instead of waiting forever.
			resyncTimer.Reset(resync)
			n.mu.Lock()
			peers := n.curView.Others(n.cfg.Self)
			n.mu.Unlock()
			if len(peers) > 0 && n.batcherOrPeersBusy() {
				_ = n.SyncFromPeers(peers, time.Second) //smartlint:allow errdrop opportunistic resync; the timer fires again next period
			}
		}
	}
}

// fillSlots offers batches to started-but-unproposed slots, lowest instance
// first, while this replica believes it leads. Slots that already decided
// (their decision is waiting in the reorder buffer) are retired instead of
// fed: the engine would ignore the proposal and the batch would sit parked
// until that slot's turn in the commit order.
func (n *Node) fillSlots(eng *consensus.Engine, win *window) {
	if eng.Leader() != n.cfg.Self {
		return
	}
	kept := win.unproposed[:0]
	for i, inst := range win.unproposed {
		if _, decided := win.pending[inst]; decided {
			continue
		}
		batch, ok := n.batcher.TryNext()
		if !ok {
			kept = append(kept, win.unproposed[i:]...)
			break
		}
		enc := batch.Encode()
		eng.ProposeValue(inst, enc)
		win.proposed[inst] = proposal{batch: batch, enc: enc}
	}
	win.unproposed = kept
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

// processDecision lands one decision in the reorder buffer and releases the
// in-order prefix to the commit path. Returns true when a committed block
// carried a view update: the caller must drain the window, because the
// engine was replaced and every later instance restarts under the new view.
// syncMu serializes the floor's read-commit-advance against a state
// transfer running on a caller's goroutine (SyncFromPeers is exported), so
// the floor can never rewind over replayed blocks.
func (n *Node) processDecision(win *window, d consensus.Decision) bool {
	n.syncMu.Lock()
	defer n.syncMu.Unlock()
	floor := n.nextInstance.Load()
	if d.Instance < floor {
		return false // already committed (stale redelivery)
	}
	win.pending[d.Instance] = d
	for {
		dec, ok := win.pending[floor]
		if !ok {
			return false
		}
		delete(win.pending, floor)
		if p, ok := win.proposed[floor]; ok {
			delete(win.proposed, floor)
			if !bytes.Equal(dec.Value, p.enc) {
				// The instance decided something other than our batch (a
				// leader change decided the empty filler or a
				// re-proposed value): return the requests to the queue
				// so they reach a later slot instead of leaking in the
				// handed-out state. The batcher's executed watermark
				// filters any that the decided value also carried.
				n.batcher.Requeue(p.batch.Requests)
			}
		}
		viewChanged := n.commitDecision(dec)
		floor = dec.Instance + 1
		n.nextInstance.Store(floor) // a filler decision has no block to close
		win.dropBelow(floor, n.batcher)
		if viewChanged {
			return true
		}
	}
}

// commitDecision runs Algorithm 1 for one decided batch: apply it (the
// transition shared with replay), then what only the live path does — build
// the block, persist it (inline or decoupled per the Pipeline flag), send
// the replies, and, after a view update, reconcile keys and engine. Returns
// true when the block carried a view update.
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

	record := blockchain.EncodeBlockRecord(&blk)
	strong := n.cfg.Persistence == PersistenceStrong

	// Reconfiguration blocks are a barrier: their durability and PERSIST
	// certificate must complete under the OLD view's keys before the key
	// rotation erases them. The durable logger is FIFO, so waiting here
	// also drains every earlier block's callback (and thus its PERSIST
	// signing) under the correct keys.
	syncInline := !n.cfg.Pipeline || update != nil

	if !syncInline {
		// SMARTCHAIN path (Algorithm 1): hand the block to the durability
		// logger and continue immediately; the logger group-commits and
		// the callback triggers replies (weak) or the PERSIST round
		// (strong). Ordering of the next instance overlaps storage.
		n.logger.Append(record, func(err error) {
			if err != nil {
				return
			}
			if strong {
				n.persist.localDurable(&blk, replies, nil)
			} else {
				n.sendReplies(replies)
			}
		})
	} else {
		// Naive SMaRtCoin-on-BFT-SMaRt path (Table I): everything inline —
		// write, sync, (persist round,) reply — before the next instance.
		done := make(chan error, 1)
		n.logger.Append(record, func(err error) { done <- err })
		if err := <-done; err == nil {
			if strong {
				certDone := make(chan struct{})
				n.persist.localDurable(&blk, replies, certDone)
				select {
				case <-certDone:
				case <-n.stop:
					return false
				}
			} else {
				n.sendReplies(replies)
			}
		}
	}

	n.closeBlock(&blk)
	if update != nil {
		n.viewChanges.Add(1)
		n.reconcileEngine()
	}
	// The executed height just advanced: serve any unordered reads parked
	// on a ReadFloor this block reached.
	n.releaseParked()
	if n.ledger.LastCheckpoint() == blk.Header.Number {
		n.writeCheckpoint(&blk)
	}
	return update != nil
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
	// With a pipelined window a request can be ordered twice (a
	// leader-change re-proposal plus a fresh slot); the executed watermark
	// — a deterministic function of the committed prefix — filters the
	// second execution identically on every replica. The block height also
	// drives the per-client session GC (idle executed records evict after
	// Config.SessionGCBlocks), so eviction is block-driven and identical
	// everywhere too.
	fresh := n.batcher.Fresh(reqs)
	n.batcher.MarkDeliveredAt(number, reqs)

	results := make([][]byte, len(reqs))
	sequential := n.cfg.Verify == smr.VerifySequential
	appReqs := make([]smr.Request, 0, len(reqs))
	appIdx := make([]int, 0, len(reqs))
	var update *blockchain.ViewUpdate

	n.mu.Lock()
	cur := n.curView
	permKeys := clonePermKeys(n.permanentKeys)
	tracker := n.removeTracker
	n.mu.Unlock()

	for i := range reqs {
		req := &reqs[i]
		if !fresh[i] {
			results[i] = resultDuplicate
			continue
		}
		// Sequential strategy (Table I left half): verify inside the
		// execution path, one at a time. The verdict is part of the block's
		// results, so replay repeats it.
		if sequential && req.VerifySig() != nil {
			results[i] = resultBadSignature
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
			u, err := cert.BuildUpdate(cur, permKeys, n.policy)
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

	// One signed view tag covers every reply of the block: the tag is a
	// function of (view, deciding epoch, height) only, so the per-reply
	// marginal cost is a copy, not a signature. The view is the one the
	// block was created in — a view update the block itself carries is
	// installed by closeBlock, after the replies are built.
	tag, tagSig := n.replyTag(epoch, number)
	replies := make([]smr.Reply, len(reqs))
	for i := range reqs {
		replies[i] = n.newReply(&reqs[i], tag, tagSig, 0, results[i])
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

// sendReplies transmits one reply per executed request to its client and
// feeds the reply cache — this is the single egress for ordered replies
// (weak path and post-PERSIST strong path alike), so a reply enters the
// cache exactly when it becomes externally sendable.
func (n *Node) sendReplies(replies []smr.Reply) {
	for i := range replies {
		payload := replies[i].Encode()
		n.replies.store(&replies[i], payload)
		_ = n.cfg.Transport.Send(int32(replies[i].ClientID), MsgReply, payload) //smartlint:allow errdrop reply is cached first; client retransmission triggers a resend
	}
	if len(replies) > 0 {
		n.lastReplyBlock.Store(n.ledger.Height())
	}
}

// writeCheckpoint stores the service snapshot for the checkpoint closeBlock
// just marked at b (Algorithm 1 lines 49-54). It runs synchronously in the
// driver: the paper's Fig. 7 shows exactly this throughput dip during
// checkpoints. The store write is chunked: the metadata envelope plus the
// application state split at CatchupChunkBytes, each chunk digest-addressed
// so catch-up peers can fetch and verify them independently. All replicas
// chunk at the same configured size, so their stored envelopes (and
// therefore catch-up fingerprints) are byte-identical.
func (n *Node) writeCheckpoint(b *blockchain.Block) {
	env := n.envelopeAt(b)
	_ = storage.SaveSnapshot(n.cfg.Snapshots, env.Height, env.encode(), n.app.Snapshot(), n.cfg.CatchupChunkBytes) //smartlint:allow errdrop best-effort checkpoint; recovery and donors fall back to the previous one plus the log
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
		Height: b.Header.Number,
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
