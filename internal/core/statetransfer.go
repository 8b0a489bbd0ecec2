package core

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"time"

	"smartchain/internal/blockchain"
	"smartchain/internal/catchup"
	"smartchain/internal/codec"
	"smartchain/internal/crypto"
	"smartchain/internal/reconfig"
	"smartchain/internal/smr"
	"smartchain/internal/storage"
	"smartchain/internal/transport"
)

// recoverLocal rebuilds the node's state from its own stable storage at
// startup: snapshot envelope (if any) plus the chain log tail. This is the
// crash-recovery path of the paper's model (§III-b: all replicas may crash
// and recover; recovery restores the service state from local stable
// storage before the replica rejoins the ordering protocol).
func (n *Node) recoverLocal() error {
	// Consensus key: reload the locally persisted one, if present, so a
	// recovering replica keeps its current-view identity. (Key erasure
	// happens at view changes, not restarts.)
	n.loadConsensusKey()

	var base *snapshotEnvelope
	lastBlock, meta, baseState, err := storage.LoadSnapshot(n.cfg.Snapshots)
	switch {
	case err == nil:
		env, err := decodeSnapshotEnvelope(meta)
		if err != nil {
			return fmt.Errorf("snapshot envelope: %w", err)
		}
		base = &env
	case errors.Is(err, storage.ErrNoSnapshot), errors.Is(err, storage.ErrCorrupted):
		// No checkpoint yet, or a torn or bit-rotted one, which is treated as
		// absent: the block log is the durability anchor and replays the full
		// history. (If the log does not start at genesis, recovery fails below.)
	default:
		return err
	}

	records, err := n.cfg.Log.ReadAll()
	if err != nil {
		return err
	}

	if base == nil && len(records) == 0 {
		// Fresh start: write the genesis block and go.
		gb := blockchain.GenesisBlock(&n.cfg.Genesis)
		if err := n.cfg.Log.Append(blockchain.EncodeBlockRecord(&gb)); err != nil {
			return err
		}
		if n.cfg.Storage != smr.StorageMemory {
			if err := n.cfg.Log.Sync(); err != nil {
				return err
			}
		}
		n.persistConsensusKey()
		return nil
	}

	blocks, err := blockchain.DecodeRecords(records)
	if err != nil {
		return err
	}

	if base != nil {
		// Restore from the snapshot, then replay any local blocks past it.
		if len(baseState) > 0 {
			if err := n.app.Restore(baseState); err != nil {
				return fmt.Errorf("restore app: %w", err)
			}
		}
		n.installEnvelope(lastBlock, base)
	} else {
		// No snapshot: the log must start at genesis.
		if len(blocks) == 0 || blocks[0].Header.Number != 0 {
			return fmt.Errorf("core: log does not begin with genesis")
		}
		if _, err := blockchain.ParseGenesisBlock(&blocks[0]); err != nil {
			return err
		}
	}
	for i := range blocks {
		if blocks[i].Header.Number <= n.ledger.Height() {
			continue
		}
		replies, err := n.replayBlock(&blocks[i])
		if err != nil {
			// A torn or unlinked tail, or a record re-execution contradicts:
			// stop at the durable prefix before it.
			break
		}
		n.cacheReplies(replies) // the block came from the local log: durable
	}
	return nil
}

// installEnvelope positions ledger, view, instance counter, and the
// executed watermark at the snapshot of block height. The commit floor only
// moves forward: a snapshot can never rewind instances this replica already
// released from the reorder buffer.
func (n *Node) installEnvelope(height int64, env *snapshotEnvelope) {
	n.ledger = blockchain.NewLedgerAt(n.cfg.Genesis, height, env.BlockHash, env.LastReconfig, height)
	n.batcher.RestoreWatermarks(env.Watermarks)
	if env.Instance > n.nextInstance.Load() {
		n.nextInstance.Store(env.Instance)
	}
	tracker := reconfig.NewRemoveTracker()
	for _, v := range env.RemoveVotes {
		_, _ = tracker.Observe(env.View, env.PermKeys, v) // re-verified; a vote that fails counts for nothing
	}
	n.mu.Lock()
	n.curView = env.View
	n.permanentKeys = clonePermKeys(env.PermKeys)
	n.removeTracker = tracker
	n.mu.Unlock()
}

// replayBlock applies one recorded block — from the local log at recovery,
// or fetched by catch-up — through the same transition as a live decision
// and holds the record to what re-execution produced: the header commits
// to the results, but nothing signs the header of an uncertified tip and
// no hash covers Body.Update, so a donor (or a log written by a differently
// configured application) can record either wrongly. A mismatch is an error
// naming the block, and the block stays out of the ledger and the log.
//
// It returns the replies the caller puts in the reply cache (not on the
// wire) once the block's record is durable here: a replica that catches up
// by replay never sent these replies live, yet its clients' quorums may
// NEED it — the live executors of a post-reconfiguration block can number
// fewer than a reply quorum. Retransmissions hit the cache and get answered
// as if this replica had executed the block live (BFT-SMaRt keeps its reply
// store inside transferred state for exactly this reason; we rebuild it from
// the blocks instead). Like a live reply, a cached one waits for the
// variant's durability point: under the strong variant it is nil unless the
// block carries a valid PERSIST certificate.
func (n *Node) replayBlock(b *blockchain.Block) ([]smr.Reply, error) {
	// Linkage before anything executes: a torn or unlinked tail stops here.
	if n.ledger.NextHeader(b.Header.TxRoot, b.Header.ResultsRoot) != b.Header {
		return nil, fmt.Errorf("%w: block %d after height %d", blockchain.ErrBadLinkage, b.Header.Number, n.ledger.Height())
	}
	batch, err := b.Body.Batch()
	if err != nil {
		return nil, fmt.Errorf("core: block %d: %w", b.Header.Number, err)
	}
	results, update, replies := n.applyBatch(b.Header.Number, b.Body.ConsensusID, b.Body.Epoch, &batch)
	if blockchain.ResultsRootOf(results) != b.Header.ResultsRoot || !slices.EqualFunc(results, b.Body.Results, bytes.Equal) {
		return nil, fmt.Errorf("core: block %d: recorded results do not match re-execution", b.Header.Number)
	}
	rec := b.Body.Update
	if (rec != nil) != (b.Body.Kind == blockchain.KindReconfig) || (rec != nil) != (update != nil) ||
		(rec != nil && !bytes.Equal(rec.Encode(), update.Encode())) {
		return nil, fmt.Errorf("core: block %d: recorded view update does not match re-execution", b.Header.Number)
	}
	if err := n.ledger.Commit(b); err != nil {
		return nil, err
	}
	if n.cfg.Persistence == PersistenceStrong {
		hh, created := b.Header.Hash(), n.View()
		if b.Cert.CountValid(created, blockchain.ContextPersist, hh, blockchain.PersistDigest(hh)) < created.CertQuorum() {
			replies = nil
		}
	}
	n.closeBlock(b)
	return replies, nil
}

// cacheReplies puts the replies of a replayed block whose record is durable
// in the reply cache.
func (n *Node) cacheReplies(replies []smr.Reply) {
	for i := range replies {
		n.replies.store(&replies[i], replies[i].Encode())
	}
}

// consensusKeyRecord persists the current consensus key locally.
func (n *Node) persistConsensusKey() {
	if n.cfg.KeyFile == nil {
		return
	}
	cur, viewID := n.keys.Current()
	if cur == nil {
		return
	}
	priv, err := cur.PrivateBytes()
	if err != nil {
		return
	}
	e := codec.NewEncoder(80)
	e.Int64(viewID)
	e.WriteBytes(priv)
	_ = storage.SaveSnapshot(n.cfg.KeyFile, viewID, nil, e.Bytes(), 0) //smartlint:allow errdrop best-effort key cache; the key is re-certified after restart
}

// loadConsensusKey restores a persisted consensus key, replacing the key
// store if the record is intact.
func (n *Node) loadConsensusKey() {
	if n.cfg.KeyFile == nil {
		return
	}
	_, _, data, err := storage.LoadSnapshot(n.cfg.KeyFile)
	if err != nil {
		return
	}
	d := codec.NewDecoder(data)
	viewID := d.Int64()
	priv := d.ReadBytesCopy()
	if d.Finish() != nil {
		return
	}
	kp, err := crypto.KeyPairFromPrivate(priv)
	if err != nil {
		return
	}
	n.keys = reconfig.NewKeyStore(n.cfg.Self, n.cfg.Permanent, viewID, kp, nil)
}

// ---------------------------------------------------------------------------
// Donor side: serving catch-up requests.
//
// All three request kinds are answered off the dispatch goroutine by the
// catchupServer loop, so a donor streaming a multi-megabyte snapshot never
// head-of-line-blocks consensus messages behind it.
// ---------------------------------------------------------------------------

// catchupServer drains queued donor work until the node stops.
func (n *Node) catchupServer() {
	defer n.loops.Done()
	for {
		select {
		case <-n.stop:
			return
		case m := <-n.catchupCh:
			switch m.Type {
			case MsgEnvelopeReq:
				n.serveEnvelope(m)
			case MsgChunkReq:
				n.serveChunk(m)
			case MsgBlockRangeReq:
				n.serveRange(m)
			}
		}
	}
}

// genesisEnvelope is the synthetic genesis-level recovery envelope a donor
// offers when it holds no checkpoint: the receiver replays from block 1 on
// the initial application state.
func (n *Node) genesisEnvelope() snapshotEnvelope {
	gb := blockchain.GenesisBlock(&n.cfg.Genesis)
	return snapshotEnvelope{
		Instance:     1,
		BlockHash:    gb.Hash(),
		LastReconfig: 0,
		View:         n.cfg.Genesis.InitialView(),
		PermKeys:     n.cfg.Genesis.PermanentKeys(),
	}
}

// serveEnvelope answers with this donor's snapshot envelope and chain tip —
// the pool's discovery unit, a few hundred bytes regardless of state size.
func (n *Node) serveEnvelope(m transport.Message) {
	snap, err := n.cfg.Snapshots.LoadEnvelope()
	if err != nil {
		me := n.genesisEnvelope()
		snap = storage.SnapEnvelope{Meta: me.encode()} // at height 0, no state
	}
	rep := catchup.Response{Kind: catchup.KindEnvelope, Envelope: &catchup.Envelope{Snap: snap, Tip: n.ledger.Height()}}
	_ = n.cfg.Transport.Send(m.From, MsgEnvelopeRep, rep.Encode()) //smartlint:allow errdrop donor reply; the requester re-requests on timeout
}

// serveChunk answers one snapshot chunk straight from the chunk-addressed
// store. Empty data tells the requester to look elsewhere; the bytes are
// NOT re-verified here — the receiver checks them against the
// quorum-agreed envelope digests, which is what lets it catch (and ban) a
// donor whose store rotted or who lies. The height check and the read are
// one step under snapMu: a checkpoint landing between them would put the
// new snapshot's chunk under the old height, and a save under way would
// put unwritten bytes under the new one — either gets an honest donor
// banned for good.
func (n *Node) serveChunk(m transport.Message) {
	req, err := decodeChunkReq(m.Payload)
	if err != nil {
		return
	}
	rep := catchup.Response{Kind: catchup.KindChunk, Height: req.Height, Index: int(req.Index)}
	n.snapMu.Lock()
	if env, err := n.cfg.Snapshots.LoadEnvelope(); err == nil && env.LastBlock == req.Height {
		if data, err := n.cfg.Snapshots.ReadChunk(int(req.Index)); err == nil {
			rep.Data = data
		}
	}
	n.snapMu.Unlock()
	_ = n.cfg.Transport.Send(m.From, MsgChunkRep, rep.Encode()) //smartlint:allow errdrop donor reply; the requester re-requests on timeout
}

// maxRangeServe caps one block-range reply; larger asks are ignored.
const maxRangeServe = 1024

// serveRange answers a contiguous block range from the post-checkpoint
// cache. An empty reply means the cache no longer covers the range.
func (n *Node) serveRange(m transport.Message) {
	req, err := decodeRangeReq(m.Payload)
	if err != nil || req.To < req.From || req.To-req.From+1 > maxRangeServe {
		return
	}
	rep := catchup.Response{Kind: catchup.KindRange, From: req.From}
	if blocks, ok := n.ledger.CachedRange(req.From, req.To); ok {
		rep.Blocks = blocks
	}
	_ = n.cfg.Transport.Send(m.From, MsgBlockRangeRep, rep.Encode()) //smartlint:allow errdrop donor reply; the requester re-requests on timeout
}

// onCatchupReply decodes a donor reply and posts it to the ordering driver,
// which steps the round. Runs on the dispatch goroutine and never blocks.
func (n *Node) onCatchupReply(m transport.Message) {
	kind := catchup.KindEnvelope
	switch m.Type {
	case MsgChunkRep:
		kind = catchup.KindChunk
	case MsgBlockRangeRep:
		kind = catchup.KindRange
	}
	resp, err := catchup.DecodeResponse(kind, m.Payload)
	if err != nil {
		return
	}
	resp.Peer = m.From
	select {
	case n.syncReplies <- resp:
	default: // full: the round re-requests on timeout
	}
}

// ---------------------------------------------------------------------------
// Receiver side: the catchup.Fetcher mechanism.
// ---------------------------------------------------------------------------

// nodeFetcher implements catchup.Fetcher over the node's transport, ledger,
// and application. Every method runs on the ordering driver's goroutine,
// inside the pool call that steps the round: between two commits.
type nodeFetcher struct{ n *Node }

func (f nodeFetcher) Height() int64 { return f.n.ledger.Height() }

func (f nodeFetcher) RequestEnvelope(peer int32) error {
	return f.n.cfg.Transport.Send(peer, MsgEnvelopeReq, nil)
}

func (f nodeFetcher) RequestChunk(peer int32, height int64, index int) error {
	req := chunkReq{Height: height, Index: int32(index)}
	return f.n.cfg.Transport.Send(peer, MsgChunkReq, req.encode())
}

func (f nodeFetcher) RequestRange(peer int32, from, to int64) error {
	req := rangeReq{From: from, To: to}
	return f.n.cfg.Transport.Send(peer, MsgBlockRangeReq, req.encode())
}

// VerifyBlocks checks that blocks extend the envelope's block: hash linkage
// from the block hash in its metadata plus consensus decision proofs under
// the envelope's view. No state is touched — this is what binds a snapshot
// offer to the committed chain BEFORE InstallSnapshot may run.
func (f nodeFetcher) VerifyBlocks(env *catchup.Envelope, blocks []blockchain.Block) error {
	me, err := decodeSnapshotEnvelope(env.Snap.Meta)
	if err != nil {
		return err
	}
	anchor := blockchain.RangeAnchor{
		Number:         env.Snap.LastBlock,
		Hash:           me.BlockHash,
		LastReconfig:   me.LastReconfig,
		LastCheckpoint: env.Snap.LastBlock,
		View:           me.View,
		Permanent:      me.PermKeys,
	}
	_, err = blockchain.VerifyRange(anchor, blocks)
	return err
}

// InstallSnapshot digest-verifies the assembled state against the
// quorum-agreed envelope, restores it into the application, and positions
// the ledger, view, and commit floor at the snapshot point. The persisted
// copy keeps the donor's chunking so this replica immediately serves
// byte-identical chunks onward.
func (f nodeFetcher) InstallSnapshot(env *catchup.Envelope, state []byte) error {
	n := f.n
	me, err := decodeSnapshotEnvelope(env.Snap.Meta)
	if err != nil {
		return err
	}
	if env.Snap.LastBlock <= n.ledger.Height() {
		return nil // raced past it; nothing to do
	}
	if int64(len(state)) != env.Snap.TotalBytes {
		return fmt.Errorf("core: snapshot state is %d bytes, envelope says %d: %w",
			len(state), env.Snap.TotalBytes, storage.ErrCorrupted)
	}
	off := 0
	for i := 0; i < env.Snap.NumChunks(); i++ {
		l := env.Snap.ChunkLen(i)
		if !env.Snap.VerifyChunk(i, state[off:off+l]) {
			return fmt.Errorf("core: assembled state fails digest of chunk %d: %w", i, storage.ErrCorrupted)
		}
		off += l
	}
	if len(state) > 0 {
		if err := n.app.Restore(state); err != nil {
			return fmt.Errorf("restore fetched state: %w", err)
		}
	}
	n.installEnvelope(env.Snap.LastBlock, &me)
	return n.saveSnapshot(env.Snap.LastBlock, env.Snap.Meta, state, int(env.Snap.ChunkBytes))
}

// ApplyBlocks verifies a fetched range against this replica's own tip
// (linkage, roots, decision proofs) and replays it.
func (f nodeFetcher) ApplyBlocks(blocks []blockchain.Block) error {
	n := f.n
	for len(blocks) > 0 && blocks[0].Header.Number <= n.ledger.Height() {
		blocks = blocks[1:]
	}
	if len(blocks) == 0 {
		return nil
	}
	n.mu.Lock()
	v := n.curView
	perms := clonePermKeys(n.permanentKeys)
	n.mu.Unlock()
	anchor := blockchain.RangeAnchor{
		Number:         n.ledger.Height(),
		Hash:           n.ledger.LastHash(),
		LastReconfig:   n.ledger.LastReconfig(),
		LastCheckpoint: n.ledger.LastCheckpoint(),
		View:           v,
		Permanent:      perms,
	}
	if _, err := blockchain.VerifyRange(anchor, blocks); err != nil {
		return err
	}
	return f.ReplayBlocks(blocks)
}

// ReplayBlocks re-executes already-verified blocks and appends them to the
// local log. Only their cached replies wait on the record: a crash before it
// is durable costs a refetch, and a retransmission answered from the cache
// before it would be a reply from a block a full crash can still lose.
func (f nodeFetcher) ReplayBlocks(blocks []blockchain.Block) error {
	n := f.n
	for i := range blocks {
		b := &blocks[i]
		if b.Header.Number <= n.ledger.Height() {
			continue
		}
		replies, err := n.replayBlock(b)
		if err != nil {
			return fmt.Errorf("replay fetched block %d: %w", b.Header.Number, err)
		}
		var cache func(error)
		if len(replies) > 0 {
			cache = func(err error) {
				if err == nil {
					n.cacheReplies(replies)
				}
			}
		}
		n.logger.Append(blockchain.EncodeBlockRecord(b), cache)
	}
	return nil
}

var _ catchup.Fetcher = nodeFetcher{}

// SyncFromPeers asks the ordering driver for state transfer from peers, in
// rounds of at most timeout, and waits for the outcome: how the last round
// ended. No caller steps the catch-up pool itself; an ask that finds a round
// in flight waits for that round instead.
func (n *Node) SyncFromPeers(peers []int32, timeout time.Duration) error {
	if len(peers) == 0 {
		return errors.New("core: no peers to sync from")
	}
	ask := syncAsk{event{kind: evSyncAsk, peers: peers, timeout: timeout}, make(chan error, 1)}
	select {
	case n.syncAsks <- ask:
	case <-n.stop:
		return ErrStopped
	}
	select {
	case err := <-ask.done:
		return err
	case <-n.stop:
		return ErrStopped
	}
}

// WaitMembership asks for state transfer until this node is a member of the
// installed view (used by joiners after RequestJoin).
func (n *Node) WaitMembership(peers []int32, timeout time.Duration) error {
	for deadline := time.Now().Add(timeout); !n.View().Contains(n.cfg.Self); time.Sleep(50 * time.Millisecond) {
		if time.Now().After(deadline) {
			return fmt.Errorf("core: membership not reached within %v", timeout)
		}
		if err := n.SyncFromPeers(peers, 500*time.Millisecond); errors.Is(err, ErrStopped) {
			return err // any other failure is one attempt lost
		}
	}
	return nil
}
