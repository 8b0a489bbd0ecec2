// Package core implements the SMARTCHAIN node (paper §V, Algorithm 1): the
// blockchain layer composed over the Mod-SMaRt consensus engine, with the
// weak (1-Persistence) and strong (0-Persistence) durability variants, the
// decentralized reconfiguration protocol, state checkpoints, and state
// transfer. It also provides an in-process Cluster harness used by the
// examples, the integration tests, and the benchmark suite.
package core

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"smartchain/internal/blockchain"
	"smartchain/internal/catchup"
	"smartchain/internal/consensus"
	"smartchain/internal/crypto"
	"smartchain/internal/reconfig"
	"smartchain/internal/smr"
	"smartchain/internal/storage"
	"smartchain/internal/transport"
	"smartchain/internal/view"
)

// Core-layer transport message types (consensus owns 100–119). The
// request/reply pair is the client⇄replica wire contract and is defined
// once, in the smr package; the aliases keep core's message-type namespace
// complete in one place. 220 and 221 carried the retired single-donor state
// transfer and stay reserved.
const (
	MsgRequest              = smr.MsgRequest // client → replicas: encoded smr.Request
	MsgReply                = smr.MsgReply   // replica → client: encoded smr.Reply
	MsgPersist       uint16 = 210            // PERSIST phase signature share
	MsgEnvelopeReq   uint16 = 222            // catch-up: snapshot envelope + tip query
	MsgEnvelopeRep   uint16 = 223            // catch-up: catchup.Response of KindEnvelope
	MsgChunkReq      uint16 = 224            // catch-up: one snapshot chunk by (height, index)
	MsgChunkRep      uint16 = 225            // catch-up: catchup.Response of KindChunk
	MsgBlockRangeReq uint16 = 226            // catch-up: committed blocks from..to
	MsgBlockRangeRep uint16 = 227            // catch-up: catchup.Response of KindRange
	MsgJoinAsk       uint16 = 230            // candidate → member: reconfig.JoinRequest
	MsgJoinVote      uint16 = 231            // member → candidate: reconfig.Vote
	MsgKeyAnnounce   uint16 = 232            // fresh consensus key after a view change
)

// Operation kinds: the first byte of every request Op routes it to the
// application or to the reconfiguration machinery.
const (
	OpApp byte = iota + 1
	OpReconfig
	OpRemoveVote
)

// WrapAppOp frames an application payload as a request operation.
func WrapAppOp(payload []byte) []byte {
	return append([]byte{OpApp}, payload...)
}

// DefaultPipelineDepth is the ordering window used when Config.PipelineDepth
// is unset: deep enough to keep the network busy across the consensus round
// trips of several instances, small enough that the reorder buffer and a
// view-boundary drain stay cheap.
const DefaultPipelineDepth = 8

// Persistence selects the blockchain durability variant (paper §V-C).
type Persistence int

const (
	// PersistenceWeak is 1-Persistence: replies follow the local durable
	// write; a full-crash can lose an externally-undelivered suffix.
	PersistenceWeak Persistence = iota + 1
	// PersistenceStrong is 0-Persistence: replies follow a PERSIST quorum;
	// every replied transaction survives a full crash-recover.
	PersistenceStrong
)

// String implements fmt.Stringer for experiment labels.
func (p Persistence) String() string {
	switch p {
	case PersistenceWeak:
		return "weak"
	case PersistenceStrong:
		return "strong"
	default:
		return "unknown"
	}
}

// Application is the replicated service hosted by the node. coin.Service is
// the canonical implementation.
type Application interface {
	// ExecuteBatch applies ordered requests, returning one result each.
	// The BatchContext carries the ordering coordinates (block number,
	// consensus instance, epoch) and the decided batch timestamp, which is
	// identical on every replica and therefore safe to fold into state.
	ExecuteBatch(bc smr.BatchContext, reqs []smr.Request) [][]byte
	// Snapshot serializes the service state deterministically.
	Snapshot() []byte
	// Restore replaces the state with a snapshot.
	Restore(snapshot []byte) error
	// VerifyOp is the application's admission check on one request's
	// operation, run where the request signature is checked: in a flush of
	// the unverified set (the leader's before every cut among them) and a
	// follower's proposal check (admit.go), and in applyBatch under
	// VerifySequential.
	// coin.Service's does no crypto (the issuer must be the signer).
	VerifyOp(req *smr.Request) bool
}

// UnorderedApplication is the optional capability for serving read-only
// requests directly from replica state, without consensus (paper §II-B:
// BFT-SMaRt's unordered invocations). Implementations must be
// deterministic reads of the current state and safe to call concurrently
// with ExecuteBatch — the unordered path runs outside the ordering driver.
type UnorderedApplication interface {
	// ExecuteUnordered answers one read-only request from local state.
	ExecuteUnordered(req smr.Request) []byte
}

// Config parameterizes a node.
type Config struct {
	// Self is this replica's process ID.
	Self int32
	// Genesis is the chain's genesis content (identical on all nodes).
	Genesis blockchain.Genesis
	// Permanent is this replica's permanent key pair.
	Permanent *crypto.KeyPair
	// InitialConsensusKey is the view-0 consensus key if this replica is a
	// genesis member (must match the genesis block), nil otherwise.
	InitialConsensusKey *crypto.KeyPair
	// Transport is this replica's network endpoint.
	Transport transport.Endpoint
	// Log is the stable storage holding the blockchain.
	Log storage.Log
	// Snapshots stores service checkpoints outside the chain.
	Snapshots storage.SnapshotStore
	// App is the replicated service.
	App Application
	// Persistence selects the weak or strong variant.
	Persistence Persistence
	// Storage selects sync/async/memory ledger writes.
	Storage smr.StorageMode
	// Verify selects the signature verification strategy.
	Verify smr.VerifyMode
	// Pipeline enables SMARTCHAIN's decoupling of block persistence from
	// the ordering pipeline (Algorithm 1). With Pipeline off the node
	// behaves like the naive SMaRtCoin-on-BFT-SMaRt baseline of Table I:
	// each block is executed, written, synced, and replied to before the
	// next consensus instance starts.
	Pipeline bool
	// PipelineDepth is the ordering window W: up to W consensus instances
	// run concurrently, with decisions released to the commit path (block
	// append + durability + reply) strictly in instance order through a
	// reorder buffer. 0 defaults to DefaultPipelineDepth; 1 reproduces
	// strictly sequential ordering. Pipeline=false (the naive baseline)
	// forces W=1 so the baseline keeps its fully serial semantics.
	PipelineDepth int
	// SessionGCBlocks is the per-client session GC horizon, in blocks: a
	// client whose executed-sequence record has not been touched for this
	// many committed blocks is evicted from the batcher's dedupe state
	// (and from every checkpoint envelope, so replicas stay identical).
	// 0 disables eviction — records then live for the process lifetime.
	SessionGCBlocks int64
	// MaxBatch caps requests per block; 0 uses the genesis value.
	MaxBatch int
	// ConsensusTimeout is the leader-progress timeout.
	ConsensusTimeout time.Duration
	// KeyFile persists this replica's current consensus private key across
	// recoverable crashes. It must be local-only storage, never shared.
	KeyFile storage.SnapshotStore
	// SyncPeers, when non-empty, makes Start ask the ordering driver — a
	// member's engine is live by then — for state transfer from these peers and
	// wait for the outcome (recovering replicas and join candidates).
	SyncPeers []int32
	// CatchupPeerTimeout is how long a donor may sit on a catch-up request
	// before the work is reassigned and the donor demoted (0 = catchup
	// default, 1s).
	CatchupPeerTimeout time.Duration
}

// Node is one SMARTCHAIN replica.
type Node struct {
	cfg Config
	app Application

	mu            sync.Mutex
	curView       view.View
	permanentKeys map[int32]crypto.PublicKey
	keys          *reconfig.KeyStore
	removeTracker *reconfig.RemoveTracker
	retired       bool

	ledger   *blockchain.Ledger
	logger   recordLogger
	batcher  *smr.Batcher
	verifier *smr.VerifierPool // the one verification pool: reads, proposals
	// unverified holds the ordered requests this replica receives under
	// VerifyParallel until a proposal, a commit or a flush takes them
	// (admit.go); the leader flushes it before every cut.
	unverified *unverifiedSet

	// joinVotes intercepts protocol replies for in-flight join/leave flows
	// (guarded by mu).
	joinVotes func(reconfig.Vote)

	// The ordering driver's (driver.go): the window, the consensus machine
	// (nil: no seat) and whether it changed unannounced, the window's queue,
	// the inbox others queue consensus steps in; regency mirrors cons's (-1).
	w        *window
	cons     *consensus.Machine
	reseated bool
	pending  []event
	inbox    chan consInput
	regency  atomic.Int64

	// source is the catch-up protocol, stepped by the ordering driver alone: donor
	// replies reach it through syncReplies, callers who want a round through
	// syncAsks; waiting are those owed the outcome of the round in flight, syncErr
	// how the last one ended. catchupCh queues donor-side work off dispatch.
	source      *catchup.Pool
	syncReplies chan catchup.Response
	syncAsks    chan syncAsk
	waiting     []chan<- error
	syncErr     error
	catchupCh   chan transport.Message
	// snapMu makes a save into cfg.Snapshots (the envelope, then every
	// chunk) one step to serveChunk: saveSnapshot holds it, and serveChunk
	// checks the stored height and reads the chunk under it. A chunk request
	// therefore never meets a chunk that is not written yet, nor a chunk of
	// one snapshot under the height of another. Envelope requests do not
	// wait: an envelope is published whole, and offering one whose chunks are
	// still being written only means its chunk requests wait out the save.
	snapMu sync.Mutex

	// nextInstance is the commit floor: the lowest instance not yet
	// released from the reorder buffer. Only the ordering driver moves it —
	// a commit, or a block a state-transfer round replays — and it is atomic
	// only because Stats reads it from other goroutines.
	nextInstance atomic.Int64
	// lastApplied is what applyBatch produced for the newest block it
	// executed; applying that block again returns it instead of executing
	// twice. The driver's alone, like the rest of the commit path.
	lastApplied appliedBatch

	// The commit tail: the machine is tailLoop's alone, everyone else posts
	// to tailCh. held is the driver's block between commitDecision and
	// closeCommit, past a step only while the tail owes released a token.
	tail     *tail
	tailCh   chan tailEvent
	released chan struct{}
	held     *blockchain.Block

	// Reply view-tag membership-hash cache: readserve.go.
	tagMu       sync.Mutex
	tagHashView int64
	tagHash     crypto.Hash
	// replies is the BFT-SMaRt-style reply cache: retransmissions of
	// executed requests are answered from it (replicas never re-order an
	// executed request), fed by the live commit path and state-transfer
	// replay alike.
	replies *replyCache

	stop      chan struct{}
	loops     sync.WaitGroup // driverLoop, receiveLoop, tailLoop, catchupServer
	stopOnce  sync.Once
	startedAt time.Time

	// Stats (atomics: read by the harness while the node runs).
	executedTxs    atomic.Int64
	blocksBuilt    atomic.Int64
	viewChanges    atomic.Int64
	epochChanges   atomic.Int64
	lastReplyBlock atomic.Int64
	unorderedReads atomic.Int64
	stateTransfers atomic.Int64
}

// Errors returned by node operations.
var (
	ErrNotMember = errors.New("core: replica is not a member of the current view")
	ErrStopped   = errors.New("core: replica stopped")
)

// NewNode creates a node positioned at the genesis block. Recovery from an
// existing log/snapshot happens inside Start.
func NewNode(cfg Config) (*Node, error) {
	if cfg.App == nil {
		return nil, errors.New("core: config requires an application")
	}
	if cfg.Transport == nil {
		return nil, errors.New("core: config requires a transport endpoint")
	}
	if cfg.Log == nil {
		cfg.Log = storage.NewSimLog(nil)
	}
	if cfg.Snapshots == nil {
		cfg.Snapshots = storage.NewMemSnapshotStore(nil)
	}
	if cfg.Persistence == 0 {
		cfg.Persistence = PersistenceWeak
	}
	if cfg.Storage == 0 {
		cfg.Storage = smr.StorageSync
	}
	if cfg.Verify == 0 {
		cfg.Verify = smr.VerifyParallel
	}
	if cfg.MaxBatch <= 0 {
		cfg.MaxBatch = cfg.Genesis.MaxBatchSize
	}
	if cfg.ConsensusTimeout <= 0 {
		cfg.ConsensusTimeout = 500 * time.Millisecond
	}
	if cfg.PipelineDepth <= 0 {
		cfg.PipelineDepth = DefaultPipelineDepth
	}
	if !cfg.Pipeline {
		// The naive baseline orders, writes, syncs, and replies strictly
		// one instance at a time (Table I); a window would overlap its
		// consensus rounds and change what the baseline measures.
		cfg.PipelineDepth = 1
	}
	n := &Node{
		cfg:           cfg,
		app:           cfg.App,
		permanentKeys: cfg.Genesis.PermanentKeys(),
		curView:       cfg.Genesis.InitialView(),
		removeTracker: reconfig.NewRemoveTracker(),
		ledger:        blockchain.NewLedger(cfg.Genesis),
		batcher:       smr.NewBatcher(cfg.MaxBatch),
		// The one verification pool, GOMAXPROCS workers in every mode,
		// started by Start: a node that is only built owns no goroutine.
		verifier:    smr.NewVerifierPool(cfg.Verify, 0),
		unverified:  newUnverifiedSet(cfg.MaxBatch),
		source:      catchup.NewPool(catchup.Config{PeerTimeout: cfg.CatchupPeerTimeout}),
		syncReplies: make(chan catchup.Response, 256), // a full wave's replies from a few dozen donors
		syncAsks:    make(chan syncAsk, 0),
		inbox:       make(chan consInput, 4096), // Engine's queue size: many windows of every peer's votes before dispatch waits
		stop:        make(chan struct{}),
		catchupCh:   make(chan transport.Message, 64),
		// Room for a window of blocks in flight (closed, durable and n−1 shares
		// each) and a burst of reads; full, it pushes back on whoever posts.
		tailCh:   make(chan tailEvent, 256),
		released: make(chan struct{}, 1),
	}
	n.nextInstance.Store(1)
	n.regency.Store(-1)
	n.replies = newReplyCache()
	n.batcher.SetSessionGC(cfg.SessionGCBlocks)
	n.keys = reconfig.NewKeyStore(cfg.Self, cfg.Permanent, 0, cfg.InitialConsensusKey, nil)
	return n, nil
}

// recordLogger is the commit path's log writer: Append queues a record and
// calls onDurable (if any) at the storage mode's durability point.
// *smr.DurableLogger is the one shipped implementation.
type recordLogger interface {
	Append(record []byte, onDurable func(error))
	Close()
}

// Start brings the node online: recover local state (snapshot + chain log),
// start the logger, the verification workers and the node's loops — the
// ordering driver among them, whose first act seats a member's consensus
// machine (consensus messages that arrive before it wait in the inbox). When
// SyncPeers is set, Start then asks it for state transfer and returns once
// that has run its course.
func (n *Node) Start() error {
	n.startedAt = time.Now()
	if err := n.build(smr.NewDurableLogger(n.cfg.Log, n.cfg.Storage)); err != nil {
		return err
	}
	n.verifier.Start()
	n.loops.Add(4)
	go n.tailLoop()
	go n.receiveLoop()
	go n.catchupServer()
	go n.driverLoop()

	if len(n.cfg.SyncPeers) > 0 {
		_ = n.SyncFromPeers(n.cfg.SyncPeers, 2*time.Second) //smartlint:allow errdrop best effort: a lone recovering replica must still come up
	}
	return nil
}

// build is Start short of its goroutines: recover local state, take logger
// as the commit path's log writer and open the commit tail at the recovered
// height. A failed recovery closes logger.
func (n *Node) build(logger recordLogger) error {
	if err := n.recoverLocal(); err != nil {
		logger.Close()
		return fmt.Errorf("recover: %w", err)
	}
	n.logger = logger
	n.tail = newTail(n.cfg.Persistence == PersistenceStrong, n.cfg.Self,
		DefaultReadParkTimeout, DefaultReadParkLimit, n.ledger.Height(), n.View())
	return nil
}

// Stop shuts the node down, draining the logger so durable state is
// consistent. Safe to call multiple times.
func (n *Node) Stop() {
	n.stopOnce.Do(func() {
		close(n.stop)
		n.batcher.Close()
		n.loops.Wait() // tailLoop before the logger: its last callbacks find nobody to post to
		n.verifier.Close()
		if n.logger != nil {
			n.logger.Close()
		}
	})
}

// View returns the currently installed view.
func (n *Node) View() view.View {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.curView
}

// Ledger exposes the chain tracker (height, cached blocks, …).
func (n *Node) Ledger() *blockchain.Ledger { return n.ledger }

// Regency returns the consensus machine's installed regency (epoch), or -1
// when this replica has no seat (not started yet, a candidate, retired).
func (n *Node) Regency() int64 { return n.regency.Load() }

// Leader reports the consensus leader of this node's current regency, or
// -1 without a seat. Cluster.Leader and the whole-replica simulation's
// leader-targeted faults resolve their victim through it.
func (n *Node) Leader() int32 { return n.View().Leader(n.regency.Load()) }

// Retired reports whether the node has been reconfigured out of the
// consortium.
func (n *Node) Retired() bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.retired
}

// Stats is a snapshot of the node's counters.
type Stats struct {
	ExecutedTxs int64
	Blocks      int64
	ViewChanges int64
	// EpochChanges counts consensus synchronization rounds (regency
	// installs) across all engines this node has run. One leader failure
	// costs exactly one round regardless of the window depth — the
	// accounting that lets tests prove it.
	EpochChanges int64
	Height       int64
	// UnorderedReads counts read-only requests served from local state.
	UnorderedReads int64
	// Instances is the number of consensus instances committed so far —
	// the accounting that lets tests prove unordered reads consume none.
	Instances int64
	// StateTransfers counts state-transfer rounds that actually installed
	// state on this replica — the accounting that lets tests prove a
	// stale-campaigner resync rejoined live ordering WITHOUT one.
	StateTransfers int64
	// Catchup reports what the state-transfer pool did: chunks and ranges
	// fetched, donors used and banned, work reassigned, bytes moved.
	Catchup catchup.Stats
}

// Stats returns current counters.
func (n *Node) Stats() Stats {
	return Stats{
		ExecutedTxs:    n.executedTxs.Load(),
		Blocks:         n.blocksBuilt.Load(),
		ViewChanges:    n.viewChanges.Load(),
		EpochChanges:   n.epochChanges.Load(),
		Height:         n.ledger.Height(),
		UnorderedReads: n.unorderedReads.Load(),
		Instances:      n.nextInstance.Load() - 1,
		StateTransfers: n.stateTransfers.Load(),
		Catchup:        n.source.Stats(),
	}
}

// enqueueRequest queues an ordered request. Under VerifyParallel it waits
// unverified (admit.go) until a proposal, a commit or a flush takes it, the
// leader's flush before each cut among them; a set that fills is flushed on
// the ordering driver. VerifySequential verifies inside applyBatch, and
// VerifyNone not at all: both queue the request as is.
func (n *Node) enqueueRequest(req smr.Request) {
	if n.cfg.Verify != smr.VerifyParallel {
		n.batcher.Add(req)
		return
	}
	if full := n.unverified.hold(req); full != nil {
		n.postInput(consInput{flush: full})
	}
}

// serveUnordered answers a read-only request directly from the local
// application state: verify the request envelope per the configured
// strategy, execute against the current state, reply immediately. The
// batcher, consensus, the ledger, and the durability path are never
// involved, so the read consumes no consensus instance and costs no
// ordering latency. Any reachable replica answers; the client's matching-
// reply quorum is what makes the result trustworthy. A request whose
// ReadFloor is above the executed height is parked by the tail until the
// replica catches up (read-your-writes), bounded by the park queue and
// timeout — overflow, expiry and a full tail queue answer "behind" so the
// client can fall back to an ordered read.
func (n *Node) serveUnordered(req smr.Request) {
	n.mu.Lock()
	retired := n.retired
	n.mu.Unlock()
	if retired {
		return
	}
	exec := func(r smr.Request, ok bool) {
		if !ok {
			return
		}
		if r.ReadFloor <= n.ledger.Height() {
			n.answerUnordered(r)
			return
		}
		select {
		case n.tailCh <- tailEvent{kind: tevRead, req: r}:
		default:
			n.sendReadReply(&r, smr.ReplyFlagBehind, nil)
		}
	}
	// Every mode goes through the verification pool (VerifyNone passes the
	// signature). Crucially, this moves signature checking AND the state
	// read off the dispatch goroutine: a burst of reads must never
	// head-of-line-block consensus messages behind it.
	n.verifier.Submit(req, exec)
}

// receiveLoop dispatches transport messages to the right handler.
func (n *Node) receiveLoop() {
	defer n.loops.Done()
	for {
		select {
		case <-n.stop:
			return
		case m, ok := <-n.cfg.Transport.Receive():
			if !ok {
				return
			}
			n.dispatch(m)
		}
	}
}

func (n *Node) dispatch(m transport.Message) {
	switch {
	case m.Type >= 100 && m.Type < 120:
		n.mu.Lock()
		v := n.curView
		n.mu.Unlock()
		if v.Contains(m.From) {
			consensus.PreVerify(m, v, n.verifier.Pool(), n.validProposal, func(in consensus.Input) { n.postMessage(v.ID, in) })
		}
	case m.Type == MsgRequest:
		req, err := smr.DecodeRequest(m.Payload)
		if err != nil {
			return
		}
		if req.Unordered() {
			// Consensus-free read path: never touches the batcher or the
			// ordering driver.
			n.serveUnordered(req)
			return
		}
		if enc, ok := n.replies.lookup(req.ClientID, req.Seq, req.Digest); ok {
			// A retransmission of an executed request: re-send the cached
			// reply. The digest match (covering the request signature)
			// proves the cached reply answers exactly this signed request,
			// so no re-verification is needed — and the batcher would only
			// drop the duplicate anyway, leaving the client hanging if its
			// original replies were lost or came from fewer live executors
			// than its quorum (replicas that caught up via state transfer
			// replay blocks without sending replies).
			_ = n.cfg.Transport.Send(int32(req.ClientID), MsgReply, enc) //smartlint:allow errdrop reply-cache resend; the client keeps retransmitting on silence
			return
		}
		n.enqueueRequest(req)
	case m.Type == smr.MsgViewQuery:
		n.onViewQuery(m.From)
	case m.Type == MsgPersist:
		// Verified in the tail's step: not ahead of the next consensus message.
		if pm, err := decodePersistMsg(m.Payload); err == nil && pm.Signer == m.From {
			n.post(tailEvent{kind: tevShare, share: pm})
		}
	case m.Type == MsgEnvelopeReq || m.Type == MsgChunkReq || m.Type == MsgBlockRangeReq:
		// Donor-side work: queue it for the catch-up server so a giant
		// snapshot never blocks the dispatch goroutine. Overflow drops the
		// request; the requester times out and reassigns the work.
		select {
		case n.catchupCh <- m:
		default:
		}
	case m.Type == MsgEnvelopeRep || m.Type == MsgChunkRep || m.Type == MsgBlockRangeRep:
		n.onCatchupReply(m)
	case m.Type == MsgJoinAsk:
		n.onJoinAsk(m)
	case m.Type == MsgJoinVote:
		n.onJoinVote(m)
	case m.Type == MsgKeyAnnounce:
		n.onKeyAnnounce(m)
	}
}
