package core

import (
	"fmt"
	"sync/atomic"
	"time"

	"smartchain/internal/blockchain"
	"smartchain/internal/consensus"
	"smartchain/internal/crypto"
	"smartchain/internal/smr"
	"smartchain/internal/storage"
	"smartchain/internal/transport"
)

// ClusterConfig parameterizes an in-process deployment. The Cluster is the
// substrate for the integration tests, the examples, and the benchmark
// harness: every replica is a full Node with its own (simulated or real)
// stable storage, connected through a MemNetwork with fault injection.
type ClusterConfig struct {
	// N is the number of genesis replicas.
	N int
	// AppFactory builds one application instance per replica; instances
	// must be deterministic and identical.
	AppFactory func() Application
	// Persistence, Storage, Verify, Pipeline, PipelineDepth mirror Config.
	Persistence Persistence
	Storage     smr.StorageMode
	Verify      smr.VerifyMode
	Pipeline    bool
	// PipelineDepth is the consensus ordering window W (0 = default).
	PipelineDepth int
	// SessionGCBlocks is the per-client executed-record GC horizon in
	// blocks (0 disables), identical on every replica.
	SessionGCBlocks int64
	// DiskFactory models each replica's storage device (nil = no device
	// timing; storage is still crash-consistent).
	DiskFactory func() *storage.SimDisk
	// CheckpointPeriod is z, in blocks (0 disables checkpoints).
	CheckpointPeriod int64
	// MaxBatch caps block size (default 512).
	MaxBatch int
	// Minters authorizes application-level minters in genesis.
	Minters []crypto.PublicKey
	// ConsensusTimeout for the engines (default 500 ms).
	ConsensusTimeout time.Duration
	// NetLatency adds one-way delivery delay between processes.
	NetLatency time.Duration
	// NetBandwidth models each process's uplink in bytes/s (0 = infinite).
	// Catch-up benchmarks set it so a single donor shipping a monolithic
	// snapshot serializes on its own link while multiple donors add up.
	NetBandwidth float64
	// ChainID names the deployment.
	ChainID string
	// CatchupPeerTimeout mirrors Config (0 = default).
	CatchupPeerTimeout time.Duration
	// Prime fabricates a pre-committed chain and installs it into every
	// non-deferred replica's storage before start, so catch-up scenarios
	// measure transfer, not the time to order thousands of live blocks.
	// Requires CheckpointPeriod == 0 (fabricated headers pin the checkpoint
	// back-link at Prime.SnapshotAt).
	Prime *ChainSpec
	// Deferred lists genesis replicas whose processes are NOT started by
	// NewCluster (and whose storage is left empty): fresh replicas that
	// later catch up via StartDeferred.
	Deferred []int32
	// WrapEndpoint, when set, wraps every replica's transport endpoint at
	// start (and re-start: Recover and Join pass through it too). The
	// benchmark uses it to count and time what each replica sends.
	WrapEndpoint func(id int32, ep transport.Endpoint) transport.Endpoint
	// TCPWire runs the deployment over real loopback TCP (a TCPFabric of
	// HMAC-authenticated TCPNetworks) instead of the in-memory transport.
	// NetLatency maps to per-frame delivery delay; NetBandwidth and
	// MemNetwork-based fault filters are not modeled over TCP.
	TCPWire bool
}

// ChainSpec describes a fabricated pre-committed chain: Blocks application
// blocks of TxPerBlock requests each, with the service checkpoint
// (snapshot) taken at height SnapshotAt. The blocks carry genuine consensus
// decision proofs — every genesis replica's consensus key signs each
// decision — so catch-up verification runs exactly as it would against a
// live-ordered chain.
type ChainSpec struct {
	Blocks     int64
	TxPerBlock int
	SnapshotAt int64
	// MakeRequests builds one block's ordered requests. The fabricator
	// supplies the client identity and the first sequence number; the
	// callback assigns Seq = firstSeq, firstSeq+1, … and OpApp-framed
	// operations the cluster's application executes successfully.
	MakeRequests func(block int64, clientID int64, firstSeq uint64) []smr.Request
}

// FabClientID is the client identity fabricated chain traffic is issued
// under — far outside the live client ID space.
const FabClientID int64 = 1 << 40

// fabTimestampBase keeps fabricated batch timestamps plausible without
// consulting the wall clock (determinism across fabrication runs).
const fabTimestampBase = int64(1_700_000_000_000_000_000)

// ClusterNode bundles one replica with its persistent resources, which
// survive Crash/Recover cycles like a machine's disk would.
type ClusterNode struct {
	ID        int32
	Node      *Node
	App       Application
	Permanent *crypto.KeyPair
	Log       *storage.SimLog
	Snapshots storage.SnapshotStore
	KeyFile   storage.SnapshotStore
	crashed   bool
	deferred  bool
}

// Crashed reports whether the replica is currently down (between Crash and
// Recover).
func (cn *ClusterNode) Crashed() bool { return cn.crashed }

// Cluster is an in-process SMARTCHAIN deployment.
type Cluster struct {
	cfg     ClusterConfig
	Net     *transport.MemNetwork
	Fabric  *transport.TCPFabric
	Genesis blockchain.Genesis
	Nodes   map[int32]*ClusterNode

	// consKeys holds the genesis consensus keys so deferred replicas can
	// come up with their view-0 identity later.
	consKeys map[int32]*crypto.KeyPair

	nextClientID int32
}

// NewCluster builds and starts an N-replica deployment with deterministic
// (seeded) identities.
func NewCluster(cfg ClusterConfig) (*Cluster, error) {
	if cfg.N < 1 {
		return nil, fmt.Errorf("core: cluster needs at least one replica")
	}
	if cfg.AppFactory == nil {
		return nil, fmt.Errorf("core: cluster needs an application factory")
	}
	if cfg.MaxBatch <= 0 {
		cfg.MaxBatch = 512
	}
	if cfg.ChainID == "" {
		cfg.ChainID = "smartchain-cluster"
	}
	if cfg.Prime != nil && cfg.CheckpointPeriod != 0 {
		return nil, fmt.Errorf("core: Prime requires CheckpointPeriod == 0")
	}
	var netOpts []transport.MemOption
	if cfg.NetLatency > 0 {
		netOpts = append(netOpts, transport.WithLatency(cfg.NetLatency))
	}
	if cfg.NetBandwidth > 0 {
		netOpts = append(netOpts, transport.WithBandwidth(cfg.NetBandwidth))
	}
	c := &Cluster{
		cfg:          cfg,
		Net:          transport.NewMemNetwork(netOpts...),
		Nodes:        make(map[int32]*ClusterNode, cfg.N),
		nextClientID: transport.ClientIDBase,
	}
	if cfg.TCPWire {
		c.Fabric = transport.NewTCPFabric([]byte("smartchain/" + cfg.ChainID))
		if cfg.NetLatency > 0 {
			c.Fabric.SetDelay(cfg.NetLatency)
		}
	}

	replicas := make([]blockchain.ReplicaInfo, 0, cfg.N)
	permKeys := make(map[int32]*crypto.KeyPair, cfg.N)
	consKeys := make(map[int32]*crypto.KeyPair, cfg.N)
	for i := 0; i < cfg.N; i++ {
		id := int32(i)
		perm := crypto.SeededKeyPair(cfg.ChainID+"/perm", int64(i))
		cons := crypto.SeededKeyPair(cfg.ChainID+"/cons0", int64(i))
		permKeys[id] = perm
		consKeys[id] = cons
		replicas = append(replicas, blockchain.ReplicaInfo{
			ID:           id,
			PermanentPub: perm.Public(),
			ConsensusPub: cons.Public(),
		})
	}
	c.Genesis = blockchain.Genesis{
		ChainID:          cfg.ChainID,
		Replicas:         replicas,
		Minters:          cfg.Minters,
		CheckpointPeriod: cfg.CheckpointPeriod,
		MaxBatchSize:     cfg.MaxBatch,
	}
	c.consKeys = consKeys

	var primed *primedChain
	if cfg.Prime != nil {
		pc, err := c.fabricate(cfg.Prime)
		if err != nil {
			return nil, err
		}
		primed = pc
	}
	deferred := make(map[int32]bool, len(cfg.Deferred))
	for _, id := range cfg.Deferred {
		deferred[id] = true
	}

	for i := 0; i < cfg.N; i++ {
		id := int32(i)
		cn := &ClusterNode{
			ID:        id,
			Permanent: permKeys[id],
			Log:       storage.NewSimLog(c.newDisk()),
			Snapshots: storage.NewMemSnapshotStore(c.newDisk()),
			KeyFile:   storage.NewMemSnapshotStore(nil),
		}
		c.Nodes[id] = cn
		if deferred[id] {
			cn.deferred = true
			continue
		}
		if primed != nil {
			if err := c.primeStorage(cn, primed); err != nil {
				c.Stop()
				return nil, err
			}
		}
		if err := c.startNode(cn, consKeys[id], nil); err != nil {
			c.Stop()
			return nil, err
		}
	}
	return c, nil
}

// primedChain is one fabricated chain artifact, shared by every primed
// replica: the log records (genesis + post-snapshot blocks — blocks the
// snapshot covers never need replaying) and the chunked checkpoint.
type primedChain struct {
	records    [][]byte
	snapHeight int64
	snapMeta   []byte
	snapState  []byte
}

// fabricate builds Prime's chain once: requests are executed on a scratch
// application instance (yielding genuine per-request results and the
// snapshot state), and each block's decision proof is signed by every
// genesis consensus key, so receivers verify fabricated history exactly
// like live history.
func (c *Cluster) fabricate(spec *ChainSpec) (*primedChain, error) {
	if spec.Blocks < 1 || spec.SnapshotAt < 1 || spec.SnapshotAt > spec.Blocks {
		return nil, fmt.Errorf("core: invalid chain spec: blocks=%d snapshot=%d", spec.Blocks, spec.SnapshotAt)
	}
	if spec.MakeRequests == nil {
		return nil, fmt.Errorf("core: chain spec needs MakeRequests")
	}
	app := c.cfg.AppFactory()
	ledger := blockchain.NewLedger(c.Genesis)
	gb := blockchain.GenesisBlock(&c.Genesis)
	v := c.Genesis.InitialView()
	pc := &primedChain{
		records:    [][]byte{blockchain.EncodeBlockRecord(&gb)},
		snapHeight: spec.SnapshotAt,
	}
	var seq uint64
	for b := int64(1); b <= spec.Blocks; b++ {
		reqs := spec.MakeRequests(b, FabClientID, seq+1)
		seq += uint64(len(reqs))
		batch := smr.Batch{Timestamp: fabTimestampBase + b, Requests: reqs}
		batchData := batch.Encode()
		appReqs := make([]smr.Request, 0, len(reqs))
		for i := range reqs {
			if len(reqs[i].Op) == 0 || reqs[i].Op[0] != OpApp {
				return nil, fmt.Errorf("core: fabricated request without OpApp frame (block %d)", b)
			}
			r := reqs[i]
			r.Op = r.Op[1:]
			appReqs = append(appReqs, r)
		}
		bc := smr.NewBatchContext(b, b, 0, &batch)
		results := app.ExecuteBatch(bc, appReqs)
		digest := crypto.HashBytes(batchData)
		proof := crypto.Certificate{Digest: digest}
		for _, id := range v.Members {
			sig, err := consensus.SignAccept(c.consKeys[id], b, 0, digest)
			if err != nil {
				return nil, err
			}
			proof.Sigs = append(proof.Sigs, crypto.Signature{Signer: id, Sig: sig})
		}
		blk, err := ledger.BuildBlock(blockchain.KindTransactions, b, 0, batchData, proof, results, nil)
		if err != nil {
			return nil, err
		}
		if err := ledger.Commit(&blk); err != nil {
			return nil, err
		}
		if b == spec.SnapshotAt {
			ledger.MarkCheckpoint(b)
			env := snapshotEnvelope{
				Instance:     b + 1,
				BlockHash:    blk.Header.Hash(),
				LastReconfig: 0,
				View:         v,
				PermKeys:     c.Genesis.PermanentKeys(),
				Watermarks:   map[int64]smr.Watermark{FabClientID: {Low: seq, LastSeen: b}},
			}
			pc.snapMeta = env.encode()
			pc.snapState = app.Snapshot()
		}
		if b > spec.SnapshotAt {
			pc.records = append(pc.records, blockchain.EncodeBlockRecord(&blk))
		}
	}
	return pc, nil
}

// primeStorage installs the fabricated chain into one replica's stable
// storage: the node then recovers from it at Start exactly as if it had
// committed the history live.
func (c *Cluster) primeStorage(cn *ClusterNode, pc *primedChain) error {
	for _, rec := range pc.records {
		if err := cn.Log.Append(rec); err != nil {
			return err
		}
	}
	if err := cn.Log.Sync(); err != nil {
		return err
	}
	return storage.SaveSnapshot(cn.Snapshots, pc.snapHeight, pc.snapMeta, pc.snapState, checkpointChunkBytes)
}

// StartDeferred brings a deferred replica online. With syncPeers set, Start
// asks its ordering driver for state transfer from them and waits; passing nil
// lets the caller ask (and measure) with SyncFromPeers after Start returns.
func (c *Cluster) StartDeferred(id int32, syncPeers []int32) error {
	cn, ok := c.Nodes[id]
	if !ok || !cn.deferred {
		return fmt.Errorf("core: replica %d is not deferred", id)
	}
	cn.deferred = false
	return c.startNode(cn, c.consKeys[id], syncPeers)
}

// endpoint builds the transport endpoint for one process ID on whichever
// wire the cluster runs.
func (c *Cluster) endpoint(id int32) (transport.Endpoint, error) {
	if c.Fabric != nil {
		return c.Fabric.Endpoint(id)
	}
	return c.Net.Endpoint(id), nil
}

// WireStats aggregates the TCP fabric's per-process counters (nil off the
// TCP wire). TestClusterTCPWireMintAndSpend and bench/ read this: a healthy
// loopback run must show zero drops and zero authentication failures.
func (c *Cluster) WireStats() map[int32]transport.TCPStats {
	if c.Fabric == nil {
		return nil
	}
	return c.Fabric.Stats()
}

func (c *Cluster) newDisk() *storage.SimDisk {
	if c.cfg.DiskFactory == nil {
		return nil
	}
	return c.cfg.DiskFactory()
}

// startNode builds and starts the Node process for a ClusterNode.
func (c *Cluster) startNode(cn *ClusterNode, initialKey *crypto.KeyPair, syncPeers []int32) error {
	cn.App = c.cfg.AppFactory()
	ep, err := c.endpoint(cn.ID)
	if err != nil {
		return err
	}
	if c.cfg.WrapEndpoint != nil {
		ep = c.cfg.WrapEndpoint(cn.ID, ep)
	}
	node, err := NewNode(Config{
		Self:                cn.ID,
		Genesis:             c.Genesis,
		Permanent:           cn.Permanent,
		InitialConsensusKey: initialKey,
		Transport:           ep,
		Log:                 cn.Log,
		Snapshots:           cn.Snapshots,
		KeyFile:             cn.KeyFile,
		App:                 cn.App,
		Persistence:         c.cfg.Persistence,
		Storage:             c.cfg.Storage,
		Verify:              c.cfg.Verify,
		Pipeline:            c.cfg.Pipeline,
		PipelineDepth:       c.cfg.PipelineDepth,
		SessionGCBlocks:     c.cfg.SessionGCBlocks,
		MaxBatch:            c.cfg.MaxBatch,
		ConsensusTimeout:    c.cfg.ConsensusTimeout,
		SyncPeers:           syncPeers,
		CatchupPeerTimeout:  c.cfg.CatchupPeerTimeout,
	})
	if err != nil {
		return err
	}
	cn.Node = node
	cn.crashed = false
	return node.Start()
}

// Members returns the IDs of the current view according to replica 0 (or
// any live replica).
func (c *Cluster) Members() []int32 {
	for _, cn := range c.Nodes {
		if cn.Node != nil && !cn.crashed {
			v := cn.Node.View()
			out := make([]int32, len(v.Members))
			copy(out, v.Members)
			return out
		}
	}
	return nil
}

// Leader reports the consensus leader as seen by the most advanced live
// replica — highest view, then highest regency, then lowest id — or -1
// when none is running. A replica cut off before an epoch change (often
// the deposed leader itself) still reports the old regency, so asking any
// fixed replica can name a leader the rest of the view already replaced.
func (c *Cluster) Leader() int32 {
	var (
		bestNode            *Node
		bestID              int32
		bestView, bestEpoch int64
	)
	for id, cn := range c.Nodes {
		if cn.crashed || cn.Node == nil || cn.Node.Retired() {
			continue
		}
		v, r := cn.Node.View().ID, cn.Node.Regency()
		if r < 0 {
			continue // no engine right now (mid-reconfiguration)
		}
		if bestNode == nil || v > bestView || (v == bestView && (r > bestEpoch || (r == bestEpoch && id < bestID))) {
			bestNode, bestID, bestView, bestEpoch = cn.Node, id, v, r
		}
	}
	if bestNode == nil {
		return -1
	}
	return bestNode.Leader()
}

// Crash stops replica id abruptly: the process dies, unsynced storage is
// lost (SimLog crash semantics), and the network endpoint disappears.
func (c *Cluster) Crash(id int32) error {
	cn, ok := c.Nodes[id]
	if !ok || cn.Node == nil {
		return fmt.Errorf("core: unknown replica %d", id)
	}
	// Detach first so the dying node cannot flush anything else out.
	if c.Fabric != nil {
		c.Fabric.Detach(id)
	} else {
		c.Net.Detach(id)
	}
	cn.Node.Stop()
	cn.Log.Crash()
	cn.crashed = true
	return nil
}

// CrashAll crashes every replica at once (the full-crash scenario of
// Observation 2).
func (c *Cluster) CrashAll() {
	for id := range c.Nodes {
		if !c.Nodes[id].crashed {
			_ = c.Crash(id)
		}
	}
}

// Recover restarts a crashed replica from its surviving stable storage,
// with a state-transfer round against the other replicas.
func (c *Cluster) Recover(id int32) error {
	cn, ok := c.Nodes[id]
	if !ok {
		return fmt.Errorf("core: unknown replica %d", id)
	}
	if !cn.crashed {
		return fmt.Errorf("core: replica %d is not crashed", id)
	}
	var peers []int32
	for pid, p := range c.Nodes {
		if pid != id && !p.crashed {
			peers = append(peers, pid)
		}
	}
	return c.startNode(cn, nil, peers)
}

// Join spawns a brand-new replica and drives the decentralized join
// protocol. On success the new replica is a consortium member with its
// state transferred.
func (c *Cluster) Join(id int32, timeout time.Duration) error {
	if _, exists := c.Nodes[id]; exists {
		return fmt.Errorf("core: replica %d already exists", id)
	}
	members := c.Members()
	cn := &ClusterNode{
		ID:        id,
		Permanent: crypto.SeededKeyPair(c.cfg.ChainID+"/perm", int64(id)),
		Log:       storage.NewSimLog(c.newDisk()),
		Snapshots: storage.NewMemSnapshotStore(c.newDisk()),
		KeyFile:   storage.NewMemSnapshotStore(nil),
	}
	c.Nodes[id] = cn
	if err := c.startNode(cn, nil, members); err != nil {
		return err
	}
	if err := cn.Node.RequestJoin(members, nil, timeout); err != nil {
		return err
	}
	return cn.Node.WaitMembership(members, timeout)
}

// Leave makes replica id depart voluntarily.
func (c *Cluster) Leave(id int32, timeout time.Duration) error {
	cn, ok := c.Nodes[id]
	if !ok || cn.Node == nil {
		return fmt.Errorf("core: unknown replica %d", id)
	}
	if err := cn.Node.RequestLeave(timeout); err != nil {
		return err
	}
	deadline := time.Now().Add(timeout)
	for !cn.Node.Retired() {
		if time.Now().After(deadline) {
			return fmt.Errorf("core: leave of %d not installed within %v", id, timeout)
		}
		time.Sleep(20 * time.Millisecond)
	}
	return nil
}

// ClientEndpoint creates a fresh client endpoint with a unique ID. Safe
// for concurrent use: load generators spin up client fleets from many
// goroutines at once.
func (c *Cluster) ClientEndpoint() transport.Endpoint {
	id := atomic.AddInt32(&c.nextClientID, 1) - 1
	if c.Fabric != nil {
		ep, err := c.Fabric.Endpoint(id)
		if err != nil {
			// Ephemeral loopback listen can only fail on resource
			// exhaustion; the load generators have no error path here.
			panic(fmt.Sprintf("core: tcp client endpoint %d: %v", id, err))
		}
		return ep
	}
	return c.Net.Endpoint(id)
}

// Stop shuts every replica down.
func (c *Cluster) Stop() {
	for _, cn := range c.Nodes {
		if cn.Node != nil && !cn.crashed {
			cn.Node.Stop()
		}
	}
	if c.Fabric != nil {
		c.Fabric.Close()
	}
}

// WaitHeight blocks until every live member reaches at least height h.
//
//smartlint:allow structure test hook: core's fault and catch-up tests and the facade's test wait for convergence with it
func (c *Cluster) WaitHeight(h int64, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		allAt := true
		for _, cn := range c.Nodes {
			if cn.crashed || cn.Node == nil || cn.Node.Retired() {
				continue
			}
			if cn.Node.Ledger().Height() < h {
				allAt = false
				break
			}
		}
		if allAt {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("core: height %d not reached within %v", h, timeout)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
