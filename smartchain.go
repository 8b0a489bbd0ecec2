// Package smartchain is the public API of the SMARTCHAIN permissioned
// blockchain platform — a from-scratch reproduction of "From Byzantine
// Replication to Blockchain: Consensus is Only the Beginning" (Bessani,
// Alchieri, Sousa, Oliveira, Pedone — DSN 2020).
//
// SMARTCHAIN layers a self-verifiable blockchain over a Mod-SMaRt-style
// Byzantine fault-tolerant state machine replication protocol, adding:
//
//   - an efficient blockchain storage layer that decouples block
//     persistence from request ordering and amortizes synchronous writes
//     over many blocks (Algorithm 1), with pipelined ordering: up to
//     Config.PipelineDepth consensus instances run concurrently and commit
//     strictly in instance order — and a regency-wide epoch change that
//     replaces a failed leader for the WHOLE window in one synchronization
//     round (failover cost is independent of the window depth);
//   - strong (0-Persistence) and weak (1-Persistence) durability variants —
//     under the strong variant, every transaction whose client saw a reply
//     quorum survives even a simultaneous crash of all replicas;
//   - a decentralized reconfiguration protocol with per-view
//     consensus-key rotation, which prevents removed-and-later-compromised members from forking the
//     chain.
//
// The facade re-exports the platform's main entry points; the
// implementation lives under internal/ (one package per subsystem — see
// DESIGN.md for the inventory).
//
// Quick start (in-process cluster):
//
//	cluster, err := smartchain.NewCluster(smartchain.ClusterConfig{
//		N:          4,
//		AppFactory: func() smartchain.Application { return coinService() },
//	})
//	...
//	proxy := smartchain.NewClient(cluster.ClientEndpoint(), key, cluster.Members())
//	defer proxy.Close()
//	ctx := context.Background()
//	result, err := proxy.Invoke(ctx, smartchain.WrapAppOp(op))       // ordered
//	future := proxy.InvokeAsync(ctx, smartchain.WrapAppOp(op2))      // pipelined
//	balance, err := proxy.InvokeUnordered(ctx, smartchain.WrapAppOp(q)) // consensus-free read
//	...
//	resp2, err := future.Result()
//
// One proxy multiplexes any number of concurrent invocations; context
// deadlines bound each call (WithTimeout supplies the default when a
// context has none). See examples/ for runnable programs and
// cmd/smartchaind for a TCP-backed replica daemon.
package smartchain

import (
	"time"

	"smartchain/internal/blockchain"
	"smartchain/internal/catchup"
	"smartchain/internal/client"
	"smartchain/internal/coin"
	"smartchain/internal/core"
	"smartchain/internal/crypto"
	"smartchain/internal/smr"
	"smartchain/internal/storage"
	"smartchain/internal/transport"
	"smartchain/internal/view"
)

// Node-level API.
type (
	// Node is one SMARTCHAIN replica.
	Node = core.Node
	// Config parameterizes a Node.
	Config = core.Config
	// Application is the replicated service contract: batch execution with
	// an ordering context, snapshots, and deep operation verification.
	Application = core.Application
	// UnorderedApplication is the optional capability for consensus-free
	// read-only requests served from local replica state.
	UnorderedApplication = core.UnorderedApplication
	// BatchContext carries a batch's ordering coordinates (block number,
	// consensus instance, epoch) and its decided timestamp.
	BatchContext = smr.BatchContext
	// Cluster is an in-process deployment (tests, examples, benchmarks).
	Cluster = core.Cluster
	// ClusterConfig parameterizes a Cluster.
	ClusterConfig = core.ClusterConfig
	// Persistence selects the durability variant.
	Persistence = core.Persistence
)

// Durability variants (paper §V-C).
const (
	// PersistenceWeak is 1-Persistence.
	PersistenceWeak = core.PersistenceWeak
	// PersistenceStrong is 0-Persistence.
	PersistenceStrong = core.PersistenceStrong
)

// DefaultPipelineDepth is the consensus ordering window W used when
// Config.PipelineDepth (or ClusterConfig.PipelineDepth) is left zero: up to
// W instances are ordered concurrently while blocks commit strictly in
// instance order. Set PipelineDepth to 1 for strictly sequential ordering.
const DefaultPipelineDepth = core.DefaultPipelineDepth

// Verification and storage strategies (paper Table I / Fig. 6 axes).
type (
	// VerifyMode selects the signature-verification strategy.
	VerifyMode = smr.VerifyMode
	// StorageMode selects sync/async/memory ledger writes.
	StorageMode = smr.StorageMode
)

// Strategy constants.
const (
	VerifyParallel   = smr.VerifyParallel
	VerifySequential = smr.VerifySequential
	VerifyNone       = smr.VerifyNone

	StorageSync   = smr.StorageSync
	StorageAsync  = smr.StorageAsync
	StorageMemory = smr.StorageMemory
)

// Chain structures and verification.
type (
	// Block is one chain element: header, body, certificate.
	Block = blockchain.Block
	// Genesis is the content of block 0.
	Genesis = blockchain.Genesis
	// VerifyOptions controls third-party chain verification.
	VerifyOptions = blockchain.VerifyOptions
	// ChainSummary reports what a verification established.
	ChainSummary = blockchain.Summary
)

// Identity and membership.
type (
	// KeyPair is an Ed25519 identity.
	KeyPair = crypto.KeyPair
	// PublicKey is an Ed25519 public key.
	PublicKey = crypto.PublicKey
	// View is one installed consortium configuration.
	View = view.View
)

// Collaborative catch-up (multi-peer pipelined state transfer).
type (
	// CatchupStats counts what a replica's state-transfer source did:
	// chunks and block ranges fetched, distinct donors used, reassigned
	// requests, banned donors, and accepted-payload throughput. Returned
	// as part of Node.Stats().
	CatchupStats = catchup.Stats
)

// Client access.
type (
	// Client invokes operations against a view with Byzantine reply
	// quorums. One Client supports many concurrent in-flight invocations:
	// Invoke (ordered, blocking), InvokeAsync (ordered, Future), and
	// InvokeUnordered (consensus-free read).
	Client = client.Proxy
	// Future is the handle to one asynchronous invocation.
	Future = client.Future
	// ClientOption configures a Client at construction.
	ClientOption = client.Option
	// Endpoint is a process's network attachment.
	Endpoint = transport.Endpoint
)

// WithInvokeTimeout sets the per-invocation deadline a Client applies when
// the caller's context carries none (context deadlines are authoritative).
func WithInvokeTimeout(d time.Duration) ClientOption { return client.WithTimeout(d) }

// WithRetryInterval sets a Client's retransmission interval.
func WithRetryInterval(d time.Duration) ClientOption { return client.WithRetry(d) }

// Coin is the bundled SMaRtCoin application (paper §IV-A).
type Coin = coin.Service

// NewCluster starts an in-process deployment.
func NewCluster(cfg ClusterConfig) (*Cluster, error) { return core.NewCluster(cfg) }

// NewNode creates a single replica (wire it to a transport and storage).
func NewNode(cfg Config) (*Node, error) { return core.NewNode(cfg) }

// NewClient creates a client proxy bound to an endpoint. The proxy takes
// ownership of the endpoint; call Close to release both.
func NewClient(ep Endpoint, key *KeyPair, members []int32, opts ...ClientOption) *Client {
	return client.New(ep, key, members, opts...)
}

// NewCoinService creates a SMaRtCoin application instance.
func NewCoinService(minters []PublicKey) *Coin { return coin.NewService(minters) }

// WrapAppOp frames an application payload as a node operation.
func WrapAppOp(payload []byte) []byte { return core.WrapAppOp(payload) }

// VerifyChain performs full third-party chain verification from genesis.
func VerifyChain(blocks []Block, opts VerifyOptions) (ChainSummary, error) {
	return blockchain.VerifyChain(blocks, opts)
}

// GenesisBlock materializes block 0 from genesis content.
func GenesisBlock(g *Genesis) Block { return blockchain.GenesisBlock(g) }

// GenerateKeyPair creates a fresh random identity.
func GenerateKeyPair() (*KeyPair, error) { return crypto.GenerateKeyPair() }

// SeededKeyPair derives a reproducible identity (tests and experiments).
func SeededKeyPair(label string, id int64) *KeyPair { return crypto.SeededKeyPair(label, id) }

// NewMemNetwork creates an in-process network with fault injection.
func NewMemNetwork() *transport.MemNetwork { return transport.NewMemNetwork() }

// NewTCPNetwork creates a real TCP transport with HMAC link authentication.
func NewTCPNetwork(id int32, addr string, secret []byte, peers map[int32]string) (*transport.TCPNetwork, error) {
	return transport.NewTCPNetwork(id, addr, secret, peers)
}

// OpenFileLog opens a file-backed chain log.
func OpenFileLog(path string) (*storage.FileLog, error) { return storage.OpenFileLog(path) }

// NewFileSnapshotStore opens a file-backed snapshot store.
func NewFileSnapshotStore(path string) *storage.FileSnapshotStore {
	return storage.NewFileSnapshotStore(path)
}
