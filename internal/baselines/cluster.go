package baselines

import (
	"fmt"
	"sync/atomic"
	"time"

	"smartchain/internal/crypto"
	"smartchain/internal/smr"
	"smartchain/internal/storage"
	"smartchain/internal/transport"
	"smartchain/internal/view"
)

// Kind selects which baseline system a cluster runs.
type Kind int

const (
	// KindDuraSMaRt runs the Dura-SMaRt durability layer.
	KindDuraSMaRt Kind = iota + 1
	// KindTendermint runs the Tendermint-style double-write discipline.
	KindTendermint
	// KindFabric runs the Fabric-style execute-order-validate peers.
	KindFabric
)

// String implements fmt.Stringer for experiment labels.
func (k Kind) String() string {
	switch k {
	case KindDuraSMaRt:
		return "dura-smart"
	case KindTendermint:
		return "tendermint"
	case KindFabric:
		return "fabric"
	default:
		return "unknown"
	}
}

// ClusterConfig parameterizes a baseline deployment.
type ClusterConfig struct {
	Kind       Kind
	N          int
	AppFactory func() Executor
	// VerifyOp is the application's admission check, run in the admission
	// pool after the request signature; coin.Service's does no crypto.
	VerifyOp func(*smr.Request) bool
	Verify   smr.VerifyMode
	Storage  smr.StorageMode
	// DiskFactory models each replica's device (nil = no timing).
	DiskFactory func() *storage.SimDisk
	MaxBatch    int
	Timeout     time.Duration
	// GossipDelay models Tendermint's mempool dissemination hop.
	GossipDelay time.Duration
	// Endorsers / EndorseQuorum configure the Fabric endorsement policy.
	Endorsers     int
	EndorseQuorum int
	ChainID       string
}

// Cluster is an in-process baseline deployment; it satisfies the harness
// System interface.
type Cluster struct {
	cfg ClusterConfig
	Net *transport.MemNetwork

	members      []int32
	stoppers     []func()
	replicas     []*Replica
	EndorserKeys []*crypto.KeyPair
	nextClientID int32
}

// NewCluster builds and starts a baseline deployment.
func NewCluster(cfg ClusterConfig) (*Cluster, error) {
	if cfg.N < 1 || cfg.AppFactory == nil {
		return nil, fmt.Errorf("baselines: need N ≥ 1 and an app factory")
	}
	if cfg.ChainID == "" {
		cfg.ChainID = "baseline"
	}
	if cfg.Endorsers <= 0 {
		cfg.Endorsers = 2
	}
	if cfg.EndorseQuorum <= 0 {
		cfg.EndorseQuorum = cfg.Endorsers
	}
	c := &Cluster{
		cfg:          cfg,
		Net:          transport.NewMemNetwork(),
		nextClientID: transport.ClientIDBase,
	}
	members := make([]int32, cfg.N)
	keys := make(map[int32]crypto.PublicKey, cfg.N)
	signers := make([]*crypto.KeyPair, cfg.N)
	for i := 0; i < cfg.N; i++ {
		members[i] = int32(i)
		signers[i] = crypto.SeededKeyPair(cfg.ChainID+"/cons", int64(i))
		keys[int32(i)] = signers[i].Public()
	}
	c.members = members
	v := view.New(0, members, keys)

	for i := 0; i < cfg.Endorsers; i++ {
		c.EndorserKeys = append(c.EndorserKeys, crypto.SeededKeyPair(cfg.ChainID+"/endorser", int64(i)))
	}

	newLog := func() storage.Log {
		if cfg.DiskFactory != nil {
			return storage.NewSimLog(cfg.DiskFactory())
		}
		return storage.NewSimLog(nil)
	}

	for i := 0; i < cfg.N; i++ {
		base := ChassisConfig{
			Self:        int32(i),
			View:        v,
			Signer:      signers[i],
			Transport:   c.Net.Endpoint(int32(i)),
			Verify:      cfg.Verify,
			MaxBatch:    cfg.MaxBatch,
			Timeout:     cfg.Timeout,
			VerifyOp:    cfg.VerifyOp,
			IngestDelay: 0,
		}
		app := cfg.AppFactory()
		switch cfg.Kind {
		case KindDuraSMaRt:
			node := NewDuraSMaRt(base, newLog(), cfg.Storage, app)
			node.Start()
			c.replicas = append(c.replicas, node.Replica())
			c.stoppers = append(c.stoppers, node.Stop)
		case KindTendermint:
			base.IngestDelay = cfg.GossipDelay
			node := NewTendermint(base, newLog(), app)
			node.Start()
			c.replicas = append(c.replicas, node.Replica())
			c.stoppers = append(c.stoppers, node.Stop)
		case KindFabric:
			// Fabric validation is inherently sequential; signature checks
			// happen there, not in the admission pool.
			base.Verify = smr.VerifyNone
			base.VerifyOp = nil
			node := NewFabric(base, newLog(), app, c.EndorserKeys, cfg.EndorseQuorum)
			node.Start()
			c.replicas = append(c.replicas, node.Replica())
			c.stoppers = append(c.stoppers, node.Stop)
		default:
			c.Stop()
			return nil, fmt.Errorf("baselines: unknown kind %d", cfg.Kind)
		}
	}
	return c, nil
}

// Members implements the harness System interface.
func (c *Cluster) Members() []int32 {
	out := make([]int32, len(c.members))
	copy(out, c.members)
	return out
}

// ClientEndpoint implements the harness System interface. Safe for
// concurrent use: load generators spin up client fleets from many
// goroutines at once.
func (c *Cluster) ClientEndpoint() transport.Endpoint {
	return c.Net.Endpoint(atomic.AddInt32(&c.nextClientID, 1) - 1)
}

// DroppedSends sums transport-refused sends across replicas. Nonzero
// values mean the baseline measurement ran degraded (lost protocol
// messages or client replies) and should be reported next to throughput.
func (c *Cluster) DroppedSends() int64 {
	var sum int64
	for _, r := range c.replicas {
		sum += r.DroppedSends()
	}
	return sum
}

// Stop shuts every replica down.
func (c *Cluster) Stop() {
	for _, stop := range c.stoppers {
		stop()
	}
}
