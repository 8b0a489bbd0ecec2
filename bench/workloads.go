package main

import (
	"context"
	"fmt"
	"sync"
	"time"

	"smartchain/internal/client"
	"smartchain/internal/coin"
	"smartchain/internal/core"
	"smartchain/internal/smr"
	"smartchain/internal/storage"
	"smartchain/internal/transport"
)

// invokeTimeout bounds one invocation; an op that exceeds it is a failed op.
const invokeTimeout = 10 * time.Second

// workload is one deployment plus the traffic it receives. Every knob that
// is not a field here stays at the repository default (n = 4, f = 1,
// W = core.DefaultPipelineDepth, ExecWorkers 0, VerifyWorkers 0).
type workload struct {
	name string

	persistence core.Persistence
	storage     smr.StorageMode
	disk        bool // HDD-profile SimDisk behind log and snapshot store
	verify      smr.VerifyMode
	tcp         bool
	netDelay    time.Duration // injected one-way delay
	ckptPeriod  int64         // blocks; 0 = no checkpoints
	maxBatch    int           // 0 = repository default (512)
	consTimeout time.Duration

	coinsPerProxy int
	readShare     float64 // probability that an op is an unordered balance read
	rate          int     // pinned open-loop rate, ops/s over both proxies
	fault         bool    // leader crash and recovery inside the rate phase
}

// Why each workload exists is recorded in BENCHMARK.json and README.md. The
// pinned rates are part of the benchmark's definition: a change that claims a
// gain does not re-tune them. README.md records how they were chosen.
var workloads = []workload{
	{
		name:        "strong_disk",
		persistence: core.PersistenceStrong, storage: smr.StorageSync, disk: true,
		verify: smr.VerifyParallel, tcp: true, netDelay: time.Millisecond,
		ckptPeriod: 250, consTimeout: 2 * time.Second,
		coinsPerProxy: 30000, rate: 200,
	},
	{
		name:        "order_wan",
		persistence: core.PersistenceWeak, storage: smr.StorageMemory,
		verify: smr.VerifyNone, netDelay: 5 * time.Millisecond,
		maxBatch: 64, consTimeout: 2 * time.Second,
		coinsPerProxy: 60000, rate: 1000,
	},
	{
		name:        "readmix",
		persistence: core.PersistenceWeak, storage: smr.StorageSync, disk: true,
		verify: smr.VerifyParallel, netDelay: time.Millisecond,
		consTimeout:   2 * time.Second,
		coinsPerProxy: 15000, readShare: 0.5, rate: 200,
	},
	{
		name:        "crash_recover",
		persistence: core.PersistenceStrong, storage: smr.StorageSync, disk: true,
		verify: smr.VerifyParallel, netDelay: time.Millisecond,
		ckptPeriod: 500, consTimeout: 500 * time.Millisecond,
		coinsPerProxy: 30000, rate: 300, fault: true,
	},
}

func findWorkload(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// hooks are the wrappers a traced pass installs; all nil on an untraced one.
type hooks struct {
	wrapApp      func(svc *coin.Service) core.Application
	wrapEndpoint func(id int32, ep transport.Endpoint) transport.Endpoint
}

// proxyState is one client connection plus the bookkeeping the audit needs.
type proxyState struct {
	proxy  *client.Proxy
	stream *opStream

	mu        sync.Mutex
	submitted int           // SPENDs handed to the proxy so far
	acked     int           // SPENDs acknowledged OK so far
	ackedOut  []coin.CoinID // output coin of every acknowledged SPEND
}

// deployment is one built cluster with its clients.
type deployment struct {
	w       *workload
	cluster *core.Cluster
	proxies [numProxies]*proxyState
	// disks are the devices DiskFactory handed out, in order: replica i's log
	// device is disks[2i], its snapshot device disks[2i+1].
	disks   []*storage.SimDisk
	initial uint64 // each proxy's balance at genesis
	// ref is the replica whose counters, wrappers and log the per-layer
	// metrics and the chain audit read: replica 0, except under the fault
	// schedule, where it is a replica the schedule leaves alone.
	ref int32
	// topo orders the fault schedule's Crash and Recover calls against the
	// pollers that walk the cluster's nodes.
	topo sync.RWMutex
}

// deploy builds the workload's cluster from nothing — keys, genesis, the
// prepopulated UTXO set on every replica, the fabric — connects the two
// proxies, and returns once a first SPEND per proxy has been acknowledged.
// n overrides the replica count (the single-node baseline probe passes 1).
func deploy(w *workload, seed int64, n int, h hooks) (*deployment, error) {
	ids := newIdentities(seed)
	d := &deployment{w: w, initial: uint64(w.coinsPerProxy) * coinValue}

	var mu sync.Mutex
	var coins [numProxies][]coin.CoinID
	cfg := core.ClusterConfig{
		N: n,
		AppFactory: func() core.Application {
			svc := coin.NewService(nil)
			c := ids.prepopulate(svc, w.coinsPerProxy)
			mu.Lock()
			coins = c
			mu.Unlock()
			if h.wrapApp != nil {
				return h.wrapApp(svc)
			}
			return svc
		},
		Persistence:      w.persistence,
		Storage:          w.storage,
		Verify:           w.verify,
		Pipeline:         true,
		CheckpointPeriod: w.ckptPeriod,
		MaxBatch:         w.maxBatch,
		ConsensusTimeout: w.consTimeout,
		NetLatency:       w.netDelay,
		TCPWire:          w.tcp && n > 1,
		WrapEndpoint:     h.wrapEndpoint,
		ChainID:          fmt.Sprintf("bench-%s-%d", w.name, seed),
	}
	if w.disk {
		cfg.DiskFactory = func() *storage.SimDisk {
			disk := storage.HDDProfile()
			mu.Lock()
			d.disks = append(d.disks, disk)
			mu.Unlock()
			return disk
		}
	}
	cluster, err := core.NewCluster(cfg)
	if err != nil {
		return nil, fmt.Errorf("%s: build cluster: %w", w.name, err)
	}
	d.cluster = cluster
	if w.fault {
		d.ref = (cluster.Leader() + 1) % int32(n)
	}

	members := cluster.Members()
	for p := range d.proxies {
		d.proxies[p] = &proxyState{
			proxy:  client.New(cluster.ClientEndpoint(), ids.keys[p], members, client.WithTimeout(invokeTimeout)),
			stream: newOpStream(ids, seed, p, coins[p], w.readShare),
		}
	}
	for _, ps := range d.proxies {
		if err := d.warmUp(ps); err != nil {
			d.stop()
			return nil, fmt.Errorf("%s: first op: %w", w.name, err)
		}
	}
	return d, nil
}

// warmUp pushes the stream's next SPEND through the proxy synchronously.
func (d *deployment) warmUp(ps *proxyState) error {
	op, err := ps.stream.next()
	for err == nil && op.kind != opSpend {
		op, err = ps.stream.next()
	}
	if err != nil {
		return err
	}
	ps.submitted++
	res, err := ps.proxy.Invoke(context.Background(), op.payload)
	if err != nil {
		return err
	}
	if code, _, perr := coin.ParseResult(res); perr != nil || code != coin.ResultOK {
		return fmt.Errorf("result code %d (%v)", code, perr)
	}
	ps.acked++
	ps.ackedOut = append(ps.ackedOut, op.out)
	return nil
}

func (d *deployment) stop() {
	for _, ps := range d.proxies {
		if ps != nil {
			ps.proxy.Close()
		}
	}
	d.cluster.Stop()
}

// liveNodes lists the replicas that are currently running.
func (d *deployment) liveNodes() []*core.ClusterNode {
	var out []*core.ClusterNode
	for id := int32(0); int(id) < len(d.cluster.Nodes); id++ {
		if cn := d.cluster.Nodes[id]; cn != nil && cn.Node != nil && !cn.Crashed() {
			out = append(out, cn)
		}
	}
	return out
}

// coinService unwraps a replica's application to the coin service behind it.
func coinService(app core.Application) *coin.Service {
	switch a := app.(type) {
	case *coin.Service:
		return a
	case *timedApp:
		return a.svc
	}
	return nil
}
