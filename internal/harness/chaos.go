package harness

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"sync/atomic"
	"time"

	"smartchain/internal/blockchain"
	"smartchain/internal/chaos"
	"smartchain/internal/client"
	"smartchain/internal/coin"
	"smartchain/internal/core"
	"smartchain/internal/smr"
	"smartchain/internal/workload"
)

// ChaosOptions scales a chaos run: a replicated coin deployment under
// sustained client load while a fault schedule — explicit or generated from
// Seed — injects partitions, crashes, loss, delay, an equivocating leader,
// and (optionally) membership churn.
type ChaosOptions struct {
	Seed     int64         // schedule seed (default 1); ignored when Schedule is set
	N        int           // genesis replicas (default 4)
	Duration time.Duration // fault window (default 15 s)
	Clients  int           // closed-loop clients sustaining load (default 8)
	Churn    bool          // interleave generated joins/leaves
	Sample   time.Duration // goodput sampling interval (default 250 ms)
	// Schedule overrides generation: the exact fault timeline to play.
	Schedule *chaos.Schedule
	Budgets  chaos.Budgets
}

func (o ChaosOptions) defaults() ChaosOptions {
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.N < 4 {
		o.N = 4
	}
	if o.Duration <= 0 {
		o.Duration = 15 * time.Second
	}
	if o.Clients <= 0 {
		o.Clients = 8
	}
	if o.Sample <= 0 {
		o.Sample = 250 * time.Millisecond
	}
	return o
}

// ChaosReport is one run's verdict: the goodput-under-adversity timeline,
// the fault events as they actually fired, the safety/liveness counters,
// and the invariant violations (empty = the run honoured the contract).
type ChaosReport struct {
	Seed          int64
	Steps         int
	Confirmed     int64 // client-confirmed operations
	Errors        int64 // client invocations that failed or timed out
	ChainTxs      int64 // transactions in the verified survivor chain
	FinalHeight   int64
	EpochChanges  int64
	Equivocations int64 // proposals sent with a forked value
	Muted         int64 // proposals withheld by silent replicas
	Survivors     int   // live members compared for state identity
	Timeline      []chaos.Sample
	Events        []chaos.Event
	Violations    []string
	NumCPU        int
}

// Chaos runs one scheduled fault-injection campaign and judges it against
// the invariant contract: no decided instance lost (the survivor chain
// verifies from genesis and covers every confirmed operation), bit-identical
// state across survivors, bounded recovery after each fault clears, and a
// goodput floor (dips allowed, flatlines past the budget are violations).
func Chaos(opts ChaosOptions) (ChaosReport, error) {
	opts = opts.defaults()
	rep := ChaosReport{Seed: opts.Seed, NumCPU: runtime.NumCPU()}
	label := fmt.Sprintf("chaos-%d", opts.Seed)
	minters := workload.MinterKeys(label, opts.Clients)

	byz := chaos.NewByzantine()
	cluster, err := core.NewCluster(core.ClusterConfig{
		N:                opts.N,
		AppFactory:       func() core.Application { return coin.NewService(minters) },
		Persistence:      core.PersistenceWeak,
		Storage:          smr.StorageMemory,
		Verify:           smr.VerifyNone,
		Pipeline:         true,
		CheckpointPeriod: 0, // keep the whole chain cached for end-of-run verification
		MaxBatch:         64,
		Minters:          minters,
		ConsensusTimeout: time.Second,
		ChainID:          label,
		WrapEndpoint:     byz.Endpoint,
	})
	if err != nil {
		return rep, err
	}
	defer cluster.Stop()

	sched := chaos.Generate(chaos.GenConfig{
		Duration: opts.Duration,
		Replicas: genesisIDs(opts.N),
		Churn:    opts.Churn,
	}, opts.Seed)
	if opts.Schedule != nil {
		sched = *opts.Schedule
		rep.Seed = sched.Seed
	}
	rep.Steps = len(sched.Steps)

	// Closed-loop client fleet. Timeouts are short so a client blocked on a
	// stalled instance abandons it and probes again — goodput then reflects
	// the cluster, not the fleet's patience.
	var confirmed, failures atomic.Int64
	stop := startClients(cluster, opts.Clients, 4*time.Second,
		func(i int) workload.Script { return workload.NewCoinScript(label, int64(i)) },
		core.WrapAppOp,
		func(p *client.Proxy, _ time.Time, err error) {
			if err != nil {
				failures.Add(1)
				p.SetMembers(cluster.Members()) // membership may have churned
				return
			}
			confirmed.Add(1)
		})
	defer stop()

	// Warm up: the schedule clock starts only once traffic demonstrably
	// flows, so t=0 of the timeline means "healthy cluster under load".
	warmDeadline := time.Now().Add(30 * time.Second)
	for confirmed.Load() == 0 {
		if time.Now().After(warmDeadline) {
			return rep, fmt.Errorf("chaos: no confirmed operations during warm-up")
		}
		time.Sleep(10 * time.Millisecond)
	}

	checker := chaos.NewChecker(confirmed.Load, opts.Sample)
	checker.Start()
	env := &chaos.Env{
		Net:          cluster.Net,
		Cluster:      cluster,
		Byz:          byz,
		Leader:       cluster.Leader,
		ChurnTimeout: 20 * time.Second,
	}
	rep.Events = chaos.Run(context.Background(), env, sched)

	// Drain: keep load on and keep sampling past the last fault's full
	// recovery budget, so the checker can actually judge the tail — a
	// timeline cut at the last clear would vacuously pass every recovery
	// deadline it never observed.
	time.Sleep(opts.Budgets.RecoveryDeadline() + 2*time.Second)
	checker.StopSampling()
	rep.Timeline = checker.Timeline()
	stop()
	rep.Confirmed = confirmed.Load()
	rep.Errors = failures.Load()
	rep.Violations = checker.Analyze(rep.Events, opts.Budgets)

	// Safety side of the contract: survivors converge to one height with
	// bit-identical application state, and the chain verifies from genesis
	// covering every confirmed operation (no decided instance lost).
	survivors := liveNodes(cluster)
	rep.Survivors = len(survivors)
	if len(survivors) == 0 {
		rep.Violations = append(rep.Violations, "no live replicas survived the schedule")
		return rep, nil
	}
	var maxH int64
	for _, cn := range survivors {
		if h := cn.Node.Ledger().Height(); h > maxH {
			maxH = h
		}
	}
	if err := cluster.WaitHeight(maxH, opts.Budgets.SettleBudget()); err != nil {
		rep.Violations = append(rep.Violations, fmt.Sprintf("survivors did not converge: %v", err))
	}
	ref := survivors[0]
	refState := ref.App.Snapshot()
	rep.FinalHeight = ref.Node.Ledger().Height()
	for _, cn := range survivors[1:] {
		if cn.Node.Ledger().Height() != rep.FinalHeight {
			rep.Violations = append(rep.Violations, fmt.Sprintf("replica %d at height %d, replica %d at %d",
				cn.ID, cn.Node.Ledger().Height(), ref.ID, rep.FinalHeight))
			continue
		}
		if !bytes.Equal(cn.App.Snapshot(), refState) {
			rep.Violations = append(rep.Violations, fmt.Sprintf("replica %d state diverges from replica %d", cn.ID, ref.ID))
		}
	}
	gb := blockchain.GenesisBlock(&cluster.Genesis)
	blocks := append([]blockchain.Block{gb}, ref.Node.Ledger().CachedBlocks()...)
	sum, err := blockchain.VerifyChain(blocks, blockchain.VerifyOptions{})
	if err != nil {
		rep.Violations = append(rep.Violations, fmt.Sprintf("survivor chain does not verify: %v", err))
	} else {
		rep.ChainTxs = int64(sum.Transactions)
		if rep.ChainTxs < rep.Confirmed {
			rep.Violations = append(rep.Violations, fmt.Sprintf("decided instances lost: chain holds %d txs, clients confirmed %d",
				rep.ChainTxs, rep.Confirmed))
		}
	}
	for _, cn := range survivors {
		if ec := cn.Node.Stats().EpochChanges; ec > rep.EpochChanges {
			rep.EpochChanges = ec
		}
	}
	rep.Equivocations = byz.Equivocations()
	rep.Muted = byz.Muted()
	return rep, nil
}

// genesisIDs is 0..n-1.
func genesisIDs(n int) []int32 {
	ids := make([]int32, n)
	for i := range ids {
		ids[i] = int32(i)
	}
	return ids
}

// liveNodes returns the survivors — started, not crashed, not retired — in
// ascending id order.
func liveNodes(c *core.Cluster) []*core.ClusterNode {
	var out []*core.ClusterNode
	for _, id := range sortedIDs(c) {
		cn := c.Nodes[id]
		if cn.Node != nil && !cn.Crashed() && !cn.Node.Retired() {
			out = append(out, cn)
		}
	}
	return out
}

func sortedIDs(c *core.Cluster) []int32 {
	ids := make([]int32, 0, len(c.Nodes))
	for id := range c.Nodes {
		ids = append(ids, id)
	}
	for i := 1; i < len(ids); i++ {
		for j := i; j > 0 && ids[j] < ids[j-1]; j-- {
			ids[j], ids[j-1] = ids[j-1], ids[j]
		}
	}
	return ids
}
