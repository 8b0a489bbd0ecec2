package harness

import (
	"fmt"
	"sync/atomic"
	"time"

	"smartchain/internal/client"
	"smartchain/internal/coin"
	"smartchain/internal/core"
	"smartchain/internal/crypto"
	"smartchain/internal/smr"
	"smartchain/internal/workload"
)

// Fig7Point is one sample of the Fig. 7 timeline: throughput at time T with
// an optional event annotation.
type Fig7Point struct {
	T          time.Duration
	TxPerSec   float64
	Event      string
	LiveHeight int64
}

// Fig7Options scales the Fig. 7 run. The paper runs 600 s with events at
// 120/240/360/480 s and 600 clients over a 1 GB (8 M UTXO) state; defaults
// here scale the schedule down while keeping the same event sequence.
type Fig7Options struct {
	RunFor     time.Duration // total run (default 24 s)
	Clients    int           // closed-loop clients (default 120)
	PrepopUTXO int           // UTXOs preloaded per replica (default 100k)
	Checkpoint int64         // checkpoint period in blocks (default 200)
	Sample     time.Duration // sampling interval (default 500 ms)
}

func (o Fig7Options) defaults() Fig7Options {
	if o.RunFor <= 0 {
		o.RunFor = 24 * time.Second
	}
	if o.Clients <= 0 {
		o.Clients = 120
	}
	if o.PrepopUTXO < 0 {
		o.PrepopUTXO = 0
	} else if o.PrepopUTXO == 0 {
		o.PrepopUTXO = 100_000
	}
	if o.Checkpoint <= 0 {
		o.Checkpoint = 200
	}
	if o.Sample <= 0 {
		o.Sample = 500 * time.Millisecond
	}
	return o
}

// Fig7 reproduces the paper's throughput-evolution experiment (strong
// variant, signatures + synchronous writes): a replica joins at 0.2 T, one
// crashes at 0.4 T, recovers at 0.6 T, and the joiner leaves at 0.8 T, with
// checkpoints firing on their block schedule throughout.
func Fig7(opts Fig7Options) ([]Fig7Point, error) {
	opts = opts.defaults()
	label := "fig7"
	minters := workload.MinterKeys(label, opts.Clients)
	prepopOwner := crypto.SeededKeyPair(label+"/prepop", 0)

	cluster, err := core.NewCluster(core.ClusterConfig{
		N: 4,
		AppFactory: func() core.Application {
			svc := coin.NewService(minters)
			if opts.PrepopUTXO > 0 {
				svc.Prepopulate(prepopOwner.Public(), opts.PrepopUTXO, 1)
			}
			return svc
		},
		Persistence:      core.PersistenceStrong,
		Storage:          smr.StorageSync,
		Verify:           smr.VerifyParallel,
		Pipeline:         true,
		CheckpointPeriod: opts.Checkpoint,
		MaxBatch:         512,
		ConsensusTimeout: 2 * time.Second,
		ChainID:          label,
	})
	if err != nil {
		return nil, err
	}
	defer cluster.Stop()

	var completed atomic.Int64
	stop := startClients(cluster, opts.Clients, invokeTimeout,
		func(i int) workload.Script { return workload.NewCoinScript(label, int64(i)) },
		core.WrapAppOp,
		func(p *client.Proxy, _ time.Time, err error) {
			if err != nil {
				p.SetMembers(cluster.Members()) // membership may have changed under us
				return
			}
			completed.Add(1)
		})
	defer stop()

	// Event schedule, proportional to the paper's 600-second run.
	events := make(chan string, 8)
	T := opts.RunFor
	schedule := []struct {
		at  time.Duration
		tag string
		fn  func() error
	}{
		{T * 2 / 10, "replica 4 joins", func() error { return cluster.Join(4, T/2) }},
		{T * 4 / 10, "replica 3 crashes", func() error { return cluster.Crash(3) }},
		{T * 6 / 10, "replica 3 recovers", func() error { return cluster.Recover(3) }},
		{T * 8 / 10, "replica 4 leaves", func() error { return cluster.Leave(4, T/2) }},
	}
	for _, ev := range schedule {
		ev := ev
		time.AfterFunc(ev.at, func() {
			tag := ev.tag
			if err := ev.fn(); err != nil {
				tag = fmt.Sprintf("%s (failed: %v)", tag, err)
			}
			select {
			case events <- tag:
			default:
			}
		})
	}

	// Sample the timeline.
	var points []Fig7Point
	start := time.Now()
	ticker := time.NewTicker(opts.Sample)
	defer ticker.Stop()
	last := int64(0)
	lastAt := start
	deadline := time.After(T)
loop:
	for {
		select {
		case <-ticker.C:
			now := time.Now()
			cur := completed.Load()
			dt := now.Sub(lastAt).Seconds()
			p := Fig7Point{T: now.Sub(start), LiveHeight: cluster.Nodes[0].Node.Ledger().Height()}
			if dt > 0 {
				p.TxPerSec = float64(cur-last) / dt
			}
			select {
			case ev := <-events:
				p.Event = ev
			default:
			}
			points = append(points, p)
			last, lastAt = cur, now
		case <-deadline:
			break loop
		}
	}
	return points, nil
}
