package harness

import (
	"fmt"
	"time"

	"smartchain/internal/baselines"
	"smartchain/internal/coin"
	"smartchain/internal/core"
	"smartchain/internal/crypto"
	"smartchain/internal/smr"
	"smartchain/internal/storage"
	"smartchain/internal/workload"
)

// ExpOptions scales experiments: CI-friendly defaults, paper-scale when the
// flags ask for it.
type ExpOptions struct {
	Clients  int
	Warmup   time.Duration
	Measure  time.Duration
	MaxBatch int
	// Disk selects the storage device model (nil = HDD profile).
	Disk func() *storage.SimDisk
	// Depths is the set of consensus ordering windows W that Fig6 sweeps
	// its SMARTCHAIN rows over (the window is an axis of the evaluation,
	// not a fixed constant). Empty means {0}, i.e. the node default.
	Depths []int
}

// Defaults fills unset fields.
func (o ExpOptions) Defaults() ExpOptions {
	if o.Clients <= 0 {
		o.Clients = 120
	}
	if o.Warmup <= 0 {
		o.Warmup = 500 * time.Millisecond
	}
	if o.Measure <= 0 {
		o.Measure = 2 * time.Second
	}
	if o.MaxBatch <= 0 {
		o.MaxBatch = 512
	}
	if o.Disk == nil {
		o.Disk = storage.HDDProfile
	}
	if len(o.Depths) == 0 {
		o.Depths = []int{0}
	}
	return o
}

// depthLabel renders a window depth for experiment labels.
func depthLabel(w int) string {
	if w <= 0 {
		return fmt.Sprintf("W=%d", core.DefaultPipelineDepth)
	}
	return fmt.Sprintf("W=%d", w)
}

// Row is one labeled measurement.
type Row struct {
	Label      string
	Throughput float64
	Std        float64
	MeanLat    time.Duration
	P99Lat     time.Duration
	// Drops counts outbound sends the transport refused during the run.
	// Nonzero means the numbers were measured on a degraded cluster.
	Drops int64
}

func (r Row) String() string {
	s := fmt.Sprintf("%-28s %9.0f ± %6.0f tx/s   lat %8s (p99 %8s)",
		r.Label, r.Throughput, r.Std, r.MeanLat.Round(time.Millisecond), r.P99Lat.Round(time.Millisecond))
	if r.Drops > 0 {
		s += fmt.Sprintf("   [%d dropped sends]", r.Drops)
	}
	return s
}

// coinAppFactory builds per-replica coin services authorizing all workload
// clients as minters.
func coinAppFactory(label string, clients int) (func() core.Application, []crypto.PublicKey) {
	minters := workload.MinterKeys(label, clients)
	return func() core.Application { return coin.NewService(minters) }, minters
}

func coinExecFactory(label string, clients int) func() baselines.Executor {
	minters := workload.MinterKeys(label, clients)
	return func() baselines.Executor { return coin.NewService(minters) }
}

// runSmartChain measures one SMARTCHAIN configuration. depth is the
// ordering window W (0 = node default).
func runSmartChain(label string, n int, persistence core.Persistence, storageMode smr.StorageMode,
	verify smr.VerifyMode, pipeline bool, mintOnly bool, depth int, o ExpOptions) (Row, error) {
	appFactory, _ := coinAppFactory(label, o.Clients)
	cluster, err := core.NewCluster(core.ClusterConfig{
		N:                n,
		AppFactory:       appFactory,
		Persistence:      persistence,
		Storage:          storageMode,
		Verify:           verify,
		Pipeline:         pipeline,
		PipelineDepth:    depth,
		DiskFactory:      o.Disk,
		MaxBatch:         o.MaxBatch,
		ConsensusTimeout: 2 * time.Second,
		ChainID:          label,
	})
	if err != nil {
		return Row{}, err
	}
	defer cluster.Stop()

	res := Run(cluster, Options{
		Clients:  o.Clients,
		Warmup:   o.Warmup,
		Duration: o.Measure,
		Scripts: func(i int) workload.Script {
			if mintOnly {
				return workload.NewMintOnlyScript(label, int64(i))
			}
			return workload.NewCoinScript(label, int64(i))
		},
		WrapOp: core.WrapAppOp,
	})
	return Row{Label: label, Throughput: res.Throughput, Std: res.ThroughputStd,
		MeanLat: res.MeanLatency, P99Lat: res.P99Latency}, nil
}

// runBaseline measures one baseline configuration.
func runBaseline(label string, kind baselines.Kind, n int, storageMode smr.StorageMode,
	verify smr.VerifyMode, o ExpOptions) (Row, error) {
	cluster, err := baselines.NewCluster(baselines.ClusterConfig{
		Kind:        kind,
		N:           n,
		AppFactory:  coinExecFactory(label, o.Clients),
		VerifyOp:    coin.NewService(nil).VerifyOp,
		Verify:      verify,
		Storage:     storageMode,
		DiskFactory: o.Disk,
		MaxBatch:    o.MaxBatch,
		Timeout:     2 * time.Second,
		GossipDelay: time.Millisecond,
		ChainID:     label,
	})
	if err != nil {
		return Row{}, err
	}
	defer cluster.Stop()

	wrap := func(b []byte) []byte { return b }
	endorse := kind == baselines.KindFabric
	res := Run(cluster, Options{
		Clients:  o.Clients,
		Warmup:   o.Warmup,
		Duration: o.Measure,
		Scripts: func(i int) workload.Script {
			return workload.NewCoinScript(label, int64(i))
		},
		WrapOp: func(op []byte) []byte {
			if !endorse {
				return wrap(op)
			}
			// The endorsement phase: E speculative executions + round
			// trips before ordering (charged here, at the client).
			tx, err := baselines.FabricEndorse(cluster.EndorserKeys, 2, op, []crypto.Hash{crypto.HashBytes(op[:min(16, len(op))])})
			if err != nil {
				return op
			}
			return tx.Encode()
		},
	})
	return Row{Label: label, Throughput: res.Throughput, Std: res.ThroughputStd,
		MeanLat: res.MeanLatency, P99Lat: res.P99Latency,
		Drops: cluster.DroppedSends()}, nil
}

// TableI reproduces Table I: SMaRtCoin average throughput under different
// signature-verification and storage strategies, plus the Dura-SMaRt
// durability layer. The naive configurations run SMARTCHAIN's node with the
// pipeline off (execute → write block → sync → reply, inside the delivery
// path), which is exactly the SMaRtCoin-on-BFT-SMaRt architecture of §IV-A.
func TableI(o ExpOptions) ([]Row, error) {
	o = o.Defaults()
	type cfg struct {
		name     string
		verify   smr.VerifyMode
		storage  smr.StorageMode
		mintOnly bool
	}
	var rows []Row
	for _, tx := range []struct {
		name     string
		mintOnly bool
	}{{"MINT", true}, {"SPEND", false}} {
		for _, c := range []cfg{
			{"seq-verify/sync", smr.VerifySequential, smr.StorageSync, tx.mintOnly},
			{"seq-verify/async", smr.VerifySequential, smr.StorageAsync, tx.mintOnly},
			{"par-verify/sync", smr.VerifyParallel, smr.StorageSync, tx.mintOnly},
			{"par-verify/async", smr.VerifyParallel, smr.StorageAsync, tx.mintOnly},
		} {
			label := fmt.Sprintf("t1/%s/%s", tx.name, c.name)
			row, err := runSmartChain(label, 4, core.PersistenceWeak, c.storage, c.verify, false, tx.mintOnly, 0, o)
			if err != nil {
				return rows, err
			}
			rows = append(rows, row)
		}
		label := fmt.Sprintf("t1/%s/dura-smart", tx.name)
		row, err := runBaseline(label, baselines.KindDuraSMaRt, 4, smr.StorageSync, smr.VerifyParallel, o)
		if err != nil {
			return rows, err
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// Fig6 reproduces Figure 6: throughput for consortium sizes n ∈ sizes,
// across {strong, weak, Dura-SMaRt} × {Si+Sy, Si, Sy, N}. Si toggles
// signature verification, Sy toggles synchronous ledger writes.
func Fig6(sizes []int, o ExpOptions) ([]Row, error) {
	o = o.Defaults()
	type cfg struct {
		name    string
		verify  smr.VerifyMode
		storage smr.StorageMode
	}
	configs := []cfg{
		{"Si+Sy", smr.VerifyParallel, smr.StorageSync},
		{"Si", smr.VerifyParallel, smr.StorageAsync},
		{"Sy", smr.VerifyNone, smr.StorageSync},
		{"N", smr.VerifyNone, smr.StorageAsync},
	}
	var rows []Row
	for _, n := range sizes {
		for _, c := range configs {
			for _, sys := range []string{"strong", "weak", "dura"} {
				if sys == "dura" {
					// The baseline has no ordering window; measure it once
					// per (n, config) regardless of the depth sweep.
					label := fmt.Sprintf("f6/n%d/%s/%s", n, sys, c.name)
					row, err := runBaseline(label, baselines.KindDuraSMaRt, n, c.storage, c.verify, o)
					if err != nil {
						return rows, err
					}
					rows = append(rows, row)
					continue
				}
				for _, w := range o.Depths {
					label := fmt.Sprintf("f6/n%d/%s/%s/%s", n, sys, c.name, depthLabel(w))
					persistence := core.PersistenceStrong
					if sys == "weak" {
						persistence = core.PersistenceWeak
					}
					row, err := runSmartChain(label, n, persistence, c.storage, c.verify, true, false, w, o)
					if err != nil {
						return rows, err
					}
					rows = append(rows, row)
				}
			}
		}
	}
	return rows, nil
}

// TableII reproduces Table II: SMARTCHAIN strong and weak against the
// Tendermint-style and Fabric-style baselines, all with signatures and
// maximum durability, n = 4.
func TableII(o ExpOptions) ([]Row, error) {
	o = o.Defaults()
	var rows []Row
	row, err := runSmartChain("t2/smartchain-strong", 4, core.PersistenceStrong, smr.StorageSync, smr.VerifyParallel, true, false, 0, o)
	if err != nil {
		return rows, err
	}
	rows = append(rows, row)
	row, err = runSmartChain("t2/smartchain-weak", 4, core.PersistenceWeak, smr.StorageSync, smr.VerifyParallel, true, false, 0, o)
	if err != nil {
		return rows, err
	}
	rows = append(rows, row)
	row, err = runBaseline("t2/tendermint", baselines.KindTendermint, 4, smr.StorageSync, smr.VerifyParallel, o)
	if err != nil {
		return rows, err
	}
	rows = append(rows, row)
	row, err = runBaseline("t2/fabric", baselines.KindFabric, 4, smr.StorageSync, smr.VerifyParallel, o)
	if err != nil {
		return rows, err
	}
	rows = append(rows, row)
	return rows, nil
}

// AblationPipeline isolates SMARTCHAIN's pipeline decoupling (Algorithm 1's
// parallel log+execute and group commit) at a fixed configuration — the
// design choice behind the 8× application speedup.
func AblationPipeline(o ExpOptions) ([]Row, error) {
	o = o.Defaults()
	var rows []Row
	for _, p := range []struct {
		name     string
		pipeline bool
	}{{"pipeline-on", true}, {"pipeline-off", false}} {
		row, err := runSmartChain("ablate/"+p.name, 4, core.PersistenceWeak, smr.StorageSync, smr.VerifyParallel, p.pipeline, false, 0, o)
		if err != nil {
			return rows, err
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// Fig8Point measures the replica-update (state transfer replay) time for a
// chain of `blocks` blocks with a checkpoint every `ckptPeriod` blocks
// (0 = no checkpoints): the receiving replica restores the latest snapshot
// and re-executes only the blocks after it (paper Fig. 8). replayed is how
// many blocks that was.
func Fig8Point(blocks int, ckptPeriod int, txPerBlock int) (elapsed time.Duration, replayed int, err error) {
	label := fmt.Sprintf("f8/%d/%d", blocks, ckptPeriod)
	chain, snapshots, err := buildChain(label, blocks, ckptPeriod, txPerBlock)
	if err != nil {
		return 0, 0, err
	}

	// The joining replica's work: restore the newest snapshot, then decode
	// and execute every block after it.
	start := time.Now()
	fresh := coin.NewService(workload.MinterKeys(label, 1))
	from := 0
	if ckptPeriod > 0 {
		last := (blocks / ckptPeriod) * ckptPeriod
		if last > 0 {
			if err := fresh.Restore(snapshots[last]); err != nil {
				return 0, 0, err
			}
			from = last
		}
	}
	for i := from; i < blocks; i++ {
		batch, err := smr.DecodeBatch(chain[i])
		if err != nil {
			return 0, 0, err
		}
		fresh.ExecuteBatch(smr.BatchContext{}, batch.Requests)
	}
	return time.Since(start), blocks - from, nil
}

// buildChain fabricates `blocks` encoded batches of txPerBlock MINT
// transactions, executing them against a reference service and snapshotting
// at checkpoint boundaries.
func buildChain(label string, blocks, ckptPeriod, txPerBlock int) ([][]byte, map[int][]byte, error) {
	minterKeys := workload.MinterKeys(label, 1)
	svc := coin.NewService(minterKeys)
	minter := crypto.SeededKeyPair(label+"/client", 0)

	chain := make([][]byte, 0, blocks)
	snapshots := make(map[int][]byte)
	nonce := uint64(0)
	for b := 1; b <= blocks; b++ {
		reqs := make([]smr.Request, txPerBlock)
		for i := 0; i < txPerBlock; i++ {
			nonce++
			tx, err := coin.NewMint(minter, nonce, 1)
			if err != nil {
				return nil, nil, err
			}
			req, err := smr.NewSignedRequest(1, nonce, tx.Encode(), minter)
			if err != nil {
				return nil, nil, err
			}
			reqs[i] = req
		}
		batch := smr.Batch{Requests: reqs}
		data := batch.Encode()
		chain = append(chain, data)
		svc.ExecuteBatch(smr.BatchContext{}, reqs)
		if ckptPeriod > 0 && b%ckptPeriod == 0 {
			snapshots[b] = svc.Snapshot()
		}
	}
	return chain, snapshots, nil
}
