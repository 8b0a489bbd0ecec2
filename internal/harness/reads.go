package harness

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"smartchain/internal/client"
	"smartchain/internal/coin"
	"smartchain/internal/core"
	"smartchain/internal/crypto"
	"smartchain/internal/smr"
)

// ReadsPoint is one row of the read-consistency comparison: a read mode's
// throughput and latency, plus the consensus instances the measured read
// phase consumed — the accounting that separates consensus-free reads from
// ordered ones.
type ReadsPoint struct {
	Label      string
	Throughput float64
	Std        float64
	MeanLat    time.Duration
	P99Lat     time.Duration
	Instances  int64
	Errors     int64
}

func (p ReadsPoint) String() string {
	return fmt.Sprintf("%-28s %9.0f ± %6.0f reads/s   lat %8s (p99 %8s)   instances %d",
		p.Label, p.Throughput, p.Std, p.MeanLat.Round(time.Millisecond),
		p.P99Lat.Round(time.Millisecond), p.Instances)
}

// readsPoint measures one read mode: every client mints once (so a session
// floor exists to honor), then issues closed-loop balance reads for the
// measured window. Instances are sampled around the read phase only.
func readsPoint(label, mode string, latency time.Duration, o ExpOptions) (ReadsPoint, error) {
	appFactory, _ := coinAppFactory(label, o.Clients)
	cluster, err := core.NewCluster(core.ClusterConfig{
		N:                4,
		AppFactory:       appFactory,
		Persistence:      core.PersistenceWeak,
		Storage:          smr.StorageMemory,
		Verify:           smr.VerifyNone,
		Pipeline:         true,
		PipelineDepth:    8,
		MaxBatch:         64,
		ConsensusTimeout: 2 * time.Second,
		NetLatency:       latency,
		ChainID:          label,
	})
	if err != nil {
		return ReadsPoint{}, err
	}
	defer cluster.Stop()

	ctx := context.Background()
	proxies := make([]*client.Proxy, o.Clients)
	for i := range proxies {
		key := crypto.SeededKeyPair(label+"/client", int64(i))
		proxies[i] = client.New(cluster.ClientEndpoint(), key, cluster.Members(),
			client.WithTimeout(30*time.Second))
	}
	defer func() {
		for _, p := range proxies {
			p.Close()
		}
	}()

	// Write phase: one mint per client. Its reply teaches each proxy a
	// session read floor, which every unordered read is then held to.
	for i, p := range proxies {
		key := crypto.SeededKeyPair(label+"/client", int64(i))
		tx, err := coin.NewMint(key, 1, 100)
		if err != nil {
			return ReadsPoint{}, err
		}
		if _, err := p.Invoke(ctx, core.WrapAppOp(tx.Encode())); err != nil {
			return ReadsPoint{}, fmt.Errorf("%s: warm mint %d: %w", label, i, err)
		}
	}
	time.Sleep(200 * time.Millisecond) // let the tail of the write phase settle

	instancesBefore := clusterInstances(cluster)
	var (
		completed atomic.Int64
		errs      atomic.Int64
		measuring atomic.Bool
		stop      = make(chan struct{})
		wg        sync.WaitGroup
		latMu     sync.Mutex
		latencies []time.Duration
	)
	for i, p := range proxies {
		key := crypto.SeededKeyPair(label+"/client", int64(i))
		query := core.WrapAppOp(coin.EncodeBalanceQuery(key.Public()))
		proxy := p
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				start := time.Now()
				var err error
				if mode == "ordered" {
					_, err = proxy.Invoke(ctx, query)
				} else {
					_, err = proxy.InvokeUnordered(ctx, query)
				}
				if err != nil {
					errs.Add(1)
					continue
				}
				if measuring.Load() {
					completed.Add(1)
					d := time.Since(start)
					latMu.Lock()
					if len(latencies) < 1<<20 {
						latencies = append(latencies, d)
					}
					latMu.Unlock()
				}
			}
		}()
	}

	time.Sleep(o.Warmup)
	measuring.Store(true)
	sampleEvery := 250 * time.Millisecond
	ticker := time.NewTicker(sampleEvery)
	var samples []float64
	lastCount, lastAt := completed.Load(), time.Now()
	deadline := time.After(o.Measure)
sampling:
	for {
		select {
		case <-ticker.C:
			now := time.Now()
			cur := completed.Load()
			if dt := now.Sub(lastAt).Seconds(); dt > 0 {
				samples = append(samples, float64(cur-lastCount)/dt)
			}
			lastCount, lastAt = cur, now
		case <-deadline:
			break sampling
		}
	}
	ticker.Stop()
	measuring.Store(false)
	close(stop)
	wg.Wait()

	p := ReadsPoint{
		Label:     label,
		Instances: clusterInstances(cluster) - instancesBefore,
		Errors:    errs.Load(),
	}
	p.Throughput, p.Std = TrimmedMean(samples, 0.2)
	p.MeanLat, p.P99Lat = latencyStats(latencies)
	return p, nil
}

// Reads compares the two read modes on identical W=8 deployments:
// read-your-writes unordered reads (session floor, parked serving, ordered
// fallback) and fully ordered reads. Session reads must consume zero
// consensus instances during the read phase and ordered reads more than
// zero — a violation fails the run, which is what the CI smoke gate keys
// on.
func Reads(latency time.Duration, o ExpOptions) ([]ReadsPoint, error) {
	o = o.Defaults()
	var points []ReadsPoint
	for _, mode := range []string{"read-your-writes", "ordered"} {
		p, err := readsPoint("reads/"+mode, mode, latency, o)
		if err != nil {
			return points, err
		}
		points = append(points, p)
		if mode != "ordered" && p.Instances > 0 {
			return points, fmt.Errorf("reads regression: %s consumed %d consensus instances", mode, p.Instances)
		}
		if mode == "ordered" && p.Instances == 0 {
			return points, fmt.Errorf("reads regression: ordered reads consumed no consensus instance (the instance accounting is broken)")
		}
		if p.Errors > 0 {
			return points, fmt.Errorf("reads regression: %s saw %d failed reads", mode, p.Errors)
		}
	}
	return points, nil
}
