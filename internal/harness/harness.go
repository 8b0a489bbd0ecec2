// Package harness reproduces the paper's evaluation (§VI: Tables I–II,
// Figs. 6–8): closed-loop client fleets
// over an in-process deployment, interval throughput measurement, and the
// paper's methodology (§VI-A) of discarding the highest-variance intervals
// before averaging. Protocol facts are asserted by the packages' own tests
// and regressions are measured by bench/; see DESIGN.md "Which instrument
// answers what".
package harness

import (
	"context"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"smartchain/internal/client"
	"smartchain/internal/transport"
	"smartchain/internal/workload"
)

// System is the deployment under test, as far as its clients need to know
// it: something that hands out client endpoints and names its replicas.
// core.Cluster and baselines.Cluster satisfy it.
type System interface {
	Members() []int32
	ClientEndpoint() transport.Endpoint
}

// Options configures one load run.
type Options struct {
	// Clients is the number of closed-loop client goroutines (the paper
	// uses 2400 across four machines; in-process fleets scale down).
	Clients int
	// Warmup is excluded from measurement.
	Warmup time.Duration
	// Duration is the measured window.
	Duration time.Duration
	// Scripts builds the per-client transaction source.
	Scripts func(i int) workload.Script
	// WrapOp frames application payloads (core.WrapAppOp for SMARTCHAIN
	// nodes, identity for baselines). Nil = identity.
	WrapOp func([]byte) []byte
}

// sampleEvery is the throughput sampling interval of Run; invokeTimeout
// bounds one invocation of its clients (and of Fig7's).
const (
	sampleEvery   = 250 * time.Millisecond
	invokeTimeout = 30 * time.Second
)

// Result summarizes one run.
type Result struct {
	// Throughput is the trimmed-mean rate in tx/s (20% highest-variance
	// samples discarded, as in the paper).
	Throughput float64
	// ThroughputStd is the standard deviation over the kept samples.
	ThroughputStd float64
	// MeanLatency and P99Latency summarize per-op completion times.
	MeanLatency time.Duration
	P99Latency  time.Duration
	// Completed counts operations finished inside the measured window.
	Completed int64
	// Errors counts failed invocations.
	Errors int64
	// Samples is the raw interval series (tx/s per sample).
	Samples []float64
}

// Run executes the load and returns the measurements.
func Run(sys System, opts Options) Result {
	if opts.Clients <= 0 {
		opts.Clients = 100
	}
	wrap := opts.WrapOp
	if wrap == nil {
		wrap = func(b []byte) []byte { return b }
	}

	var (
		completed atomic.Int64
		errs      atomic.Int64
		measuring atomic.Bool

		latMu     sync.Mutex
		latencies []time.Duration
	)
	stop := startClients(sys, opts.Clients, invokeTimeout, opts.Scripts, wrap,
		func(_ *client.Proxy, start time.Time, err error) {
			if err != nil {
				errs.Add(1)
				return
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
		})

	time.Sleep(opts.Warmup)
	measuring.Store(true)

	// Sample the completion counter at a fixed cadence.
	var samples []float64
	ticker := time.NewTicker(sampleEvery)
	lastCount := int64(0)
	lastAt := time.Now()
	deadline := time.After(opts.Duration)
sampling:
	for {
		select {
		case <-ticker.C:
			now := time.Now()
			cur := completed.Load()
			dt := now.Sub(lastAt).Seconds()
			if dt > 0 {
				samples = append(samples, float64(cur-lastCount)/dt)
			}
			lastCount, lastAt = cur, now
		case <-deadline:
			break sampling
		}
	}
	ticker.Stop()
	measuring.Store(false)
	stop()

	res := Result{
		Completed: completed.Load(),
		Errors:    errs.Load(),
		Samples:   samples,
	}
	res.Throughput, res.ThroughputStd = TrimmedMean(samples, 0.2)
	res.MeanLatency, res.P99Latency = latencyStats(latencies)
	return res
}

// startClients launches n closed-loop clients against sys — each operation
// of a client feeds on the result of its previous one — and returns the
// function that stops them and waits for them. after runs on the client's
// goroutine once per invocation, with its start time and outcome; timeout
// bounds one invocation.
func startClients(sys System, n int, timeout time.Duration, scripts func(i int) workload.Script,
	wrap func([]byte) []byte, after func(p *client.Proxy, start time.Time, err error)) (stop func()) {
	var (
		done    = make(chan struct{})
		once    sync.Once
		wg      sync.WaitGroup
		members = sys.Members()
	)
	for i := 0; i < n; i++ {
		script := scripts(i)
		proxy := client.New(sys.ClientEndpoint(), script.Key(), members, client.WithTimeout(timeout))
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer proxy.Close()
			var prev []byte
			for {
				select {
				case <-done:
					return
				default:
				}
				op, ok := script.NextOp(prev)
				if !ok {
					return
				}
				start := time.Now()
				res, err := proxy.Invoke(context.Background(), wrap(op))
				if err != nil {
					res = nil
				}
				prev = res
				after(proxy, start, err)
			}
		}()
	}
	return func() {
		once.Do(func() { close(done) })
		wg.Wait()
	}
}

// TrimmedMean discards the `trim` fraction of samples farthest from the
// median (the paper's "20% of the values with greater variance were
// discarded") and returns mean and standard deviation of the rest.
func TrimmedMean(samples []float64, trim float64) (mean, std float64) {
	if len(samples) == 0 {
		return 0, 0
	}
	sorted := append([]float64(nil), samples...)
	sort.Float64s(sorted)
	median := sorted[len(sorted)/2]

	type dev struct {
		v float64
		d float64
	}
	devs := make([]dev, len(samples))
	for i, v := range samples {
		devs[i] = dev{v: v, d: math.Abs(v - median)}
	}
	sort.Slice(devs, func(i, j int) bool { return devs[i].d < devs[j].d })
	keep := len(devs) - int(float64(len(devs))*trim)
	if keep < 1 {
		keep = 1
	}
	var sum float64
	for i := 0; i < keep; i++ {
		sum += devs[i].v
	}
	mean = sum / float64(keep)
	var varsum float64
	for i := 0; i < keep; i++ {
		varsum += (devs[i].v - mean) * (devs[i].v - mean)
	}
	if keep > 1 {
		std = math.Sqrt(varsum / float64(keep-1))
	}
	return mean, std
}

func latencyStats(lat []time.Duration) (mean, p99 time.Duration) {
	if len(lat) == 0 {
		return 0, 0
	}
	sorted := append([]time.Duration(nil), lat...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	var sum time.Duration
	for _, d := range sorted {
		sum += d
	}
	mean = sum / time.Duration(len(sorted))
	idx := int(float64(len(sorted)) * 0.99)
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	p99 = sorted[idx]
	return mean, p99
}
