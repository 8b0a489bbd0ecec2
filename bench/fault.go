package main

import (
	"fmt"
	"sync"
	"time"
)

// faultLog plays the crash_recover schedule alongside the rate phase and
// keeps what the catch-up metrics need: the leader is crashed (its unsynced
// log discarded) at pl.crashAt, recovered at pl.recoverAt, and followed
// until the phase ends.
type faultLog struct {
	victim    int32
	crashedAt time.Duration // offset into the rate phase
	recoverMS float64
	err       error

	mu   sync.Mutex
	lags []float64 // recovered replica's height lag, one per 50 ms poll
}

func (f *faultLog) play(d *deployment, start time.Time, pl plan) {
	time.Sleep(time.Until(start.Add(pl.crashAt)))
	d.topo.Lock()
	f.victim = d.cluster.Leader()
	err := d.cluster.Crash(f.victim)
	d.topo.Unlock()
	f.crashedAt = time.Since(start)
	if err != nil {
		f.err = fmt.Errorf("crash leader %d: %w", f.victim, err)
		return
	}

	time.Sleep(time.Until(start.Add(pl.recoverAt)))
	t0 := time.Now()
	d.topo.Lock()
	err = d.cluster.Recover(f.victim)
	d.topo.Unlock()
	f.recoverMS = ms(time.Since(t0))
	if err != nil {
		f.err = fmt.Errorf("recover replica %d: %w", f.victim, err)
		return
	}

	end := start.Add(pl.rateWarm + pl.rateWin)
	for time.Now().Before(end) {
		time.Sleep(50 * time.Millisecond)
		var top int64
		d.topo.RLock()
		for _, cn := range d.liveNodes() {
			if h := cn.Node.Ledger().Height(); h > top {
				top = h
			}
		}
		own := d.cluster.Nodes[f.victim].Node.Ledger().Height()
		d.topo.RUnlock()
		f.mu.Lock()
		f.lags = append(f.lags, float64(top-own))
		f.mu.Unlock()
	}
}

// report sets the fault-margin metrics. On a workload without a fault
// schedule nothing was recovered or fetched, and they read 0.
func (f *faultLog) report(res *runResult, d *deployment) {
	if f == nil {
		res.set("catchup.recover_ms", 0, "ms", 0)
		res.set("catchup.rejoin_lag_blocks_p50", 0, "count", 0)
		res.set("catchup.state_transfers", 0, "count", 0)
		res.set("catchup.bytes_fetched", 0, "B", 0)
		return
	}
	st := d.cluster.Nodes[f.victim].Node.Stats()
	res.set("catchup.recover_ms", f.recoverMS, "ms", 1)
	res.set("catchup.rejoin_lag_blocks_p50", orZero(percentile(f.lags, 50)), "count", len(f.lags))
	res.set("catchup.state_transfers", float64(st.StateTransfers), "count", 0)
	res.set("catchup.bytes_fetched", float64(st.Catchup.BytesFetched), "B", 0)
}
