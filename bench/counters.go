package main

import (
	"sync"
	"time"

	"smartchain/internal/core"
	"smartchain/internal/storage"
)

// The HDD profile's parameters, for turning sync and byte counts into the
// share of time the device was busy.
var hdd = storage.HDDProfile()

// snapshot is the public counters of the reference replica and the fabric at
// one instant.
type snapshot struct {
	at    time.Time
	stats core.Stats
	bytes int64 // made durable on the reference replica's log device
	syncs int64
	sends int64 // replica Endpoint.Send calls, all replicas (traced pass only)
	sent  int64 // payload bytes of those calls
}

// counters reads the program's public counters from outside: named
// snapshots at phase boundaries, and the replicas' heights every 50 ms.
type counters struct {
	d  *deployment
	tr *tracer

	mu      sync.Mutex
	marks   map[string]snapshot
	spreads []float64 // max − min live height, one per poll

	quit     chan struct{}
	quitOnce sync.Once
	done     chan struct{}
}

func newCounters(d *deployment, tr *tracer) *counters {
	c := &counters{d: d, tr: tr, marks: map[string]snapshot{}, quit: make(chan struct{}), done: make(chan struct{})}
	go c.poll()
	return c
}

func (c *counters) poll() {
	defer close(c.done)
	tick := time.NewTicker(50 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-c.quit:
			return
		case <-tick.C:
			lo, hi, any := int64(0), int64(0), false
			c.d.topo.RLock()
			for _, cn := range c.d.liveNodes() {
				h := cn.Node.Ledger().Height()
				if !any || h < lo {
					lo = h
				}
				if !any || h > hi {
					hi = h
				}
				any = true
			}
			c.d.topo.RUnlock()
			c.mu.Lock()
			c.spreads = append(c.spreads, float64(hi-lo))
			c.mu.Unlock()
		}
	}
}

// stop ends the height poll; it may be called more than once.
func (c *counters) stop() {
	c.quitOnce.Do(func() { close(c.quit) })
	<-c.done
}

// at returns a phase sidecar that takes the named snapshots at the given
// offsets from the phase's start (in increasing order).
func (c *counters) at(names []string, offsets []time.Duration) func(time.Time) {
	return func(start time.Time) {
		for i, name := range names {
			if wait := time.Until(start.Add(offsets[i])); wait > 0 {
				time.Sleep(wait)
			}
			c.mark(name)
		}
	}
}

func (c *counters) mark(name string) {
	s := snapshot{at: time.Now()}
	c.d.topo.RLock()
	defer c.d.topo.RUnlock()
	if cn := c.d.cluster.Nodes[c.d.ref]; cn.Node != nil && !cn.Crashed() {
		s.stats = cn.Node.Stats()
	}
	if c.d.w.disk {
		s.bytes, s.syncs = c.d.disks[2*int(c.d.ref)].Stats()
	}
	if c.tr != nil {
		s.sends, s.sent = c.tr.sendTotals()
	}
	c.mu.Lock()
	c.marks[name] = s
	c.mu.Unlock()
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// report turns the snapshots into the counter-sourced per-layer metrics:
// counts over the saturation windows, disk business over the rate window.
func (c *counters) report(res *runResult) {
	a, b := c.marks["sat0"], c.marks["sat1"]
	window := b.at.Sub(a.at).Seconds()
	ops := float64(b.stats.ExecutedTxs - a.stats.ExecutedTxs)
	blocks := float64(b.stats.Blocks - a.stats.Blocks)
	instances := float64(b.stats.Instances - a.stats.Instances)
	syncs := float64(b.syncs - a.syncs)
	res.set("smr.ops_per_batch", ratio(ops, blocks), "count", int(blocks))
	res.set("smr.group_commit_records_per_sync", ratio(blocks, syncs), "count", int(syncs))
	res.set("consensus.instances_per_s", ratio(instances, window), "1/s", int(instances))
	res.set("consensus.empty_instance_share", 1-ratio(blocks, instances), "ratio", int(instances))
	res.set("storage.syncs_per_kop", 1000*ratio(syncs, ops), "count", int(ops))
	res.set("storage.bytes_per_op", ratio(float64(b.bytes-a.bytes), ops), "B", int(ops))
	if c.tr != nil {
		res.set("transport.msgs_per_op", ratio(float64(b.sends-a.sends), ops), "count", int(ops))
		res.set("transport.bytes_per_op", ratio(float64(b.sent-a.sent), ops), "B", int(ops))
	}

	a, b = c.marks["rate0"], c.marks["rate1"]
	window = b.at.Sub(a.at).Seconds()
	busy := float64(b.syncs-a.syncs)*hdd.SyncLatency.Seconds() + float64(b.bytes-a.bytes)/hdd.BytesPerSecond
	res.set("storage.disk_busy_share", ratio(busy, window), "ratio", int(b.syncs-a.syncs))

	res.set("core.height_spread_blocks_p99", percentile(c.spreads, 99), "count", len(c.spreads))

	var epochChanges int64
	for _, cn := range c.d.liveNodes() {
		if e := cn.Node.Stats().EpochChanges; e > epochChanges {
			epochChanges = e
		}
	}
	res.set("consensus.epoch_changes", float64(epochChanges), "count", 0)

	var drops int64
	for _, ws := range c.d.cluster.WireStats() {
		drops += ws.TotalDrops() + ws.AuthFailures + ws.ProtocolViolations
		for _, peer := range ws.Peers {
			drops += peer.DialFailures
		}
	}
	res.set("transport.drops", float64(drops), "count", 0)
}
