package main

import (
	"errors"
	"fmt"
	"time"

	"smartchain/internal/blockchain"
	"smartchain/internal/core"
	"smartchain/internal/crypto"
)

// convergeTimeout bounds how long the audit waits for the live replicas to
// reach one height once the load has stopped.
const convergeTimeout = 20 * time.Second

// audit checks the outcome of a workload against what the clients were
// told: no acknowledged write is missing on any live replica, the live
// replicas agree on height and state, and a replica's log is a valid chain
// from genesis. (Balance reads were checked against their allowed range as
// they completed.) Any violation makes the run incorrect.
//
// The log audited is the reference replica's. Under the fault schedule any
// replica may have caught up by state transfer, which leaves its log starting
// at a snapshot, so there the other survivors' logs are tried too and one
// complete, valid chain is enough: that is what a third party needs.
func audit(res *runResult, d *deployment, spared []int32) {
	nodes := converge(res, d)
	checkAcknowledged(res, d, nodes, "")
	var err error
	for _, id := range spared {
		if err = verifyLog(res, d, id); err == nil {
			return
		}
	}
	res.problem("audit: %v", err)
}

// verifyLog decodes replica id's log and verifies it as a chain from genesis
// up to the height its ledger has now, setting blockchain.verify_blocks_per_s.
func verifyLog(res *runResult, d *deployment, id int32) error {
	cn := d.cluster.Nodes[id]
	// The log trails the ledger by the block the logger is still appending.
	want := cn.Node.Ledger().Height()
	var blocks []blockchain.Block
	var decode time.Duration
	for deadline := time.Now().Add(2 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		records, err := cn.Log.ReadAll()
		if err != nil {
			return fmt.Errorf("read log of replica %d: %w", id, err)
		}
		t0 := time.Now()
		if blocks, err = blockchain.DecodeRecords(records); err != nil {
			return fmt.Errorf("decode log of replica %d: %w", id, err)
		}
		decode = time.Since(t0)
		if len(blocks) > 0 && blocks[len(blocks)-1].Header.Number >= want {
			break
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("log of replica %d ends below its ledger height %d", id, want)
		}
	}
	opts := blockchain.VerifyOptions{RequireCerts: d.w.persistence == core.PersistenceStrong, AllowUncertifiedTail: 2}
	t0 := time.Now()
	sum, err := blockchain.VerifyChain(blocks, opts)
	if d.w.fault && errors.Is(err, blockchain.ErrVerifyUncertifd) {
		// A block decided around the leader crash can stay without its PERSIST
		// certificate on a survivor (README.md, "Findings"). No client was
		// answered for it before a quorum had it durable, which the durability
		// audit checks, so under the fault schedule the gap is noted, not failed.
		res.Notes = append(res.Notes, fmt.Sprintf("audit: replica %d: %v; chain verified without requiring certificates", id, err))
		opts.RequireCerts = false
		t0 = time.Now()
		sum, err = blockchain.VerifyChain(blocks, opts)
	}
	if err != nil {
		return fmt.Errorf("chain of replica %d does not verify: %w", id, err)
	}
	res.set("blockchain.verify_blocks_per_s", float64(sum.Blocks)/(decode+time.Since(t0)).Seconds(), "1/s", sum.Blocks)
	return nil
}

// converge waits until every live replica has the same height and checks
// that they then hold the same application state. A straggling block (a
// re-proposal of requests that were already executed, say) can still commit
// after the load has stopped, so state is compared only between two readings
// of the heights that agree. It returns the live replicas.
func converge(res *runResult, d *deployment) []*core.ClusterNode {
	d.topo.RLock()
	defer d.topo.RUnlock()
	nodes := d.liveNodes()
	heights := func() (lo, hi int64) {
		lo, hi = nodes[0].Node.Ledger().Height(), nodes[0].Node.Ledger().Height()
		for _, cn := range nodes[1:] {
			h := cn.Node.Ledger().Height()
			lo, hi = min(lo, h), max(hi, h)
		}
		return lo, hi
	}
	for deadline := time.Now().Add(convergeTimeout); ; time.Sleep(20 * time.Millisecond) {
		lo, hi := heights()
		if lo == hi {
			states := map[crypto.Hash]bool{}
			for _, cn := range nodes {
				states[crypto.HashBytes(cn.App.Snapshot())] = true
			}
			if lo2, hi2 := heights(); lo2 == lo && hi2 == hi {
				if len(states) > 1 {
					res.problem("audit: live replicas hold %d different states at height %d", len(states), lo)
				}
				return nodes
			}
		}
		if time.Now().After(deadline) {
			res.problem("audit: live replicas did not converge: heights %d..%d after %v", lo, hi, convergeTimeout)
			return nodes
		}
	}
}

// checkAcknowledged looks up the output coin of every acknowledged SPEND on
// every given replica.
func checkAcknowledged(res *runResult, d *deployment, nodes []*core.ClusterNode, when string) {
	for _, cn := range nodes {
		state := coinService(cn.App).State()
		lost := 0
		for _, ps := range d.proxies {
			for _, id := range ps.ackedOut {
				if _, ok := state.Lookup(id); !ok {
					lost++
				}
			}
		}
		if lost > 0 {
			res.problem("audit%s: replica %d lost %d acknowledged writes", when, cn.ID, lost)
		}
	}
}

// durabilityAudit is the paper's 0-Persistence promise put to the test:
// every replica crashes at once, each losing whatever it had not synced,
// all recover from their own storage, and every write acknowledged during
// the run must still be there.
func durabilityAudit(res *runResult, d *deployment) {
	d.topo.Lock()
	d.cluster.CrashAll()
	var err error
	for id := int32(0); int(id) < len(d.cluster.Nodes) && err == nil; id++ {
		if err = d.cluster.Recover(id); err != nil {
			err = fmt.Errorf("replica %d: %w", id, err)
		}
	}
	d.topo.Unlock()
	if err != nil {
		res.problem("durability audit: recover after full crash: %v", err)
		return
	}
	nodes := converge(res, d)
	if len(nodes) != len(d.cluster.Nodes) {
		res.problem("durability audit: %d of %d replicas came back", len(nodes), len(d.cluster.Nodes))
	}
	checkAcknowledged(res, d, nodes, " after full crash")
}
