// Package node is the fixture for detexec's method-scoped rule: outside
// the deterministic packages only the methods that feed replicated state
// are checked — the application execution entry points and the node's
// block transition (applyBatch, closeBlock, installView).
package node

import "time"

type node struct {
	votes map[int32][]byte
	keys  [][]byte
	floor int64
	last  time.Time
}

// applyBatch runs for a live decision and for every replay of the block:
// what it returns is recorded in the block.
func (n *node) applyBatch(number int64) [][]byte {
	n.last = time.Now() // want `time\.Now in deterministic-execution code`
	var results [][]byte
	for _, v := range n.votes {
		results = append(results, v) // want `append to "results" inside a range over a map`
	}
	return results
}

func (n *node) closeBlock(number int64) {
	if time.Since(n.last) > time.Second { // want `time\.Since in deterministic-execution code`
		n.floor = number
	}
}

func (n *node) installView() {
	for _, v := range n.votes {
		n.keys = append(n.keys, v) // want `append to "n" inside a range over a map`
	}
}

// commitDecision is the live-only caller around the transition: it may
// read the clock (timers, latency stamps) and walk maps in any order,
// because nothing it computes is replicated state.
func (n *node) commitDecision() []int32 {
	n.last = time.Now()
	var pending []int32
	for id := range n.votes {
		pending = append(pending, id)
	}
	return pending
}

// applyBatch as a plain function is not the node's transition.
func applyBatch() time.Time { return time.Now() }
