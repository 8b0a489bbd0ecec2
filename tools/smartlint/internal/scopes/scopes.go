// Package scopes centralizes which repo packages each invariant applies to.
//
// The analyzers are written for this codebase, so the scopes are explicit
// import paths rather than configuration. Packages under the smartlint.test
// module (the analyzers' own testdata) are always in scope, so golden tests
// exercise every rule without masquerading as real repo paths.
package scopes

import "strings"

// testbed reports whether path belongs to the analyzers' testdata module.
func testbed(path string) bool {
	return path == "smartlint.test" || strings.HasPrefix(path, "smartlint.test/")
}

// Deterministic reports whether path is a deterministic-execution package:
// code that must produce bit-identical results on every replica. detexec
// applies package-wide here; outside these packages it still covers the
// method bodies that feed replicated state (ExecuteBatch, the node's block
// transition).
func Deterministic(path string) bool {
	switch path {
	case "smartchain/internal/coin":
		return true
	case "smartlint.test/detexec/node":
		// The fixture for the method-scoped rule stands in for a package
		// that is not deterministic as a whole (internal/core).
		return false
	}
	return testbed(path)
}

// MessageHandling reports whether path hosts wire-message handlers whose
// bodies must verify before mutating protocol state (verifyfirst).
func MessageHandling(path string) bool {
	switch path {
	case "smartchain/internal/consensus", "smartchain/internal/smr", "smartchain/internal/catchup":
		return true
	}
	return testbed(path)
}

// EventLoop reports whether path hosts consensus event-loop goroutines
// whose call graphs must stay free of blocking operations (looptime): in
// internal/consensus, (*Engine).loop, the goroutine form of the Machine
// handle that the baselines and the benchmark's probe use. internal/core is
// not one: its loops block legitimately — the ordering driver, which steps
// the consensus machine itself, on a full tail queue, a checkpoint write and
// a catch-up round's Fetcher call (a held block is window state, not a
// wait); the receive loop on a full inbox.
func EventLoop(path string) bool {
	switch path {
	case "smartchain/internal/consensus":
		return true
	case "smartlint.test/looptime/driver", "smartlint.test/looptime/tail", "smartlint.test/looptime/pool":
		// The fixtures standing in for internal/core and internal/catchup.
		return false
	}
	return testbed(path)
}

// StepMachine names the types in path whose step method is the entry point
// of a pure state machine (looptime's purity rule): consensus.machine, the
// protocol; core.window, the ordering driver above it, and core.tail, what a
// block is owed after it; and catchup.machine, the state-transfer round,
// which Pool steps under its lock on the ordering driver's goroutine (Begin,
// Handle, Tick: no loop, channel or clock of its own). Empty means none.
func StepMachine(path string) []string {
	switch path {
	case "smartchain/internal/consensus", "smartchain/internal/catchup":
		return []string{"machine"}
	case "smartchain/internal/core":
		return []string{"window", "tail"}
	case "smartlint.test/looptime/driver":
		return []string{"window"}
	case "smartlint.test/looptime/tail":
		return []string{"tail"}
	}
	if testbed(path) {
		return []string{"machine"}
	}
	return nil
}

// StepHandle names the types in path every method of which is a purity root,
// like a machine's step: consensus.Machine, the synchronous handle over
// consensus.machine that the ordering driver steps (and Engine's loop
// wraps). Empty means none.
func StepHandle(path string) []string {
	if path == "smartchain/internal/consensus" || testbed(path) {
		return []string{"Machine"}
	}
	return nil
}
