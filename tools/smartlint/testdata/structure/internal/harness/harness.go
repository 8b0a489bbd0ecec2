// Package harness is a second runtime of the goroutine engine, reached
// through an import alias and a function value: text matching sees
// neither.
package harness

import cs "fixture/internal/consensus"

// Start runs an engine instead of stepping the machine.
func Start() *cs.Engine { // want `internal/consensus.Engine referenced from ./internal/harness`
	start := cs.New // want `internal/consensus.New referenced from ./internal/harness`
	return start()
}
