// Package consensus stands in for the ordering protocol.
package consensus

// Engine is the goroutine form only the benchmark's probe drives.
type Engine struct{ started bool }

// New starts an engine.
func New() *Engine { return &Engine{started: true} }

// VerifyDecisionProof checks one decision proof.
func VerifyDecisionProof(proof []byte) bool { return len(proof) > 0 }
