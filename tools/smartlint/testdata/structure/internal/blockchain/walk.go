// Package blockchain walks the chain twice.
package blockchain

import "fixture/internal/consensus"

// Walk verifies every proof of a chain.
func Walk(proofs [][]byte) bool {
	for _, p := range proofs {
		if !consensus.VerifyDecisionProof(p) { // want `internal/consensus.VerifyDecisionProof has 2 non-test references from ./internal/blockchain, at most 1`
			return false
		}
	}
	return true
}

// Audit is the second walk the row forbids.
func Audit(proof []byte) bool {
	return consensus.VerifyDecisionProof(proof) // want `VerifyDecisionProof has 2 non-test references`
}
