// Package crypto stands in for the signature layer.
package crypto

// Verify checks one signature by the one cofactored rule.
func Verify(msg, sig []byte) bool { return len(msg) == len(sig) }

// BatchVerifier checks many signatures in one equation.
type BatchVerifier struct{ n int }

// VerifyPool is a replica's one verification pool.
type VerifyPool struct{ workers int }

// NewVerifyPool builds the pool.
func NewVerifyPool() *VerifyPool { return &VerifyPool{workers: 1} }

// Certificate is a quorum of signatures.
type Certificate struct{ Sigs [][]byte }

// Verify is the strict counter the chain walk replaced.
func (c *Certificate) Verify() bool { return len(c.Sigs) > 0 } // want `internal/crypto.Certificate.Verify appears in ./internal/crypto`
