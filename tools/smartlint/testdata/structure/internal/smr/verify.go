// Package smr's verification shim owns concurrency it must queue on the
// one pool instead.
package smr

import "fixture/internal/crypto"

// Pool applies a verification mode to the replica's pool.
type Pool struct {
	inner *crypto.VerifyPool
	done  chan struct{} // want `channel-typed expression in ./internal/smr/verify.go`
}

// NewPool builds the shim and a second pool.
func NewPool() *Pool {
	p := &Pool{inner: crypto.NewVerifyPool()} // want `NewVerifyPool has 2 non-test references`
	go func() {}()                            // want `go statement in ./internal/smr/verify.go`
	return p
}
