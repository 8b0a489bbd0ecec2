// Package core reads a list by hand, builds a second pool and verifies an
// ordered request on arrival beside the read path.
package core

import (
	"fixture/internal/codec"
	"fixture/internal/crypto"
	"fixture/internal/smr"
)

// Decode reads a list without (*codec.Decoder).Count.
func Decode(d *codec.Decoder) int {
	n := d.Uint32() // want `internal/codec.Decoder.Uint32 referenced from ./internal/core`
	total := 0
	for i := uint32(0); i < n; i++ { // want `uint32 counter loop in ./internal/core/core.go`
		total++
	}
	if crypto.NewVerifyPool() == nil { // want `internal/crypto.NewVerifyPool has 2 non-test references, at most 1`
		return 0
	}
	return total
}

func fuzzDecoder() {} // want `fuzzDecoder appears in ./internal/core`

// enqueue verifies an ordered request on arrival.
func enqueue(p *smr.VerifierPool, req []byte) {
	p.Submit(req) // want `internal/smr.VerifierPool.Submit has 2 non-test references from ./internal/core, at most 1`
}

// serveUnordered verifies a read on arrival: the one Submit the row allows.
func serveUnordered(p *smr.VerifierPool, req []byte) {
	p.Submit(req) // want `VerifierPool.Submit has 2 non-test references`
}
