// Package coin is an application whose transactions carry no signature of
// their own.
package coin

import "fixture/internal/crypto"

type key struct{}

func (key) Sign(msg []byte) []byte { return msg }

// Spend checks a spend's second signature: what the row forbids.
func Spend(msg, sig []byte) bool {
	_ = key{}.Sign(msg)            // want `Sign referenced from ./internal/coin`
	return crypto.Verify(msg, sig) // want `internal/crypto.Verify referenced from ./internal/coin`
}
