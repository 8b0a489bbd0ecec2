// Package probe has test files only; the name bans reach it all the same.
package probe

import "testing"

func TestProbe(t *testing.T) {
	_ = struct{ votePool int }{} // want `votePool appears in ./internal/probe`
}
