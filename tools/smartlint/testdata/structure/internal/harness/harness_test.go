package harness

import (
	"testing"

	engine "fixture/internal/consensus"
)

// A test is no exemption: it reaches the engine through an import alias,
// parsed, not type-checked.
func TestEngine(t *testing.T) {
	if engine.New() == nil { // want `internal/consensus.New referenced from ./internal/harness`
		t.Fatal("no engine")
	}
}
