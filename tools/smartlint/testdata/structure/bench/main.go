// Command bench is the fixture's benchmark: its consensus.New is the one
// the row allows, and its calls count for the test-only row.
package main

import (
	"fmt"

	"fixture/internal/blockchain"
	"fixture/internal/codec"
	"fixture/internal/codec/codectest"
	"fixture/internal/coin"
	"fixture/internal/consensus"
	"fixture/internal/core"
	"fixture/internal/crypto"
	"fixture/internal/harness"
	"fixture/internal/hooks"
	"fixture/internal/smr"
	"fixture/internal/transport"
)

func main() {
	hooks.BenchOnly()
	hooks.Used()
	hooks.Called()
	new(transport.TCPNetwork).SetLinkDelay(1)
	fmt.Println(consensus.New() != nil, harness.Start() != nil, smr.NewPool() != nil,
		hooks.NewGreeter().Greet(), coin.Spend(nil, nil), core.Decode(new(codec.Decoder)),
		blockchain.Walk(nil), blockchain.Audit(nil), codectest.Fuzz(nil),
		new(crypto.Certificate).Verify(), crypto.BatchVerifier{}, crypto.VerifyPool{})
}
