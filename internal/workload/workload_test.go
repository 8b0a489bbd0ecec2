package workload

import (
	"testing"

	"smartchain/internal/coin"
	"smartchain/internal/crypto"
)

func TestCoinScriptMintThenSpend(t *testing.T) {
	s := NewCoinScript("wl-test", 1)
	svc := coin.NewService(MinterKeys("wl-test", 2))

	// First op is a MINT of mintBatch coins.
	op, ok := s.NextOp(nil)
	if !ok {
		t.Fatal("script exhausted immediately")
	}
	tx, err := coin.Decode(op)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if tx.Type != coin.TxMint || len(tx.Outputs) != mintBatch {
		t.Fatalf("first op: type=%d outputs=%d", tx.Type, len(tx.Outputs))
	}
	res := svc.State().Apply(&tx)
	if res[0] != coin.ResultOK {
		t.Fatalf("mint result: %d", res[0])
	}

	// Next ops are single-input single-output SPENDs consuming the pool.
	for i := 0; i < mintBatch; i++ {
		op, ok = s.NextOp(res)
		if !ok {
			t.Fatalf("script exhausted at spend %d", i)
		}
		res = nil // results only matter after mints
		stx, err := coin.Decode(op)
		if err != nil {
			t.Fatalf("decode spend %d: %v", i, err)
		}
		if stx.Type != coin.TxSpend || len(stx.Inputs) != 1 || len(stx.Outputs) != 1 {
			t.Fatalf("spend %d shape: in=%d out=%d", i, len(stx.Inputs), len(stx.Outputs))
		}
		applied := svc.State().Apply(&stx)
		if applied[0] != coin.ResultOK {
			t.Fatalf("spend %d result: %d", i, applied[0])
		}
	}

	// Pool dry: the script re-mints.
	op, ok = s.NextOp(nil)
	if !ok {
		t.Fatal("script exhausted after pool drained")
	}
	rtx, err := coin.Decode(op)
	if err != nil {
		t.Fatalf("decode re-mint: %v", err)
	}
	if rtx.Type != coin.TxMint {
		t.Fatalf("after dry pool expected mint, got type %d", rtx.Type)
	}
}

func TestCoinScriptDeterministicAcrossRuns(t *testing.T) {
	a := NewCoinScript("wl-det", 7)
	b := NewCoinScript("wl-det", 7)
	opA, _ := a.NextOp(nil)
	opB, _ := b.NextOp(nil)
	if string(opA) != string(opB) {
		t.Fatal("same (label, id) must generate identical transactions")
	}
	c := NewCoinScript("wl-det", 8)
	opC, _ := c.NextOp(nil)
	if string(opA) == string(opC) {
		t.Fatal("different clients must generate distinct transactions")
	}
}

func TestMintOnlyScript(t *testing.T) {
	s := NewMintOnlyScript("wl-mint", 3)
	seen := map[string]bool{}
	for i := 0; i < 5; i++ {
		op, ok := s.NextOp(nil)
		if !ok {
			t.Fatal("mint-only script exhausted")
		}
		tx, err := coin.Decode(op)
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if tx.Type != coin.TxMint {
			t.Fatalf("op %d: type %d", i, tx.Type)
		}
		if seen[string(op)] {
			t.Fatalf("op %d repeated (nonce not advancing)", i)
		}
		seen[string(op)] = true
	}
}

func TestMinterKeysMatchScriptKeys(t *testing.T) {
	keys := MinterKeys("wl-keys", 3)
	for i := 0; i < 3; i++ {
		s := NewCoinScript("wl-keys", int64(i))
		if !s.Key().Public().Equal(crypto.PublicKey(keys[i])) {
			t.Fatalf("minter key %d does not match script identity", i)
		}
	}
}
