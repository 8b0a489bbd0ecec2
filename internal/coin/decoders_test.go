package coin

import (
	"testing"

	"smartchain/internal/codec"
	"smartchain/internal/codec/codectest"
	"smartchain/internal/crypto"
)

// txBomb is a 9-byte transaction: type, empty issuer and an input count of
// 2^16 with nothing behind it. Before list counts went through codec.List,
// decoding one like it allocated 10 240 472 bytes.
func txBomb() []byte {
	e := codec.NewEncoder(9)
	e.Byte(byte(TxSpend))
	e.WriteBytes(nil)
	e.Uint32(1 << 16)
	return e.Bytes()
}

// decoderTable holds the coin decoders to the decoding contract (DESIGN.md
// "Decoding contract"); to cover a new decoder, add a row. Restore's
// "message" is the snapshot the restored service takes of itself.
func decoderTable(t testing.TB) []codectest.Row {
	minter, user := minterKey(1), userKey(1)
	mint, err := NewMint(minter, 1, 10, 20)
	if err != nil {
		t.Fatal(err)
	}
	spend, err := NewSpend(minter, 2, mint.OutputIDs(), []Output{{Owner: user.Public(), Value: 30}})
	if err != nil {
		t.Fatal(err)
	}
	svc := NewService([]crypto.PublicKey{minter.Public()})
	if res := svc.state.Apply(&mint); len(res) == 0 || res[0] != ResultOK {
		t.Fatalf("mint refused: %v", res)
	}
	into := NewService(nil) // built once: its 128 empty shard maps are not Restore's cost
	restore := func(data []byte) ([]byte, error) {
		if err := into.Restore(data); err != nil {
			return nil, err
		}
		return into.Snapshot(), nil
	}
	// One minter, then 2^24 coins declared and none carried.
	snapBomb := codec.NewEncoder(16)
	snapBomb.Uint32(1)
	snapBomb.WriteBytes(minter.Public())
	snapBomb.Uint32(1 << 24)
	return []codectest.Row{
		codectest.Of("tx", Decode, (*Tx).Encode).Seeds([][]byte{mint.Encode(), spend.Encode()}, [][]byte{txBomb()}),
		codectest.Of("restore", restore, func(snap *[]byte) []byte { return *snap }).
			Seeds([][]byte{svc.Snapshot(), NewService(nil).Snapshot()}, [][]byte{snapBomb.Bytes(), {0, 16, 0, 0}}),
	}
}

func TestCoinDecodersContract(t *testing.T) { codectest.Contract(t, decoderTable(t)) }

func FuzzDecoders(f *testing.F) { codectest.Fuzz(f, decoderTable(f)) }
