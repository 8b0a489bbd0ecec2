package core

import (
	"testing"

	"smartchain/internal/codec"
	"smartchain/internal/codec/codectest"
	"smartchain/internal/crypto"
	"smartchain/internal/reconfig"
	"smartchain/internal/smr"
	"smartchain/internal/view"
)

// viewBomb is the 12-byte view of ISSUE 24: an ID and 2^16 members declared,
// none carried. At 78095fd decoding it allocated 5 510 952 bytes.
func viewBomb() []byte {
	e := codec.NewEncoder(12)
	e.Int64(1)
	e.Uint32(1 << 16)
	return e.Bytes()
}

// snapshotEnvelopeBomb is a 72-byte checkpoint envelope: a valid header, an
// empty view, no permanent keys, then 2^24 watermarks declared and none
// carried — one flipped bit in a stored count. At 78095fd its 80-byte
// form (which also led with the height) allocated 1 880 359 952 bytes and
// took 8.5 s to decode.
func snapshotEnvelopeBomb() []byte {
	e := codec.NewEncoder(72)
	e.Int64(241)
	e.Bytes32(crypto.HashBytes([]byte("block")))
	e.Int64(0)
	e.WriteBytes(encodeView(view.New(0, nil, nil)))
	e.Uint32(0)
	e.Uint32(1 << 24)
	return e.Bytes()
}

// decoderTable holds the core decoders that had no fuzz target of their own
// to the decoding contract (DESIGN.md "Decoding contract"); to cover a new
// decoder, add a row. The snapshot envelope is the Meta of the local
// snapshot store and of a fetched checkpoint offer.
func decoderTable(t testing.TB) []codectest.Row {
	perm := crypto.SeededKeyPair("perm", 1)
	cons := crypto.SeededKeyPair("cons", 1)
	key, err := crypto.CertifyConsensusKey(perm, 1, 2, cons.Public())
	if err != nil {
		t.Fatal(err)
	}
	vote, err := reconfig.NewRemoveVote(1, perm, 3, 2, key)
	if err != nil {
		t.Fatal(err)
	}
	v := view.New(1, []int32{0, 1, 2, 3}, map[int32]crypto.PublicKey{1: cons.Public()})
	env := snapshotEnvelope{
		Instance: 243, BlockHash: crypto.HashBytes([]byte("block")), LastReconfig: 200, View: v,
		PermKeys:    map[int32]crypto.PublicKey{1: perm.Public()},
		Watermarks:  map[int64]smr.Watermark{7: {Low: 3, Executed: []uint64{5, 9}, LastSeen: 239}, 8: {Low: 1}},
		RemoveVotes: []reconfig.RemoveVote{vote},
	}
	bare := snapshotEnvelope{View: view.New(0, nil, nil), PermKeys: map[int32]crypto.PublicKey{}, Watermarks: map[int64]smr.Watermark{}}
	announce := keyAnnounce{Key: key}
	return []codectest.Row{
		codectest.Of("view", decodeView, func(v *view.View) []byte { return encodeView(*v) }).
			Seeds([][]byte{encodeView(v)}, [][]byte{viewBomb()}),
		codectest.Of("snapshot envelope", decodeSnapshotEnvelope, (*snapshotEnvelope).encode).
			Seeds([][]byte{env.encode(), bare.encode()}, [][]byte{snapshotEnvelopeBomb()}),
		codectest.Of("key announce", decodeKeyAnnounce, (*keyAnnounce).encode).Seeds([][]byte{announce.encode()}, [][]byte{[]byte("junk")}),
	}
}

func TestCoreDecodersContract(t *testing.T) { codectest.Contract(t, decoderTable(t)) }

func FuzzDecoders(f *testing.F) { codectest.Fuzz(f, decoderTable(f)) }
