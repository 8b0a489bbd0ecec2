package reconfig

import (
	"testing"

	"smartchain/internal/codec"
	"smartchain/internal/codec/codectest"
)

// decoderTable holds the membership-change decoders — all fed by outsiders:
// a joiner's request, members' votes, the ordered certificate — to the
// decoding contract (DESIGN.md "Decoding contract"); to cover a new decoder,
// add a row.
func decoderTable(t testing.TB) []codectest.Row {
	f := newFixture(t, 4)
	cert := f.joinCert(4, []int32{0, 1, 2})
	nk, err := f.stores[0].PrepareFor(1)
	if err != nil {
		t.Fatal(err)
	}
	remove, err := NewRemoveVote(0, f.permanent[0], 2, 1, nk)
	if err != nil {
		t.Fatal(err)
	}
	// A valid kind and request, then 2^24 votes declared and none carried.
	certBomb := codec.NewEncoder(512)
	certBomb.Byte(byte(ChangeJoin))
	certBomb.WriteBytes(cert.Request.Encode())
	certBomb.Uint32(1 << 24)
	return []codectest.Row{
		codectest.Of("certificate", DecodeCertificate, (*Certificate).Encode).Seeds([][]byte{cert.Encode()}, [][]byte{certBomb.Bytes()}),
		codectest.Of("remove vote", DecodeRemoveVote, (*RemoveVote).Encode).Seeds([][]byte{remove.Encode()}, [][]byte{[]byte("junk")}),
		codectest.Of("vote", DecodeVote, (*Vote).Encode).Seeds([][]byte{cert.Votes[0].Encode()}, nil),
		codectest.Of("join request", DecodeJoinRequest, (*JoinRequest).Encode).Seeds([][]byte{cert.Request.Encode()}, nil),
	}
}

func TestReconfigDecodersContract(t *testing.T) { codectest.Contract(t, decoderTable(t)) }

func FuzzDecoders(f *testing.F) { codectest.Fuzz(f, decoderTable(f)) }
