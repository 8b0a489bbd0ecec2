package smr

import (
	"testing"

	"smartchain/internal/codec"
	"smartchain/internal/codec/codectest"
	"smartchain/internal/crypto"
)

// decoderTable holds every smr wire decoder to the decoding contract
// (DESIGN.md "Decoding contract"); to cover a new decoder, add a row.
func decoderTable(t testing.TB) []codectest.Row {
	req, err := NewSignedRequest(7, 3, []byte("op"), crypto.SeededKeyPair("client", 7))
	if err != nil {
		t.Fatal(err)
	}
	batch := Batch{Timestamp: 99, Requests: []Request{req, req}}
	empty := Batch{Timestamp: 1}
	reply := Reply{ReplicaID: 2, ClientID: 7, Seq: 3, Digest: req.Digest(), Tag: ViewTag{ViewID: 1, Height: 9},
		Result: []byte("ok")}
	info := ViewInfo{ViewID: 4, Members: []int32{0, 1, 2, 3}}
	// A timestamp (or view ID), then 2^24 elements declared and none carried.
	bomb := codec.NewEncoder(12)
	bomb.Int64(1)
	bomb.Uint32(1 << 24)
	return []codectest.Row{
		codectest.Of("request", DecodeRequest, (*Request).Encode).Seeds([][]byte{req.Encode()}, [][]byte{[]byte("junk")}),
		codectest.Of("batch", DecodeBatch, (*Batch).Encode).Seeds([][]byte{batch.Encode(), empty.Encode()}, [][]byte{bomb.Bytes()}),
		codectest.Of("reply", DecodeReply, (*Reply).Encode).Seeds([][]byte{reply.Encode()}, nil),
		codectest.Of("view info", DecodeViewInfo, (*ViewInfo).Encode).Seeds([][]byte{info.Encode()}, [][]byte{bomb.Bytes()}),
	}
}

func TestSMRDecodersContract(t *testing.T) { codectest.Contract(t, decoderTable(t)) }

func FuzzDecoders(f *testing.F) { codectest.Fuzz(f, decoderTable(f)) }
