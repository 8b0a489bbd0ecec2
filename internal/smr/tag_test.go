package smr

import (
	"testing"

	"smartchain/internal/crypto"
)

// TestReplyViewTagRoundTrip: the reply codec carries flags and the full
// view tag bit-exactly.
func TestReplyViewTagRoundTrip(t *testing.T) {
	tag := ViewTag{
		ViewID:     3,
		Epoch:      7,
		MemberHash: crypto.HashBytes([]byte("members")),
		Height:     42,
	}
	in := Reply{
		ReplicaID: 2,
		ClientID:  99,
		Seq:       12,
		Digest:    crypto.HashBytes([]byte("req")),
		Flags:     ReplyFlagBehind,
		Tag:       tag,
		Result:    []byte("payload"),
	}
	out, err := DecodeReply(in.Encode())
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if out.Flags != ReplyFlagBehind || out.Tag != tag || string(out.Result) != "payload" {
		t.Fatalf("round trip mismatch: %+v", out)
	}
}

// TestRequestReadFloorSignedAndEncoded: the floor travels in the wire
// encoding and is covered by the request signature, so a relay cannot
// weaken a session read to quorum-freshness by stripping it.
func TestRequestReadFloorSignedAndEncoded(t *testing.T) {
	key := crypto.SeededKeyPair("floor", 1)
	req, err := NewSignedUnordered(7, 3, 123, []byte("query"), key)
	if err != nil {
		t.Fatalf("sign: %v", err)
	}
	if req.ReadFloor != 123 || !req.Unordered() {
		t.Fatalf("request fields: floor=%d unordered=%v", req.ReadFloor, req.Unordered())
	}
	out, err := DecodeRequest(req.Encode())
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if out.ReadFloor != 123 {
		t.Fatalf("floor after round trip: %d", out.ReadFloor)
	}
	if err := out.VerifySig(); err != nil {
		t.Fatalf("signature after round trip: %v", err)
	}
	out.ReadFloor = 0 // strip the floor
	if err := out.VerifySig(); err == nil {
		t.Fatal("stripped read floor passed signature verification")
	}
}

// TestViewInfoRoundTrip: the view-query answer codec.
func TestViewInfoRoundTrip(t *testing.T) {
	in := ViewInfo{ViewID: 9, Members: []int32{1, 2, 3, 4}}
	out, err := DecodeViewInfo(in.Encode())
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if out.ViewID != 9 || len(out.Members) != 4 || out.Members[3] != 4 {
		t.Fatalf("round trip mismatch: %+v", out)
	}
	if _, err := DecodeViewInfo([]byte{1, 2}); err == nil {
		t.Fatal("truncated view info accepted")
	}
}
