package consensus

import (
	"bytes"
	"testing"
	"time"

	"smartchain/internal/crypto"
	"smartchain/internal/transport"
)

// fabricateDecided builds a decidedMsg whose proof is signed by the given
// members of the sim's view — the same fabrication the primed-chain
// harness uses, so the certificate verifies like a live one.
func fabricateDecided(s *sim, instance, epoch int64, value []byte, signers []int) decidedMsg {
	digest := crypto.HashBytes(value)
	proof := crypto.Certificate{Digest: digest}
	for _, i := range signers {
		sig, err := SignAccept(s.keys[i], instance, epoch, digest)
		if err != nil {
			s.t.Fatalf("sign accept: %v", err)
		}
		proof.Add(crypto.Signature{Signer: int32(i), Sig: sig})
	}
	return decidedMsg{Instance: instance, Epoch: epoch, Value: value, Proof: proof}
}

func TestDecidedMsgEncodingRoundTrips(t *testing.T) {
	key := crypto.SeededKeyPair("dec-enc", 1)
	value := []byte("decided-value")
	digest := crypto.HashBytes(value)
	sig, err := SignAccept(key, 9, 2, digest)
	if err != nil {
		t.Fatal(err)
	}
	dm := decidedMsg{Instance: 9, Epoch: 2, Value: value,
		Proof: crypto.Certificate{Digest: digest, Sigs: []crypto.Signature{{Signer: 1, Sig: sig}}}}
	got, err := decodeDecided(dm.encode())
	if err != nil {
		t.Fatalf("decided: %v", err)
	}
	if got.Instance != 9 || got.Epoch != 2 || !bytes.Equal(got.Value, value) ||
		got.Proof.Digest != digest || got.Proof.Count() != 1 {
		t.Fatalf("decided round trip: %+v", got)
	}
	// Truncations must fail, not panic.
	enc := dm.encode()
	for cut := 1; cut < len(enc); cut += 5 {
		_, _ = decodeDecided(enc[:cut])
	}
}

// TestDecidedCertificateUnblocksReplica feeds a replica — alone on an
// undecided instance, no quorum reachable — a retransmitted decision
// certificate. An invalid proof must change nothing; the valid one must
// decide the instance with the certified value, exactly as an ACCEPT quorum
// would have.
func TestDecidedCertificateUnblocksReplica(t *testing.T) {
	s := newSim(t, 12, 4, time.Second, nil)
	s.step(1, event{kind: evStart, inst: 0}) // a follower: starting alone can never reach a quorum
	deliver := func(dm decidedMsg) {
		s.step(1, event{kind: evMessage, msg: transport.Message{From: 2, To: 1, Type: MsgDecided, Payload: dm.encode()}})
	}

	value := []byte("certified")
	// Sub-quorum proof (2 of 4, need 3): must be ignored.
	deliver(fabricateDecided(s, 0, 0, value, []int{0, 2}))
	// Proof quorate but for a different value than it signs: must be ignored.
	forged := fabricateDecided(s, 0, 0, []byte("other"), []int{0, 2, 3})
	forged.Value = value
	deliver(forged)
	if d, ok := s.decided[1][0]; ok {
		t.Fatalf("replica decided %q from an invalid certificate", d.Value)
	}

	deliver(fabricateDecided(s, 0, 0, value, []int{0, 2, 3}))
	d, ok := s.decided[1][0]
	if !ok || !bytes.Equal(d.Value, value) {
		t.Fatalf("decided %q (%v), want %q", d.Value, ok, value)
	}
	if err := VerifyDecisionProof(s.ms[1].cfg.View, 0, d.Epoch, crypto.HashBytes(d.Value), &d.Proof, 3); err != nil {
		t.Fatalf("emitted decision proof does not verify: %v", err)
	}
}

// TestSubFloorTrafficTriggersDecidedRetransmit settles an instance on the
// whole view, then replays one replica's stale WRITE for it: the receiver —
// whose floor has moved past the instance — must answer with the retained
// decision certificate instead of dropping the vote silently.
func TestSubFloorTrafficTriggersDecidedRetransmit(t *testing.T) {
	s := newSim(t, 13, 4, time.Second, nil)
	value := []byte("settled")
	s.startAll(0, value)
	s.run(s.allDecided(1))
	s.now = s.now.Add(time.Second) // past the per-peer rate limit (Timeout/4) of any answer the run drew

	digest := crypto.HashBytes(value)
	stale := voteMsg{Instance: 0, Epoch: 0, Digest: digest, Voter: 3, Sig: s.keys[3].MustSign(ctxWrite, voteMessage(0, 0, digest))}
	var answers []decidedMsg
	for _, fx := range s.ms[0].step(s.now, event{kind: evMessage, msg: transport.Message{From: 3, To: 0, Type: MsgWrite, Payload: stale.encode()}}) {
		if fx.kind != fxSend || fx.typ != MsgDecided || fx.to != 3 {
			continue
		}
		dm, err := decodeDecided(fx.payload)
		if err != nil {
			t.Fatalf("decode retransmitted certificate: %v", err)
		}
		answers = append(answers, dm)
	}
	if len(answers) != 1 {
		t.Fatalf("the stale WRITE drew %d certificates, want 1", len(answers))
	}
	dm := answers[0]
	if dm.Instance != 0 || !bytes.Equal(dm.Value, value) {
		t.Fatalf("retransmitted (%d, %q), want (0, %q)", dm.Instance, dm.Value, value)
	}
	if err := VerifyDecisionProof(s.ms[0].cfg.View, 0, dm.Epoch, crypto.HashBytes(dm.Value), &dm.Proof, 3); err != nil {
		t.Fatalf("retransmitted proof does not verify: %v", err)
	}
}
