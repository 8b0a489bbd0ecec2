package consensus

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"smartchain/internal/codec"
	"smartchain/internal/crypto"
	"smartchain/internal/transport"
	"smartchain/internal/view"
)

func TestSequenceOfInstances(t *testing.T) {
	s := newSim(t, 1, 4, time.Second, nil)
	for inst := int64(0); inst < 5; inst++ {
		s.startAll(inst, []byte(fmt.Sprintf("batch-%d", inst)))
		s.run(s.allDecided(inst + 1))
	}
	s.requireAgreement(5)
	for inst := int64(0); inst < 5; inst++ {
		s.requireDecided(inst, fmt.Sprintf("batch-%d", inst), 0)
	}
}

func TestDecisionWithOneCrashedFollower(t *testing.T) {
	s := newSim(t, 2, 4, time.Second, nil)
	s.down[3] = true // a follower: the leader of epoch 0 is member 0
	s.startAll(0, []byte("minus-one"))
	s.run(s.allDecided(1))
	s.requireAgreement(1)
	s.requireDecided(0, "minus-one", 0)
}

func TestLeaderFailureTriggersSynchronization(t *testing.T) {
	s := newSim(t, 3, 4, 150*time.Millisecond, nil)
	s.down[0] = true // the epoch-0 leader
	s.startAll(0, nil)
	s.run(s.allDecided(1))
	s.requireAgreement(1)
	// The new leader had no certified value, so it proposed its fallback.
	s.requireDecided(0, "fallback", 1)
}

func TestValidateRejectsProposal(t *testing.T) {
	// Every follower rejects the poisoned value; the leader's proposal dies
	// and a synchronization phase elects replica 1, which proposes its
	// fallback.
	validate := func(_ int64, v []byte) bool { return !bytes.Equal(v, []byte("poison")) }
	s := newSim(t, 4, 4, 150*time.Millisecond, validate)
	s.startAll(0, []byte("poison"))
	s.run(s.allDecided(1))
	s.requireAgreement(1)
	s.requireDecided(0, "fallback", 1)
}

func TestProofSignerAreViewMembers(t *testing.T) {
	s := newSim(t, 5, 7, time.Second, nil)
	s.startAll(0, []byte("v"))
	s.run(s.allDecided(1))
	s.requireAgreement(1)
	v := s.ms[0].cfg.View
	for i := range s.ms {
		proof := s.decided[i][0].Proof
		for _, sig := range proof.Sigs {
			if !v.Contains(sig.Signer) {
				t.Fatalf("replica %d: proof signer %d not in view", i, sig.Signer)
			}
		}
	}
}

func TestSevenReplicasTolerateTwoCrashes(t *testing.T) {
	s := newSim(t, 6, 7, time.Second, nil)
	s.down[5], s.down[6] = true, true
	s.startAll(0, []byte("n7f2"))
	s.run(s.allDecided(1))
	s.requireAgreement(1)
	s.requireDecided(0, "n7f2", 0)
}

func TestVerifyDecisionProofRejections(t *testing.T) {
	s := newSim(t, 7, 4, time.Second, nil)
	s.startAll(0, []byte("v"))
	s.run(s.allDecided(1))
	v, d := s.ms[0].cfg.View, s.decided[0][0]
	digest := crypto.HashBytes(d.Value)

	if err := VerifyDecisionProof(v, d.Instance, d.Epoch, digest, nil, 3); err == nil {
		t.Fatal("nil proof must fail")
	}
	if err := VerifyDecisionProof(v, d.Instance+1, d.Epoch, digest, &d.Proof, 3); err == nil {
		t.Fatal("wrong instance must fail")
	}
	if err := VerifyDecisionProof(v, d.Instance, d.Epoch+1, digest, &d.Proof, 3); err == nil {
		t.Fatal("wrong epoch must fail")
	}
	bad := crypto.HashBytes([]byte("other"))
	if err := VerifyDecisionProof(v, d.Instance, d.Epoch, bad, &d.Proof, 3); err == nil {
		t.Fatal("wrong digest must fail")
	}
	if err := VerifyDecisionProof(v, d.Instance, d.Epoch, digest, &d.Proof, d.Proof.Count()+1); err == nil {
		t.Fatal("higher quorum must fail")
	}
	// A proof from another key set must fail.
	otherKeys := make(map[int32]crypto.PublicKey)
	for i := 0; i < 4; i++ {
		otherKeys[int32(i)] = crypto.SeededKeyPair("other", int64(i)).Public()
	}
	otherView := view.New(1, []int32{0, 1, 2, 3}, otherKeys)
	if err := VerifyDecisionProof(otherView, d.Instance, d.Epoch, digest, &d.Proof, 3); err == nil {
		t.Fatal("foreign keys must fail")
	}
}

// TestDecisionProofAndPersistCertificateDoNotMix: the same replicas sign
// a block's decision proof (ACCEPTs over the instance/epoch/digest vote) and
// its certificate (PERSISTs over the digest alone). A signature of one kind
// never counts toward a certificate of the other.
func TestDecisionProofAndPersistCertificateDoNotMix(t *testing.T) {
	const ctxPersist = "smartchain/persist/v1" // blockchain.ContextPersist
	s := newSim(t, 8, 4, time.Second, nil)
	s.startAll(0, []byte("v"))
	s.run(s.allDecided(1))
	v, d := s.ms[0].cfg.View, s.decided[0][0]
	digest := crypto.HashBytes(d.Value)

	if got := d.Proof.CountValid(v, ctxAccept, digest, AcceptSignedMessage(d.Instance, d.Epoch, digest)); got < v.Quorum() {
		t.Fatalf("premise: the proof counts %d ACCEPTs, want at least %d", got, v.Quorum())
	}
	if got := d.Proof.CountValid(v, ctxPersist, digest, digest[:]); got != 0 {
		t.Fatalf("ACCEPT signatures count %d toward a PERSIST certificate, want 0", got)
	}

	persist := crypto.Certificate{Digest: digest}
	for i, key := range s.keys {
		persist.Add(crypto.Signature{Signer: int32(i), Sig: key.MustSign(ctxPersist, digest[:])})
	}
	if got := persist.CountValid(v, ctxPersist, digest, digest[:]); got != len(s.keys) {
		t.Fatalf("premise: the certificate counts %d PERSISTs, want %d", got, len(s.keys))
	}
	if err := VerifyDecisionProof(v, d.Instance, d.Epoch, digest, &persist, 1); err == nil {
		t.Fatal("PERSIST signatures passed as a decision proof")
	}
}

func TestMessageEncodingRoundTrips(t *testing.T) {
	key := crypto.SeededKeyPair("enc", 1)
	digest := crypto.HashBytes([]byte("v"))

	vm := voteMsg{Instance: 7, Epoch: 2, Digest: digest, Voter: 3, Sig: key.MustSign(ctxWrite, voteMessage(7, 2, digest))}
	got, err := decodeVote(vm.encode())
	if err != nil {
		t.Fatalf("vote: %v", err)
	}
	if got.Instance != 7 || got.Epoch != 2 || got.Digest != digest || got.Voter != 3 || !bytes.Equal(got.Sig, vm.Sig) {
		t.Fatalf("vote round trip: %+v", got)
	}

	pm := proposeMsg{Instance: 7, Epoch: 3, Value: []byte("value")}
	gotProp, err := decodePropose(pm.encode())
	if err != nil {
		t.Fatalf("propose: %v", err)
	}
	if gotProp.Instance != 7 || gotProp.Epoch != 3 || !bytes.Equal(gotProp.Value, []byte("value")) {
		t.Fatalf("propose round trip: %+v", gotProp)
	}

	// The retired format appended a justification (count + per-slot STOPs)
	// after the value; such trailing bytes must be rejected, not skipped.
	old := codec.NewEncoder(64)
	old.Int64(7)
	old.Int64(3)
	old.WriteBytes([]byte("value"))
	old.Uint32(0)
	if _, err := decodePropose(old.Bytes()); err == nil {
		t.Fatal("PROPOSE with trailing justification bytes must be rejected")
	}

	// Truncations must fail, not panic.
	for _, enc := range [][]byte{vm.encode(), pm.encode()} {
		for cut := 1; cut < len(enc); cut += 7 {
			_, _ = decodeVote(enc[:cut])
			_, _ = decodePropose(enc[:cut])
		}
	}
}

// TestRetiredStopFrameIsDropped delivers frames of the retired per-slot
// STOP type (number 103, reserved) to every machine, from members and with
// member-shaped payloads: they must be dropped without a panic, a
// synchronization round or a regency change, and ordering carries on.
func TestRetiredStopFrameIsDropped(t *testing.T) {
	const retiredMsgStop uint16 = 103
	if MsgAccept != 102 || MsgEpochStop != 104 || MsgDecided != 106 {
		t.Fatalf("surviving message numbers moved: ACCEPT %d, EPOCH-STOP %d, DECIDED %d", MsgAccept, MsgEpochStop, MsgDecided)
	}
	s := newSim(t, 8, 4, time.Second, nil)
	s.startAll(0, []byte("first"))
	s.run(s.allDecided(1))

	// An old-format STOP body for the live instance 1: length-prefixed
	// (instance, nextEpoch, voter, hasCert=false), then a signature.
	body := codec.NewEncoder(32)
	body.Int64(1)
	body.Int64(1)
	body.Int32(1)
	body.Bool(false)
	frame := codec.NewEncoder(128)
	frame.WriteBytes(body.Bytes())
	frame.WriteBytes(s.keys[1].MustSign("smartchain/consensus/stop/v1", body.Bytes()))
	for i := range s.ms {
		to := int32(i)
		for from := int32(1); from <= 3; from++ {
			s.post(to, event{kind: evMessage, msg: transport.Message{From: from, To: to, Type: retiredMsgStop, Payload: frame.Bytes()}})
		}
		s.post(to, event{kind: evMessage, msg: transport.Message{From: 1, To: to, Type: retiredMsgStop}})
	}

	s.startAll(1, []byte("second"))
	s.run(s.allDecided(2))
	s.requireAgreement(2)
	s.requireDecided(1, "second", 0)
	for i, m := range s.ms {
		if len(s.installs[i]) != 0 || m.regency != 0 {
			t.Fatalf("replica %d: retired STOP frames moved it to regency %d after %d rounds", i, m.regency, len(s.installs[i]))
		}
	}
}

func TestEngineIgnoresForeignAndForgedVotes(t *testing.T) {
	// A non-member's vote, and one forging a member's vote, must not
	// contribute to quorums or crash the machine.
	s := newSim(t, 9, 4, time.Second, nil)
	digest := crypto.HashBytes([]byte("evil"))
	intruderKey := crypto.SeededKeyPair("intruder", 99)
	foreign := voteMsg{Instance: 0, Epoch: 0, Digest: digest, Voter: 99, Sig: intruderKey.MustSign(ctxAccept, voteMessage(0, 0, digest))}
	// Sender 99 impersonating member 2 (From mismatch).
	forged := voteMsg{Instance: 0, Epoch: 0, Digest: digest, Voter: 2, Sig: make([]byte, crypto.SignatureSize)}
	for i := range s.ms {
		for _, vm := range []voteMsg{foreign, forged} {
			s.post(int32(i), event{kind: evMessage, msg: transport.Message{From: 99, To: int32(i), Type: MsgAccept, Payload: vm.encode()}})
		}
	}
	// Normal consensus still works alongside.
	s.startAll(0, []byte("legit"))
	s.run(s.allDecided(1))
	s.requireAgreement(1)
	s.requireDecided(0, "legit", 0)
}

func TestNonLeaderProposeIgnored(t *testing.T) {
	// Member 2 (not the leader of epoch 0) and non-member 50 send a PROPOSE
	// to the started followers before the leader does; all must ignore both.
	s := newSim(t, 10, 4, time.Second, nil)
	pm := proposeMsg{Instance: 0, Epoch: 0, Value: []byte("rogue")}
	for i := int32(1); i < 4; i++ {
		s.step(i, event{kind: evStart, inst: 0})
		for _, from := range []int32{2, 50} {
			s.step(i, event{kind: evMessage, msg: transport.Message{From: from, To: i, Type: MsgPropose, Payload: pm.encode()}})
		}
	}
	s.post(0, event{kind: evStart, inst: 0, value: []byte("legit")})
	s.run(s.allDecided(1))
	s.requireAgreement(1)
	s.requireDecided(0, "legit", 0)
}

func TestBufferedFutureInstanceMessages(t *testing.T) {
	// A replica that starts instance 1 late must still decide thanks to
	// buffering of early-arriving messages.
	s := newSim(t, 11, 4, time.Second, nil)
	s.startAll(0, []byte("first"))
	s.run(s.allDecided(1))

	// Start instance 1 on all but replica 3, which buffers what it receives.
	for i := int32(0); i < 3; i++ {
		ev := event{kind: evStart, inst: 1}
		if i == 0 {
			ev.value = []byte("second")
		}
		s.post(i, ev)
	}
	s.run(func() bool {
		return len(s.inflight) == 0 && len(s.decided[0]) == 2 && len(s.decided[1]) == 2 && len(s.decided[2]) == 2
	})
	if len(s.decided[3]) != 1 {
		t.Fatal("replica 3 decided instance 1 before starting it")
	}
	// Replica 3 starts late; the buffered PROPOSE/WRITE/ACCEPT replay.
	s.post(3, event{kind: evStart, inst: 1})
	s.run(s.allDecided(2))
	s.requireAgreement(2)
	s.requireDecided(1, "second", 0)
}
