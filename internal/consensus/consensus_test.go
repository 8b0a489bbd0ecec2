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

// harness wires n engines over a MemNetwork.
type harness struct {
	t       *testing.T
	net     *transport.MemNetwork
	view    view.View
	keys    []*crypto.KeyPair
	engines []*Engine
	eps     []transport.Endpoint
	stops   []chan struct{}
}

func newHarness(t *testing.T, n int, timeout time.Duration, validate func(int64, []byte) bool) *harness {
	t.Helper()
	h := &harness{t: t, net: transport.NewMemNetwork()}
	members := make([]int32, n)
	pubs := make(map[int32]crypto.PublicKey, n)
	h.keys = make([]*crypto.KeyPair, n)
	for i := 0; i < n; i++ {
		members[i] = int32(i)
		h.keys[i] = crypto.SeededKeyPair("consensus-test", int64(i))
		pubs[int32(i)] = h.keys[i].Public()
	}
	h.view = view.New(0, members, pubs)
	h.engines = make([]*Engine, n)
	h.eps = make([]transport.Endpoint, n)
	h.stops = make([]chan struct{}, n)
	for i := 0; i < n; i++ {
		ep := h.net.Endpoint(int32(i))
		h.eps[i] = ep
		cfg := Config{
			Self:     int32(i),
			View:     h.view,
			Signer:   h.keys[i],
			Send:     func(to int32, typ uint16, p []byte) { _ = ep.Send(to, typ, p) },
			Timeout:  timeout,
			Validate: validate,
			RequestValue: func(int64) []byte {
				return []byte("fallback")
			},
		}
		eng := New(cfg)
		h.engines[i] = eng
		eng.Start()
		stop := make(chan struct{})
		h.stops[i] = stop
		go func(ep transport.Endpoint, eng *Engine, stop chan struct{}) {
			for {
				select {
				case m, ok := <-ep.Receive():
					if !ok {
						return
					}
					eng.HandleMessage(m)
				case <-stop:
					return
				}
			}
		}(ep, eng, stop)
	}
	t.Cleanup(h.Close)
	return h
}

func (h *harness) Close() {
	for i, eng := range h.engines {
		if eng != nil {
			eng.Stop()
		}
		select {
		case <-h.stops[i]:
		default:
			close(h.stops[i])
		}
		h.eps[i].Close()
	}
}

// kill detaches replica i from the network and stops its engine.
func (h *harness) kill(i int) {
	h.engines[i].Stop()
	close(h.stops[i])
	h.net.Detach(int32(i))
}

func (h *harness) decideAll(instance int64, proposal []byte, except map[int]bool) map[int]Decision {
	h.t.Helper()
	leader := int(h.view.Leader(0))
	for i, eng := range h.engines {
		if except[i] {
			continue
		}
		if i == leader {
			eng.StartInstance(instance, proposal)
		} else {
			eng.StartInstance(instance, nil)
		}
	}
	return h.collect(instance, except)
}

func (h *harness) collect(instance int64, except map[int]bool) map[int]Decision {
	h.t.Helper()
	out := make(map[int]Decision)
	deadline := time.After(10 * time.Second)
	for i, eng := range h.engines {
		if except[i] {
			continue
		}
		select {
		case d := <-eng.Decisions():
			if d.Instance != instance {
				h.t.Fatalf("replica %d decided instance %d, want %d", i, d.Instance, instance)
			}
			out[i] = d
		case <-deadline:
			h.t.Fatalf("replica %d did not decide instance %d", i, instance)
		}
	}
	return out
}

func TestNormalCaseDecision(t *testing.T) {
	h := newHarness(t, 4, time.Second, nil)
	value := []byte("batch-1")
	decisions := h.decideAll(1, value, nil)
	for i, d := range decisions {
		if !bytes.Equal(d.Value, value) {
			t.Fatalf("replica %d decided %q, want %q", i, d.Value, value)
		}
		if d.Epoch != 0 {
			t.Fatalf("replica %d decided in epoch %d, want 0", i, d.Epoch)
		}
		if err := VerifyDecisionProof(h.view, d.Instance, d.Epoch, crypto.HashBytes(d.Value), &d.Proof, h.view.Quorum()); err != nil {
			t.Fatalf("replica %d proof invalid: %v", i, err)
		}
	}
}

func TestSequenceOfInstances(t *testing.T) {
	h := newHarness(t, 4, time.Second, nil)
	for inst := int64(1); inst <= 5; inst++ {
		value := []byte(fmt.Sprintf("batch-%d", inst))
		decisions := h.decideAll(inst, value, nil)
		for i, d := range decisions {
			if !bytes.Equal(d.Value, value) {
				t.Fatalf("instance %d replica %d: %q", inst, i, d.Value)
			}
		}
	}
}

func TestDecisionWithOneCrashedFollower(t *testing.T) {
	h := newHarness(t, 4, time.Second, nil)
	h.kill(3) // follower (leader of epoch 0 is member 0)
	except := map[int]bool{3: true}
	decisions := h.decideAll(1, []byte("minus-one"), except)
	if len(decisions) != 3 {
		t.Fatalf("got %d decisions", len(decisions))
	}
}

func TestLeaderFailureTriggersSynchronization(t *testing.T) {
	h := newHarness(t, 4, 150*time.Millisecond, nil)
	h.kill(0) // epoch-0 leader is replica 0
	except := map[int]bool{0: true}
	for i, eng := range h.engines {
		if except[i] {
			continue
		}
		eng.StartInstance(1, nil) // nobody proposes: the dead leader should have
	}
	decisions := h.collect(1, except)
	for i, d := range decisions {
		if d.Epoch == 0 {
			t.Fatalf("replica %d decided in epoch 0 despite dead leader", i)
		}
		// New leader had no certified value, so it proposed its fallback.
		if !bytes.Equal(d.Value, []byte("fallback")) {
			t.Fatalf("replica %d decided %q", i, d.Value)
		}
		if err := VerifyDecisionProof(h.view, d.Instance, d.Epoch, crypto.HashBytes(d.Value), &d.Proof, h.view.Quorum()); err != nil {
			t.Fatalf("replica %d proof: %v", i, err)
		}
	}
	// All correct replicas must agree.
	var first Decision
	got := false
	for _, d := range decisions {
		if !got {
			first, got = d, true
			continue
		}
		if !bytes.Equal(d.Value, first.Value) || d.Epoch != first.Epoch {
			t.Fatalf("divergent decisions: %+v vs %+v", d, first)
		}
	}
}

func TestLeaderFailureAfterProposeKeepsValue(t *testing.T) {
	// The leader proposes, the proposal spreads, and then the leader dies.
	// If any replica assembled a write certificate, the synchronization
	// phase must re-propose the SAME value (agreement across epochs).
	h := newHarness(t, 4, 300*time.Millisecond, nil)
	value := []byte("must-survive")
	// Leader proposes to everyone, then we immediately kill it. The other
	// three replicas can reach a write quorum among themselves.
	for i, eng := range h.engines {
		if i == 0 {
			eng.StartInstance(1, value)
		} else {
			eng.StartInstance(1, nil)
		}
	}
	time.Sleep(50 * time.Millisecond) // let the proposal and writes spread
	h.kill(0)
	decisions := h.collect(1, map[int]bool{0: true})
	for i, d := range decisions {
		if !bytes.Equal(d.Value, value) {
			t.Fatalf("replica %d decided %q, want %q (value must survive leader change)", i, d.Value, value)
		}
	}
}

func TestValidateRejectsProposal(t *testing.T) {
	// All replicas reject the poisoned value; the leader's proposal dies
	// and a synchronization phase elects replica 1, which proposes its
	// fallback.
	validate := func(_ int64, v []byte) bool { return !bytes.Equal(v, []byte("poison")) }
	h := newHarness(t, 4, 150*time.Millisecond, validate)
	for i, eng := range h.engines {
		if i == 0 {
			eng.StartInstance(1, []byte("poison"))
		} else {
			eng.StartInstance(1, nil)
		}
	}
	decisions := h.collect(1, map[int]bool{0: true})
	for i, d := range decisions {
		if bytes.Equal(d.Value, []byte("poison")) {
			t.Fatalf("replica %d decided the rejected value", i)
		}
	}
	_ = decisions
}

func TestProofSignerAreViewMembers(t *testing.T) {
	h := newHarness(t, 7, time.Second, nil)
	decisions := h.decideAll(1, []byte("v"), nil)
	for _, d := range decisions {
		if d.Proof.Count() < h.view.Quorum() {
			t.Fatalf("proof too small: %d", d.Proof.Count())
		}
		for _, s := range d.Proof.Signers() {
			if !h.view.Contains(s) {
				t.Fatalf("proof signer %d not in view", s)
			}
		}
	}
}

func TestSevenReplicasTolerateTwoCrashes(t *testing.T) {
	h := newHarness(t, 7, time.Second, nil)
	h.kill(5)
	h.kill(6)
	except := map[int]bool{5: true, 6: true}
	decisions := h.decideAll(1, []byte("n7f2"), except)
	if len(decisions) != 5 {
		t.Fatalf("got %d decisions", len(decisions))
	}
}

func TestVerifyDecisionProofRejections(t *testing.T) {
	h := newHarness(t, 4, time.Second, nil)
	decisions := h.decideAll(1, []byte("v"), nil)
	d := decisions[0]
	digest := crypto.HashBytes(d.Value)

	if err := VerifyDecisionProof(h.view, d.Instance, d.Epoch, digest, nil, 3); err == nil {
		t.Fatal("nil proof must fail")
	}
	if err := VerifyDecisionProof(h.view, d.Instance+1, d.Epoch, digest, &d.Proof, 3); err == nil {
		t.Fatal("wrong instance must fail")
	}
	if err := VerifyDecisionProof(h.view, d.Instance, d.Epoch+1, digest, &d.Proof, 3); err == nil {
		t.Fatal("wrong epoch must fail")
	}
	bad := crypto.HashBytes([]byte("other"))
	if err := VerifyDecisionProof(h.view, d.Instance, d.Epoch, bad, &d.Proof, 3); err == nil {
		t.Fatal("wrong digest must fail")
	}
	if err := VerifyDecisionProof(h.view, d.Instance, d.Epoch, digest, &d.Proof, d.Proof.Count()+1); err == nil {
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
// STOP type (number 103, reserved) to running engines, from a member and
// with member-shaped payloads: they must be dropped without a panic, a
// synchronization round or a regency change, and ordering carries on.
func TestRetiredStopFrameIsDropped(t *testing.T) {
	const retiredMsgStop uint16 = 103
	if MsgAccept != 102 || MsgEpochStop != 104 || MsgDecided != 106 {
		t.Fatalf("surviving message numbers moved: ACCEPT %d, EPOCH-STOP %d, DECIDED %d", MsgAccept, MsgEpochStop, MsgDecided)
	}
	h := newHarness(t, 4, time.Second, nil)
	h.decideAll(1, []byte("first"), nil)

	// An old-format STOP body for the live instance 2: length-prefixed
	// (instance, nextEpoch, voter, hasCert=false), then a signature.
	body := codec.NewEncoder(32)
	body.Int64(2)
	body.Int64(1)
	body.Int32(1)
	body.Bool(false)
	frame := codec.NewEncoder(128)
	frame.WriteBytes(body.Bytes())
	frame.WriteBytes(h.keys[1].MustSign("smartchain/consensus/stop/v1", body.Bytes()))
	for _, eng := range h.engines {
		for from := int32(1); from <= 3; from++ {
			eng.HandleMessage(transport.Message{From: from, Type: retiredMsgStop, Payload: frame.Bytes()})
		}
		eng.HandleMessage(transport.Message{From: 1, Type: retiredMsgStop, Payload: nil})
	}

	decisions := h.decideAll(2, []byte("second"), nil)
	for i, d := range decisions {
		if !bytes.Equal(d.Value, []byte("second")) || d.Epoch != 0 {
			t.Fatalf("replica %d decided %q in epoch %d, want \"second\" in epoch 0", i, d.Value, d.Epoch)
		}
	}
	for i, eng := range h.engines {
		if eng.SyncRounds() != 0 || eng.Regency() != 0 {
			t.Fatalf("replica %d: retired STOP frames moved it to regency %d after %d rounds",
				i, eng.Regency(), eng.SyncRounds())
		}
	}
}

func TestEngineIgnoresForeignAndForgedVotes(t *testing.T) {
	// A non-member, and a member forging another member's vote, must not
	// contribute to quorums or crash the engine.
	h := newHarness(t, 4, time.Second, nil)
	intruderEp := h.net.Endpoint(99)
	defer intruderEp.Close()

	digest := crypto.HashBytes([]byte("evil"))
	intruderKey := crypto.SeededKeyPair("intruder", 99)
	vm := voteMsg{Instance: 1, Epoch: 0, Digest: digest, Voter: 99, Sig: intruderKey.MustSign(ctxAccept, voteMessage(1, 0, digest))}
	for i := 0; i < 4; i++ {
		_ = intruderEp.Send(int32(i), MsgAccept, vm.encode())
	}
	// Member 99 impersonating member 2 (From mismatch).
	vm2 := voteMsg{Instance: 1, Epoch: 0, Digest: digest, Voter: 2, Sig: make([]byte, crypto.SignatureSize)}
	for i := 0; i < 4; i++ {
		_ = intruderEp.Send(int32(i), MsgAccept, vm2.encode())
	}
	// Normal consensus still works afterwards.
	decisions := h.decideAll(1, []byte("legit"), nil)
	for i, d := range decisions {
		if !bytes.Equal(d.Value, []byte("legit")) {
			t.Fatalf("replica %d decided %q", i, d.Value)
		}
	}
}

func TestNonLeaderProposeIgnored(t *testing.T) {
	h := newHarness(t, 4, time.Second, nil)
	// Replica 2 (not leader of epoch 0) sends a PROPOSE.
	rogueEp := h.net.Endpoint(50)
	defer rogueEp.Close()
	pm := proposeMsg{Instance: 1, Epoch: 0, Value: []byte("rogue")}
	// Sent "from" endpoint 50 which is not leader; engines must ignore it.
	for i := 0; i < 4; i++ {
		_ = rogueEp.Send(int32(i), MsgPropose, pm.encode())
	}
	decisions := h.decideAll(1, []byte("legit"), nil)
	for i, d := range decisions {
		if !bytes.Equal(d.Value, []byte("legit")) {
			t.Fatalf("replica %d decided rogue value %q", i, d.Value)
		}
	}
}

func TestBufferedFutureInstanceMessages(t *testing.T) {
	// A replica that starts instance 2 late must still decide thanks to
	// buffering of early-arriving messages.
	h := newHarness(t, 4, time.Second, nil)
	h.decideAll(1, []byte("first"), nil)

	// Start instance 2 on all but replica 3.
	for i, eng := range h.engines {
		if i == 3 {
			continue
		}
		if i == 0 {
			eng.StartInstance(2, []byte("second"))
		} else {
			eng.StartInstance(2, nil)
		}
	}
	h.collect(2, map[int]bool{3: true})
	// Replica 3 starts late; buffered PROPOSE/WRITE/ACCEPT replay.
	h.engines[3].StartInstance(2, nil)
	select {
	case d := <-h.engines[3].Decisions():
		if d.Instance != 2 || !bytes.Equal(d.Value, []byte("second")) {
			t.Fatalf("late replica decided %+v", d)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("late replica never decided instance 2")
	}
}
