package consensus

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"smartchain/internal/crypto"
	"smartchain/internal/transport"
	"smartchain/internal/view"
)

// testView builds an n-member view with seeded consensus keys.
func testView(n int) ([]*crypto.KeyPair, view.View) {
	keys := make([]*crypto.KeyPair, n)
	members := make([]int32, n)
	pubs := make(map[int32]crypto.PublicKey, n)
	for i := range keys {
		keys[i] = crypto.SeededKeyPair("consensus-test", int64(i))
		members[i] = int32(i)
		pubs[int32(i)] = keys[i].Public()
	}
	return keys, view.New(0, members, pubs)
}

const simTimeout = time.Second

// sim drives n machines in the calling goroutine under virtual time: every
// effect a step returns becomes an in-flight event, in-flight events are
// delivered in a seeded random order, and only when none is left does the
// clock jump to the next slot deadline.
type sim struct {
	t        *testing.T
	rng      *rand.Rand
	now      time.Time
	keys     []*crypto.KeyPair
	ms       []*machine
	inflight []simEvent
	down     map[int32]bool               // replicas that neither receive nor tick
	drop     func(transport.Message) bool // messages lost in flight
	decided  []map[int64]Decision         // per replica
	installs [][]time.Time                // per replica: when each regency was installed
}

type simEvent struct {
	to int32
	ev event
}

// newSim builds n machines over one view with the given progress timeout
// and Validate hook; a leader of a later regency with nothing locked
// proposes "fallback".
func newSim(t *testing.T, seed int64, n int, timeout time.Duration, validate func(int64, []byte) bool) *sim {
	keys, v := testView(n)
	s := &sim{t: t, rng: rand.New(rand.NewSource(seed)), now: time.Unix(1_000_000, 0), keys: keys,
		down: map[int32]bool{}}
	for i := range keys {
		s.ms = append(s.ms, newMachine(Config{Self: int32(i), View: v, Signer: keys[i], Timeout: timeout, Validate: validate,
			RequestValue: func(int64) []byte { return []byte("fallback") }}))
		s.decided = append(s.decided, map[int64]Decision{})
		s.installs = append(s.installs, nil)
	}
	return s
}

// post puts an event in flight towards replica to.
func (s *sim) post(to int32, ev event) { s.inflight = append(s.inflight, simEvent{to, ev}) }

// startAll puts a start of inst in flight at every replica, the leader of
// epoch 0 proposing value.
func (s *sim) startAll(inst int64, value []byte) {
	for i := range s.ms {
		ev := event{kind: evStart, inst: inst}
		if i == 0 {
			ev.value = value
		}
		s.post(int32(i), ev)
	}
}

// step applies one event to replica i now and puts its effects in flight.
func (s *sim) step(i int32, ev event) {
	for _, fx := range s.ms[i].step(s.now, ev) {
		switch fx.kind {
		case fxSend, fxBroadcast:
			for to := range s.ms {
				if int32(to) == i || (fx.kind == fxSend && int32(to) != fx.to) {
					continue
				}
				msg := transport.Message{From: i, To: int32(to), Type: fx.typ, Payload: fx.payload}
				if s.drop == nil || !s.drop(msg) {
					s.post(msg.To, event{kind: evMessage, msg: msg})
				}
			}
		case fxDecide:
			if prev, dup := s.decided[i][fx.decision.Instance]; dup {
				s.t.Fatalf("replica %d decided instance %d twice: %q then %q", i, fx.decision.Instance, prev.Value, fx.decision.Value)
			}
			s.decided[i][fx.decision.Instance] = fx.decision
		case fxEpochInstalled:
			s.installs[i] = append(s.installs[i], s.now)
		}
	}
}

// run delivers in-flight events in seeded order, and ticks the clock forward
// to the earliest deadline whenever nothing is in flight, until done holds.
func (s *sim) run(done func() bool) {
	for steps := 0; !done(); steps++ {
		if steps > 100_000 {
			s.t.Fatalf("no convergence after %d steps (virtual %v)", steps, s.now.Sub(time.Unix(1_000_000, 0)))
		}
		if n := len(s.inflight); n > 0 {
			k := s.rng.Intn(n)
			e := s.inflight[k]
			s.inflight[k] = s.inflight[n-1]
			s.inflight = s.inflight[:n-1]
			if !s.down[e.to] {
				s.step(e.to, e.ev)
			}
			continue
		}
		var next time.Time
		for i, m := range s.ms {
			if d := m.nextDeadline(); !s.down[int32(i)] && !d.IsZero() && (next.IsZero() || d.Before(next)) {
				next = d
			}
		}
		if next.IsZero() {
			s.t.Fatalf("stuck: nothing in flight and no deadline pending")
		}
		s.now = next
		for i, m := range s.ms {
			if d := m.nextDeadline(); !s.down[int32(i)] && !d.IsZero() && !d.After(s.now) {
				s.step(int32(i), event{kind: evTick})
			}
		}
	}
}

// allDecided reports whether every live replica decided instances [0, count).
func (s *sim) allDecided(count int64) func() bool {
	return func() bool {
		for i := range s.ms {
			if !s.down[int32(i)] && int64(len(s.decided[i])) < count {
				return false
			}
		}
		return true
	}
}

// requireAgreement checks every live replica decided [0, count) with one
// value per instance, each carrying a verifying 2f+1 proof.
func (s *sim) requireAgreement(count int64) {
	s.t.Helper()
	v := s.ms[0].cfg.View
	for inst := int64(0); inst < count; inst++ {
		var first *Decision
		for i := range s.ms {
			if s.down[int32(i)] {
				continue
			}
			d, ok := s.decided[i][inst]
			if !ok {
				s.t.Fatalf("replica %d did not decide instance %d", i, inst)
			}
			if d.Proof.Count() < v.Quorum() {
				s.t.Fatalf("replica %d instance %d: proof has %d signatures, want ≥ %d", i, inst, d.Proof.Count(), v.Quorum())
			}
			if err := VerifyDecisionProof(v, inst, d.Epoch, crypto.HashBytes(d.Value), &d.Proof, v.Quorum()); err != nil {
				s.t.Fatalf("replica %d instance %d: %v", i, inst, err)
			}
			if first == nil {
				first = &d
			} else if !bytes.Equal(first.Value, d.Value) {
				s.t.Fatalf("instance %d: replicas decided %q and %q", inst, first.Value, d.Value)
			}
		}
	}
}

// requireDecided checks every live replica decided value for inst in epoch.
func (s *sim) requireDecided(inst int64, value string, epoch int64) {
	s.t.Helper()
	for i := range s.ms {
		if d, ok := s.decided[i][inst]; !s.down[int32(i)] && (!ok || string(d.Value) != value || d.Epoch != epoch) {
			s.t.Fatalf("replica %d instance %d: decided %q in epoch %d (%v), want %q in epoch %d", i, inst, d.Value, d.Epoch, ok, value, epoch)
		}
	}
}

// (a) The normal case decides with a 2f+1 proof, in no virtual time.
func TestMachineNormalCase(t *testing.T) {
	s := newSim(t, 1, 4, simTimeout, nil)
	start := s.now
	s.startAll(0, []byte("v0"))
	s.run(s.allDecided(1))
	s.requireAgreement(1)
	if got := s.decided[2][0]; string(got.Value) != "v0" || got.Epoch != 0 {
		t.Fatalf("decided %q in epoch %d, want v0 in epoch 0", got.Value, got.Epoch)
	}
	if !s.now.Equal(start) {
		t.Fatalf("the normal case consumed %v of virtual time", s.now.Sub(start))
	}
}

// (b) W=8 with a silent leader: one timeout, exactly one regency installed
// per replica, and all eight slots decide.
func TestMachineSilentLeaderDrainsWindowInOneRound(t *testing.T) {
	s := newSim(t, 2, 4, simTimeout, nil)
	start := s.now
	s.down[0] = true
	for inst := int64(0); inst < 8; inst++ {
		s.startAll(inst, nil)
	}
	s.run(s.allDecided(8))
	s.requireAgreement(8)
	for i := 1; i < 4; i++ {
		if len(s.installs[i]) != 1 {
			t.Fatalf("replica %d installed %d regencies, want exactly 1", i, len(s.installs[i]))
		}
		if s.ms[i].regency != 1 {
			t.Fatalf("replica %d at regency %d, want 1", i, s.ms[i].regency)
		}
	}
	if got := s.now.Sub(start); got != simTimeout {
		t.Fatalf("window drained after %v, want exactly one timeout (%v)", got, simTimeout)
	}
}

// (c) A value with a write certificate survives the epoch change: every
// ACCEPT is lost and the leader dies, yet the next leader re-proposes it.
func TestMachineCertifiedValueSurvivesEpochChange(t *testing.T) {
	s := newSim(t, 3, 4, simTimeout, nil)
	s.drop = func(m transport.Message) bool { return m.Type == MsgAccept }
	s.startAll(0, []byte("locked"))
	s.run(func() bool {
		for i := 1; i < 4; i++ {
			if st := s.ms[i].states[0]; st == nil || st.myWriteCert == nil {
				return false
			}
		}
		return len(s.inflight) == 0
	})
	s.down[0], s.drop = true, nil
	s.run(s.allDecided(1))
	s.requireAgreement(1)
	for i := 1; i < 4; i++ {
		if d := s.decided[i][0]; string(d.Value) != "locked" || d.Epoch != 1 {
			t.Fatalf("replica %d decided %q in epoch %d, want the certified value in epoch 1", i, d.Value, d.Epoch)
		}
	}
}

// (d) A straggler sending traffic for a settled instance is answered with
// the decision certificate once per Timeout/4, not once per message.
func TestMachineDecidedRetransmitIsRateLimited(t *testing.T) {
	s := newSim(t, 4, 4, simTimeout, nil)
	s.startAll(0, []byte("v0"))
	s.startAll(1, []byte("v1"))
	s.run(s.allDecided(2))
	m := s.ms[0]
	if m.floor < 1 {
		t.Fatalf("floor %d: instance 0 not settled", m.floor)
	}
	s.now = s.now.Add(simTimeout) // past any certificate the run itself drew
	stale := voteMsg{Instance: 0, Epoch: 0, Voter: 3, Sig: []byte("whatever")}
	ev := event{kind: evMessage, msg: transport.Message{From: 3, To: 0, Type: MsgWrite, Payload: stale.encode()}}
	answers := func() int {
		n := 0
		for i := 0; i < 10; i++ {
			for _, fx := range m.step(s.now, ev) {
				if fx.kind == fxSend && fx.typ == MsgDecided && fx.to == 3 {
					n++
				}
			}
		}
		return n
	}
	if n := answers(); n != 1 {
		t.Fatalf("10 stale votes at one instant drew %d certificates, want 1", n)
	}
	s.now = s.now.Add(simTimeout/4 - time.Nanosecond)
	if n := answers(); n != 0 {
		t.Fatalf("%d certificates inside the rate limit, want 0", n)
	}
	s.now = s.now.Add(time.Nanosecond)
	if n := answers(); n != 1 {
		t.Fatalf("%d certificates once Timeout/4 passed, want 1", n)
	}
}

// (e) A slot's progress timeout doubles with every regency it lives
// through and stops at 4×Timeout: with every re-proposal lost, the
// regencies install T, 2T, 4T, 4T, 4T apart.
func TestMachineBackoffDoublesAndCaps(t *testing.T) {
	s := newSim(t, 5, 4, simTimeout, nil)
	start := s.now
	s.drop = func(m transport.Message) bool { return m.Type == MsgPropose || m.Type == MsgEpochSync }
	s.startAll(0, []byte("never arrives"))
	s.run(func() bool { return len(s.installs[1]) == 5 })
	prev := start
	for k, want := range []time.Duration{1, 2, 4, 4, 4} {
		if got := s.installs[1][k].Sub(prev); got != want*simTimeout {
			t.Fatalf("regency %d installed %v after the previous one, want %v", k+1, got, want*simTimeout)
		}
		prev = s.installs[1][k]
	}
	if got := s.ms[1].states[0].timeout; got != 4*simTimeout {
		t.Fatalf("slot timeout %v, want the %v cap", got, 4*simTimeout)
	}
}

// (f) A vote the runtime pre-verified against a key that has since been
// rotated is verified again inline against the installed key.
func TestMachineReverifiesVoteAfterKeyRotation(t *testing.T) {
	s := newSim(t, 6, 4, simTimeout, nil)
	m := s.ms[1]
	value := []byte("v0")
	digest := crypto.HashBytes(value)
	pm := proposeMsg{Instance: 0, Value: value}
	m.step(s.now, event{kind: evStart, inst: 0})
	m.step(s.now, event{kind: evMessage, msg: transport.Message{From: 0, To: 1, Type: MsgPropose, Payload: pm.encode()}})

	oldKey, newKey := s.keys[2], crypto.SeededKeyPair("consensus-test-rotated", 2)
	m.step(s.now, event{kind: evUpdateKey, keyID: 2, key: newKey.Public()})
	vote := func(signer *crypto.KeyPair) event {
		vm := voteMsg{Instance: 0, Digest: digest, Voter: 2, Sig: signer.MustSign(ctxWrite, voteMessage(0, 0, digest))}
		// The hint claims the signature checked out under the OLD key.
		return event{kind: evMessage, vote: &vm, votePub: oldKey.Public(),
			msg: transport.Message{From: 2, To: 1, Type: MsgWrite, Payload: vm.encode()}}
	}
	recorded := func() bool {
		_, ok := m.states[0].votes[phaseWrite][0][digest][2]
		return ok
	}
	m.step(s.now, vote(oldKey))
	if recorded() {
		t.Fatal("a vote signed with the rotated-out key was accepted on its stale pre-verification")
	}
	m.step(s.now, vote(newKey))
	if !recorded() {
		t.Fatal("a vote signed with the installed key was rejected because its pre-verification hint was stale")
	}
}

// (g) Whatever order one instance's starts, PROPOSEs, WRITEs and ACCEPTs
// arrive in, all four replicas reach the same single decision without a
// synchronization round.
func TestMachineAnyDeliveryOrderSameDecision(t *testing.T) {
	for seed := int64(0); seed < 64; seed++ {
		s := newSim(t, seed, 4, simTimeout, nil)
		s.startAll(0, []byte(fmt.Sprintf("v-%d", seed)))
		s.run(s.allDecided(1))
		s.run(func() bool { return len(s.inflight) == 0 }) // late votes must not decide again
		s.requireAgreement(1)
		for i := range s.ms {
			if len(s.installs[i]) != 0 || s.decided[i][0].Epoch != 0 {
				t.Fatalf("seed %d: replica %d needed a synchronization round", seed, i)
			}
		}
	}
}
