package consensus

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"smartchain/internal/crypto"
	"smartchain/internal/transport"
)

// TestEpochChangeDrainsWindowInOneRound kills the epoch-0 leader with a
// full window of instances open: the regency-wide protocol must decide
// every slot after exactly ONE synchronization round.
func TestEpochChangeDrainsWindowInOneRound(t *testing.T) {
	h := newHarness(t, 4, 150*time.Millisecond, nil)
	h.kill(0)
	const W = 6
	for inst := int64(1); inst <= W; inst++ {
		for i, eng := range h.engines {
			if i == 0 {
				continue
			}
			eng.StartInstance(inst, nil)
		}
	}
	for i, eng := range h.engines {
		if i == 0 {
			continue
		}
		decisions := collectWindow(t, fmt.Sprintf("replica %d", i), eng, W)
		for inst := int64(1); inst <= W; inst++ {
			d, ok := decisions[inst]
			if !ok {
				t.Fatalf("replica %d missing instance %d", i, inst)
			}
			if d.Epoch == 0 {
				t.Fatalf("replica %d instance %d decided in epoch 0 despite dead leader", i, inst)
			}
		}
		if rounds := eng.SyncRounds(); rounds != 1 {
			t.Fatalf("replica %d used %d synchronization rounds for a %d-slot window, want 1", i, rounds, W)
		}
	}
}

// TestEpochChangeKeepsCertifiedValueAcrossWindow spreads a proposal for the
// FIRST window slot, kills the leader, and checks the single
// synchronization round re-proposes the certified value for that slot while
// the rest of the window decides filler.
func TestEpochChangeKeepsCertifiedValueAcrossWindow(t *testing.T) {
	h := newHarness(t, 4, 300*time.Millisecond, nil)
	value := []byte("must-survive")
	const W = 4
	for inst := int64(1); inst <= W; inst++ {
		for i, eng := range h.engines {
			switch {
			case i == 0 && inst == 1:
				eng.StartInstance(inst, value)
			case i == 0:
				// The leader leaves the rest of the window unproposed.
				eng.StartInstance(inst, nil)
			default:
				eng.StartInstance(inst, nil)
			}
		}
	}
	time.Sleep(60 * time.Millisecond) // let the proposal and WRITEs spread
	h.kill(0)
	for i, eng := range h.engines {
		if i == 0 {
			continue
		}
		decisions := collectWindow(t, fmt.Sprintf("replica %d", i), eng, W)
		if d := decisions[1]; !bytes.Equal(d.Value, value) {
			t.Fatalf("replica %d slot 1 decided %q, want %q (certified value must survive)", i, d.Value, value)
		}
		for inst := int64(2); inst <= W; inst++ {
			if d := decisions[inst]; !bytes.Equal(d.Value, []byte("fallback")) && len(d.Value) != 0 {
				t.Fatalf("replica %d slot %d decided %q, want fallback/empty", i, inst, d.Value)
			}
		}
	}
}

// TestEpochStopMessageRoundTripAndVerify exercises the new wire formats and
// their rejection paths.
func TestEpochStopMessageRoundTripAndVerify(t *testing.T) {
	h := newHarness(t, 4, time.Second, nil)
	// Produce a real decision to harvest a genuine write cert and proof.
	decisions := h.decideAll(1, []byte("v"), nil)
	d := decisions[1]
	value := []byte("v")
	digest := crypto.HashBytes(value)

	// Build a write cert from scratch (quorum of WRITE sigs for slot 2).
	wc := writeCert{Instance: 2, Epoch: 0, Digest: digest}
	for i := 0; i < 3; i++ {
		sig := h.keys[i].MustSign(ctxWrite, voteMessage(2, 0, digest))
		wc.Sigs = append(wc.Sigs, crypto.Signature{Signer: int32(i), Sig: sig})
	}

	sm := epochStopMsg{
		NextEpoch: 1,
		Voter:     2,
		Floor:     1,
		Claims: []slotClaim{
			{Instance: 1, Kind: claimDecided, Epoch: d.Epoch, Value: value, DProof: d.Proof},
			{Instance: 2, Kind: claimWrite, Epoch: 0, Value: value, WCert: wc},
		},
	}
	sm.Sig = h.keys[2].MustSign(ctxEpochStop, sm.signedPortion())

	got, err := decodeEpochStop(sm.encode())
	if err != nil {
		t.Fatalf("round trip: %v", err)
	}
	if got.NextEpoch != 1 || got.Voter != 2 || len(got.Claims) != 2 ||
		got.Claims[0].Kind != claimDecided || got.Claims[1].Kind != claimWrite {
		t.Fatalf("round trip mismatch: %+v", got)
	}
	if err := got.verify(h.view, h.view.Quorum()); err != nil {
		t.Fatalf("valid epoch stop rejected: %v", err)
	}

	// Tampered claim value must fail.
	bad := sm
	bad.Claims = append([]slotClaim(nil), sm.Claims...)
	bad.Claims[1].Value = []byte("other")
	bad.Sig = h.keys[2].MustSign(ctxEpochStop, bad.signedPortion())
	if err := bad.verify(h.view, h.view.Quorum()); err == nil {
		t.Fatal("claim with mismatched value must fail")
	}

	// A write certificate from the campaigned-for epoch (or later) proves
	// nothing about earlier epochs and must fail.
	late := sm
	late.Claims = append([]slotClaim(nil), sm.Claims...)
	late.Claims[1].Epoch, late.Claims[1].WCert.Epoch = 1, 1
	late.Sig = h.keys[2].MustSign(ctxEpochStop, late.signedPortion())
	if err := late.verify(h.view, h.view.Quorum()); err == nil {
		t.Fatal("claim with cert epoch ≥ next epoch must fail")
	}

	// A write certificate short of a quorum must fail.
	weak := sm
	weak.Claims = append([]slotClaim(nil), sm.Claims...)
	weak.Claims[1].WCert.Sigs = wc.Sigs[:2]
	weak.Sig = h.keys[2].MustSign(ctxEpochStop, weak.signedPortion())
	if err := weak.verify(h.view, h.view.Quorum()); err == nil {
		t.Fatal("claim with a sub-quorum cert must fail")
	}

	// Forged signature must fail.
	forged := sm
	forged.Sig = make([]byte, crypto.SignatureSize)
	if err := forged.verify(h.view, h.view.Quorum()); err == nil {
		t.Fatal("forged epoch stop signature must fail")
	}

	// Claims out of order must fail.
	unordered := sm
	unordered.Claims = []slotClaim{sm.Claims[1], sm.Claims[0]}
	unordered.Sig = h.keys[2].MustSign(ctxEpochStop, unordered.signedPortion())
	if err := unordered.verify(h.view, h.view.Quorum()); err == nil {
		t.Fatal("descending claims must fail")
	}

	// A sync whose re-proposal ignores the strongest claim must fail.
	e := h.engines[1]
	mkSync := func(slotValue []byte) epochSyncMsg {
		stops := make([]epochStopMsg, 0, 3)
		for _, voter := range []int32{1, 2, 3} {
			s := epochStopMsg{NextEpoch: 1, Voter: voter, Floor: 2,
				Claims: []slotClaim{{Instance: 2, Kind: claimWrite, Epoch: 0, Value: value, WCert: wc}}}
			s.Sig = h.keys[voter].MustSign(ctxEpochStop, s.signedPortion())
			stops = append(stops, s)
		}
		return epochSyncMsg{NextEpoch: 1, Justif: stops,
			Slots: []slotProposal{{Instance: 2, Value: slotValue}}}
	}
	good := mkSync(value)
	if _, ok := e.validEpochSync(&good); !ok {
		t.Fatal("valid epoch sync rejected")
	}
	dishonest := mkSync([]byte("usurper"))
	if _, ok := e.validEpochSync(&dishonest); ok {
		t.Fatal("sync ignoring a certified value must fail")
	}
	if rt, err := decodeEpochSync(good.encode()); err != nil || len(rt.Justif) != 3 || len(rt.Slots) != 1 {
		t.Fatalf("epoch sync round trip: %+v err=%v", rt, err)
	}
	// Truncations must fail, not panic.
	enc := good.encode()
	for cut := 1; cut < len(enc); cut += 11 {
		_, _ = decodeEpochSync(enc[:cut])
		_, _ = decodeEpochStop(enc[:cut])
	}
}

// TestEpochSyncSettledVotersCannotAttestUnlocked pins the stable-checkpoint
// rule of the regency-wide protocol: a voter whose Floor is above a slot has
// SETTLED it (decided and garbage-collected — it cannot show a claim), so
// it must not count toward the "nothing locked here" quorum. Without the
// exclusion, a quorum containing settled voters could look claim-free for a
// DECIDED slot and a new leader could re-propose a conflicting empty filler
// — a chain fork.
func TestEpochSyncSettledVotersCannotAttestUnlocked(t *testing.T) {
	h := newHarness(t, 4, time.Second, nil)
	e := h.engines[1]
	const slot = int64(5)

	mkStop := func(voter int32, floor int64, claims []slotClaim) epochStopMsg {
		s := epochStopMsg{NextEpoch: 1, Voter: voter, Floor: floor, Claims: claims}
		s.Sig = h.keys[voter].MustSign(ctxEpochStop, s.signedPortion())
		return s
	}
	mkSync := func(floors map[int32]int64, claims map[int32][]slotClaim, value []byte) epochSyncMsg {
		var justif []epochStopMsg
		for _, voter := range []int32{1, 2, 3} {
			justif = append(justif, mkStop(voter, floors[voter], claims[voter]))
		}
		return epochSyncMsg{NextEpoch: 1, Justif: justif,
			Slots: []slotProposal{{Instance: slot, Value: value}}}
	}

	// All three voters live on the slot and claim nothing: the empty
	// re-proposal is provably safe.
	allLive := mkSync(map[int32]int64{1: 5, 2: 5, 3: 5}, nil, nil)
	if _, ok := e.validEpochSync(&allLive); !ok {
		t.Fatal("empty re-proposal with a full live quorum must validate")
	}

	// One voter settled the slot (Floor 6 > 5): only two live attestations
	// remain — below quorum — and the slot may have decided a value this
	// justification cannot show. The empty re-proposal must be rejected.
	settled := mkSync(map[int32]int64{1: 6, 2: 5, 3: 5}, nil, nil)
	if _, ok := e.validEpochSync(&settled); ok {
		t.Fatal("empty re-proposal must fail when a quorum voter settled the slot")
	}

	// Same electorate, but a live voter shows a write certificate for the
	// slot: re-proposing THAT value is valid (the claim path does not need
	// unlocked attestations).
	value := []byte("locked")
	digest := crypto.HashBytes(value)
	wc := writeCert{Instance: slot, Epoch: 0, Digest: digest}
	for i := 0; i < 3; i++ {
		sig := h.keys[i].MustSign(ctxWrite, voteMessage(slot, 0, digest))
		wc.Sigs = append(wc.Sigs, crypto.Signature{Signer: int32(i), Sig: sig})
	}
	claimed := mkSync(map[int32]int64{1: 6, 2: 5, 3: 5},
		map[int32][]slotClaim{2: {{Instance: slot, Kind: claimWrite, Epoch: 0, Value: value, WCert: wc}}},
		value)
	if _, ok := e.validEpochSync(&claimed); !ok {
		t.Fatal("certified re-proposal must validate regardless of settled voters")
	}
}

// TestStaleCampaignerReceivesSyncResend is the engine-level gate for the
// stale-campaigner resync: replica 3 contributes its EPOCH-STOP to the
// regency-1 campaign but — one-way partitioned — misses the EPOCH-SYNC.
// Once healed, its re-broadcast campaign for the ALREADY-INSTALLED epoch
// must make the regency-1 leader re-send the retained certificate, after
// which replica 3 installs the regency and the window (whose quorum needs
// its votes: only 3 of 4 engines are alive) decides everywhere — without
// any further synchronization round.
func TestStaleCampaignerReceivesSyncResend(t *testing.T) {
	h := newHarness(t, 4, 200*time.Millisecond, nil)
	// One-way partition: engine 3 sends, but receives nothing.
	deaf3 := h.net.AddFilter(func(m transport.Message) bool { return m.To == 3 })
	h.kill(0)
	const W = 4
	for inst := int64(1); inst <= W; inst++ {
		for i, eng := range h.engines {
			if i == 0 {
				continue
			}
			eng.StartInstance(inst, nil)
		}
	}

	// {1,2} install regency 1 using 3's stop; 3 itself stays at 0.
	deadline := time.Now().Add(15 * time.Second)
	for h.engines[1].Regency() < 1 || h.engines[2].Regency() < 1 {
		if time.Now().After(deadline) {
			t.Fatal("majority never installed regency 1")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if got := h.engines[3].Regency(); got != 0 {
		t.Fatalf("partitioned engine installed regency %d; expected to be stale", got)
	}

	// Heal: 3's re-broadcast stale campaign must pull the retained SYNC
	// certificate from the regency-1 leader and the window must decide on
	// every live engine (nothing can decide without 3's votes).
	h.net.RemoveFilter(deaf3)
	for i := 1; i <= 3; i++ {
		decisions := collectWindow(t, fmt.Sprintf("replica %d", i), h.engines[i], W)
		for inst := int64(1); inst <= W; inst++ {
			if _, ok := decisions[inst]; !ok {
				t.Fatalf("replica %d missing instance %d after resync", i, inst)
			}
		}
	}
	for i := 1; i <= 3; i++ {
		if rounds := h.engines[i].SyncRounds(); rounds != 1 {
			t.Fatalf("replica %d ran %d synchronization rounds, want exactly 1 (no new epoch)", i, rounds)
		}
	}
}
