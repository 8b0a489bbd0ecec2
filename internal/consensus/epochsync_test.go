package consensus

import (
	"testing"
	"time"

	"smartchain/internal/crypto"
	"smartchain/internal/transport"
)

// TestEpochChangeKeepsCertifiedValueAcrossWindow spreads a proposal for the
// FIRST window slot with every ACCEPT lost, kills the leader, and checks the
// single synchronization round re-proposes the certified value for that
// slot while the rest of the window decides the fallback.
func TestEpochChangeKeepsCertifiedValueAcrossWindow(t *testing.T) {
	s := newSim(t, 14, 4, 300*time.Millisecond, nil)
	const W = 4
	s.drop = func(m transport.Message) bool { return m.Type == MsgAccept }
	s.startAll(0, []byte("must-survive"))
	for inst := int64(1); inst < W; inst++ {
		s.startAll(inst, nil) // the leader leaves the rest of the window unproposed
	}
	s.run(func() bool {
		for i := 1; i < 4; i++ {
			if st := s.ms[i].states[0]; st == nil || st.myWriteCert == nil {
				return false
			}
		}
		return len(s.inflight) == 0
	})
	s.down[0], s.drop = true, nil
	s.run(s.allDecided(W))
	s.requireAgreement(W)
	s.requireDecided(0, "must-survive", 1)
	for inst := int64(1); inst < W; inst++ {
		s.requireDecided(inst, "fallback", 1)
	}
	for i := 1; i < 4; i++ {
		if len(s.installs[i]) != 1 {
			t.Fatalf("replica %d ran %d synchronization rounds, want 1", i, len(s.installs[i]))
		}
	}
}

// TestEpochStopMessageRoundTripAndVerify exercises the new wire formats and
// their rejection paths.
func TestEpochStopMessageRoundTripAndVerify(t *testing.T) {
	s := newSim(t, 15, 4, time.Second, nil)
	// Produce a real decision to harvest a genuine proof.
	value := []byte("v")
	s.startAll(1, value)
	s.run(s.allDecided(1))
	d, v := s.decided[1][1], s.ms[1].cfg.View
	digest := crypto.HashBytes(value)

	// Build a write cert from scratch (quorum of WRITE sigs for slot 2).
	wc := writeCert{Instance: 2, Epoch: 0, Digest: digest}
	for i := 0; i < 3; i++ {
		sig := s.keys[i].MustSign(ctxWrite, voteMessage(2, 0, digest))
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
	sm.Sig = s.keys[2].MustSign(ctxEpochStop, sm.signedPortion())

	got, err := decodeEpochStop(sm.encode())
	if err != nil {
		t.Fatalf("round trip: %v", err)
	}
	if got.NextEpoch != 1 || got.Voter != 2 || len(got.Claims) != 2 ||
		got.Claims[0].Kind != claimDecided || got.Claims[1].Kind != claimWrite {
		t.Fatalf("round trip mismatch: %+v", got)
	}
	if err := got.verify(v, v.Quorum()); err != nil {
		t.Fatalf("valid epoch stop rejected: %v", err)
	}

	// Tampered claim value must fail.
	bad := sm
	bad.Claims = append([]slotClaim(nil), sm.Claims...)
	bad.Claims[1].Value = []byte("other")
	bad.Sig = s.keys[2].MustSign(ctxEpochStop, bad.signedPortion())
	if err := bad.verify(v, v.Quorum()); err == nil {
		t.Fatal("claim with mismatched value must fail")
	}

	// A write certificate from the campaigned-for epoch (or later) proves
	// nothing about earlier epochs and must fail.
	late := sm
	late.Claims = append([]slotClaim(nil), sm.Claims...)
	late.Claims[1].Epoch, late.Claims[1].WCert.Epoch = 1, 1
	late.Sig = s.keys[2].MustSign(ctxEpochStop, late.signedPortion())
	if err := late.verify(v, v.Quorum()); err == nil {
		t.Fatal("claim with cert epoch ≥ next epoch must fail")
	}

	// A write certificate short of a quorum must fail.
	weak := sm
	weak.Claims = append([]slotClaim(nil), sm.Claims...)
	weak.Claims[1].WCert.Sigs = wc.Sigs[:2]
	weak.Sig = s.keys[2].MustSign(ctxEpochStop, weak.signedPortion())
	if err := weak.verify(v, v.Quorum()); err == nil {
		t.Fatal("claim with a sub-quorum cert must fail")
	}

	// Forged signature must fail.
	forged := sm
	forged.Sig = make([]byte, crypto.SignatureSize)
	if err := forged.verify(v, v.Quorum()); err == nil {
		t.Fatal("forged epoch stop signature must fail")
	}

	// Claims out of order must fail.
	unordered := sm
	unordered.Claims = []slotClaim{sm.Claims[1], sm.Claims[0]}
	unordered.Sig = s.keys[2].MustSign(ctxEpochStop, unordered.signedPortion())
	if err := unordered.verify(v, v.Quorum()); err == nil {
		t.Fatal("descending claims must fail")
	}

	// A sync whose re-proposal ignores the strongest claim must fail.
	e := s.ms[1]
	mkSync := func(slotValue []byte) epochSyncMsg {
		stops := make([]epochStopMsg, 0, 3)
		for _, voter := range []int32{1, 2, 3} {
			stop := epochStopMsg{NextEpoch: 1, Voter: voter, Floor: 2,
				Claims: []slotClaim{{Instance: 2, Kind: claimWrite, Epoch: 0, Value: value, WCert: wc}}}
			stop.Sig = s.keys[voter].MustSign(ctxEpochStop, stop.signedPortion())
			stops = append(stops, stop)
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
	keys, v := testView(4)
	e := newMachine(Config{Self: 1, View: v, Signer: keys[1], Timeout: time.Second})
	const slot = int64(5)

	mkStop := func(voter int32, floor int64, claims []slotClaim) epochStopMsg {
		s := epochStopMsg{NextEpoch: 1, Voter: voter, Floor: floor, Claims: claims}
		s.Sig = keys[voter].MustSign(ctxEpochStop, s.signedPortion())
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
		sig := keys[i].MustSign(ctxWrite, voteMessage(slot, 0, digest))
		wc.Sigs = append(wc.Sigs, crypto.Signature{Signer: int32(i), Sig: sig})
	}
	claimed := mkSync(map[int32]int64{1: 6, 2: 5, 3: 5},
		map[int32][]slotClaim{2: {{Instance: slot, Kind: claimWrite, Epoch: 0, Value: value, WCert: wc}}},
		value)
	if _, ok := e.validEpochSync(&claimed); !ok {
		t.Fatal("certified re-proposal must validate regardless of settled voters")
	}
}

// TestStaleCampaignerReceivesSyncResend is the machine-level gate for the
// stale-campaigner resync: replica 3 contributes its EPOCH-STOP to the
// regency-1 campaign but — one-way partitioned — misses the EPOCH-SYNC.
// Once healed, its re-broadcast campaign for the ALREADY-INSTALLED epoch
// must make the regency-1 leader re-send the retained certificate, after
// which replica 3 installs the regency and the window (whose quorum needs
// its votes: only 3 of 4 replicas are alive) decides everywhere — without
// any further synchronization round.
func TestStaleCampaignerReceivesSyncResend(t *testing.T) {
	s := newSim(t, 17, 4, 200*time.Millisecond, nil)
	s.down[0] = true
	s.drop = func(m transport.Message) bool { return m.To == 3 } // replica 3 sends, but receives nothing
	const W = 4
	for inst := int64(0); inst < W; inst++ {
		s.startAll(inst, nil)
	}

	// {1,2} install regency 1 using 3's stop; 3 itself stays at 0.
	s.run(func() bool { return s.ms[1].regency >= 1 && s.ms[2].regency >= 1 })
	if got := s.ms[3].regency; got != 0 {
		t.Fatalf("partitioned replica installed regency %d; expected to be stale", got)
	}

	// Heal: 3's re-broadcast stale campaign must pull the retained SYNC
	// certificate from the regency-1 leader and the window must decide on
	// every live replica (nothing can decide without 3's votes).
	s.drop = nil
	s.run(s.allDecided(W))
	s.requireAgreement(W)
	for i := 1; i <= 3; i++ {
		if len(s.installs[i]) != 1 || s.ms[i].regency != 1 {
			t.Fatalf("replica %d ran %d synchronization rounds to regency %d, want exactly 1 (no new epoch)", i, len(s.installs[i]), s.ms[i].regency)
		}
	}
}
