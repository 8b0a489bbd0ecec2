package consensus

import (
	"slices"
	"testing"
	"time"

	"smartchain/internal/codec/codectest"
	"smartchain/internal/crypto"
	"smartchain/internal/transport"
)

// fuzzSeeds are valid messages of every wire type, built with the test
// view's real keys. The decided certificate carries only f signatures and
// the votes come from one member, so no single frame can decide an instance.
func fuzzSeeds() (propose proposeMsg, vote voteMsg, decided decidedMsg, stop epochStopMsg, sync epochSyncMsg) {
	keys, _ := testView(4)
	value := []byte("fuzz-value")
	digest := crypto.HashBytes(value)
	propose = proposeMsg{Instance: 2, Epoch: 0, Value: value}
	vote = voteMsg{Instance: 2, Epoch: 0, Digest: digest, Voter: 2,
		Sig: keys[2].MustSign(ctxWrite, voteMessage(2, 0, digest))}
	proof := crypto.Certificate{Digest: digest}
	proof.Add(crypto.Signature{Signer: 3, Sig: keys[3].MustSign(ctxAccept, voteMessage(2, 0, digest))})
	decided = decidedMsg{Instance: 2, Epoch: 0, Value: value, Proof: proof}
	cert := writeCert{Instance: 2, Epoch: 0, Digest: digest}
	for _, k := range []int32{0, 2, 3} {
		cert.Sigs = append(cert.Sigs, crypto.Signature{Signer: k, Sig: keys[k].MustSign(ctxWrite, voteMessage(2, 0, digest))})
	}
	stop = epochStopMsg{NextEpoch: 1, Voter: 2, Floor: 1, Claims: []slotClaim{
		{Instance: 2, Kind: claimWrite, Epoch: 0, Value: value, WCert: cert},
		{Instance: 3, Kind: claimDecided, Epoch: 0, Value: value, DProof: proof},
	}}
	stop.Sig = keys[2].MustSign(ctxEpochStop, stop.signedPortion())
	sync = epochSyncMsg{NextEpoch: 1, Justif: []epochStopMsg{stop}, Slots: []slotProposal{{Instance: 2, Value: value}}}
	return
}

func FuzzDecodePropose(f *testing.F) {
	seed, _, _, _, _ := fuzzSeeds()
	f.Add(seed.encode())
	row := codectest.Of("decodePropose", decodePropose, (*proposeMsg).encode)
	f.Fuzz(func(t *testing.T, data []byte) { row.Check(t, data) })
}

func FuzzDecodeVote(f *testing.F) {
	_, seed, _, _, _ := fuzzSeeds()
	f.Add(seed.encode())
	row := codectest.Of("decodeVote", decodeVote, (*voteMsg).encode)
	f.Fuzz(func(t *testing.T, data []byte) { row.Check(t, data) })
}

func FuzzDecodeDecided(f *testing.F) {
	_, _, seed, _, _ := fuzzSeeds()
	f.Add(seed.encode())
	row := codectest.Of("decodeDecided", decodeDecided, (*decidedMsg).encode)
	f.Fuzz(func(t *testing.T, data []byte) { row.Check(t, data) })
}

func FuzzDecodeEpochStop(f *testing.F) {
	_, _, _, seed, _ := fuzzSeeds()
	f.Add(seed.encode())
	row := codectest.Of("decodeEpochStop", decodeEpochStop, (*epochStopMsg).encode)
	f.Fuzz(func(t *testing.T, data []byte) { row.Check(t, data) })
}

func FuzzDecodeEpochSync(f *testing.F) {
	_, _, _, _, seed := fuzzSeeds()
	f.Add(seed.encode())
	row := codectest.Of("decodeEpochSync", decodeEpochSync, (*epochSyncMsg).encode)
	f.Fuzz(func(t *testing.T, data []byte) { row.Check(t, data) })
}

// frame is one frame of a FuzzMachineStep script: sender, wire type offset
// from MsgPropose, a two-byte length and the payload.
func frame(from, typ uint8, payload []byte) []byte {
	return append([]byte{from, typ, byte(len(payload) >> 8), byte(len(payload))}, payload...)
}

// FuzzMachineStep feeds a script of arbitrary frames, each twice (the replay
// takes the dedup paths), to a follower with eight open slots. The seeds'
// ACCEPT signatures are one member's, so no script may decide anything; the
// state an outsider can make the machine hold stays inside the started
// window plus futureWindow, and it holds at most one unchecked vote per
// slot, phase and member.
func FuzzMachineStep(f *testing.F) {
	propose, vote, decided, stop, sync := fuzzSeeds()
	forged := vote
	forged.Sig = append([]byte(nil), vote.Sig...)
	forged.Sig[0] ^= 1
	f.Add(frame(0, 0, propose.encode()))
	f.Add(frame(2, 1, vote.encode()))
	f.Add(frame(2, 2, vote.encode()))
	f.Add(frame(3, 6, decided.encode()))
	f.Add(frame(2, 4, stop.encode()))
	f.Add(frame(1, 5, sync.encode()))
	f.Add(frame(0, 3, []byte("the retired per-slot STOP")))
	f.Add(slices.Concat(frame(2, 1, forged.encode()), frame(2, 1, vote.encode()), frame(0, 0, propose.encode())))
	f.Add(slices.Concat(frame(0, 0, propose.encode()), frame(2, 1, forged.encode()), frame(2, 1, vote.encode()),
		frame(2, 2, forged.encode()), frame(2, 4, stop.encode())))
	keys, v := testView(4)
	const started = 8
	f.Fuzz(func(t *testing.T, script []byte) {
		m := newMachine(Config{Self: 1, View: v, Signer: keys[1], Timeout: time.Second})
		now := time.Unix(1_000_000, 0)
		for inst := int64(0); inst < started; inst++ {
			m.step(now, event{kind: evStart, inst: inst})
		}
		for len(script) >= 4 {
			n := min(int(script[2])<<8|int(script[3]), len(script)-4)
			msg := transport.Message{From: int32(script[0] % 5), To: 1, Type: MsgPropose + uint16(script[1]%8), Payload: script[4 : 4+n]}
			script = script[4+n:]
			for replay := 0; replay < 2; replay++ {
				for _, fx := range m.step(now, event{kind: evMessage, msg: msg}) {
					if fx.kind == fxDecide {
						t.Fatalf("frame type %d from %d decided instance %d", msg.Type, msg.From, fx.decision.Instance)
					}
				}
			}
			if len(m.states) > started || len(m.buffered) > futureWindow {
				t.Fatalf("the script grew the machine to %d states and %d buffered instances", len(m.states), len(m.buffered))
			}
			for inst, st := range m.states {
				for ph := range st.held {
					for voter, vm := range st.held[ph] {
						if vm.Voter != voter || !v.Contains(voter) {
							t.Fatalf("slot %d phase %d holds a vote of %d under member %d", inst, ph, vm.Voter, voter)
						}
					}
				}
			}
		}
	})
}
