package catchup

import (
	"slices"
	"testing"
	"time"

	"smartchain/internal/codec"
	"smartchain/internal/codec/codectest"
	"smartchain/internal/crypto"
	"smartchain/internal/storage"
)

// envelopeBomb is a 32-byte MsgEnvelopeRep: a 24-byte snapshot-envelope
// header declaring 2^20 chunk digests and carrying none, then the tip. 32 MiB
// to any decoder that allocates before it reads.
func envelopeBomb() []byte {
	e := codec.NewEncoder(32)
	e.Int64(7)
	e.Int32(1)
	e.Int64(1 << 20)
	e.Uint32(1 << 20)
	e.Int64(9)
	return e.Bytes()
}

// FuzzDecodeEnvelope covers the two decoders a MsgEnvelopeRep from any
// sender reaches: the reply codec and the snapshot envelope it opens with.
func FuzzDecodeEnvelope(f *testing.F) {
	f.Add((&Response{Kind: KindEnvelope, Envelope: newFakeWorld(100, 160, 4).env}).Encode())
	f.Add(envelopeBomb())
	outer := codectest.Of("DecodeResponse", func(data []byte) (Response, error) { return DecodeResponse(KindEnvelope, data) },
		(*Response).Encode)
	inner := codectest.Of("DecodeSnapEnvelope", storage.DecodeSnapEnvelope, (*storage.SnapEnvelope).Encode)
	f.Fuzz(func(t *testing.T, data []byte) {
		outer.Check(t, data)
		inner.Check(t, data)
	})
}

// FuzzCatchupStep plays a scripted runtime against the machine: each script
// byte pair is one event — an offer, a chunk or range reply in an honest or
// hostile variant, a refused send, a wait — from any of four peers, and the
// local effects are judged against the canonical world. Whatever the
// script, the machine must not panic, must keep the one-local-effect rule,
// must not emit an install before the binding range verified, and must not
// grow its work list past what the quorum envelope and target define.
func FuzzCatchupStep(f *testing.F) {
	// Four offers at tip 128, then honest replies all round.
	f.Add([]byte{0, 112, 0, 113, 0, 114, 0, 115, 1, 0, 1, 1, 1, 2, 2, 3, 2, 0, 2, 1, 2, 2, 2, 3, 2, 0, 2, 1, 2, 2})
	// A corrupt chunk, a forged binding range, an empty answer, a refusal, waits.
	f.Add([]byte{0, 112, 0, 113, 0, 114, 0, 115, 1, 9, 1, 0, 1, 2, 1, 3, 2, 11, 2, 4, 3, 2, 4, 50, 2, 0, 4, 50, 5, 0})
	// Two forged offers reach quorum first; bare snapshot, nothing to bind it to.
	f.Add([]byte{0, 4, 0, 5, 4, 20, 1, 0, 1, 1, 1, 0})
	forged := newFakeWorld(100, 160, 4)
	forged.env.Snap.Meta = []byte("forged meta")
	f.Fuzz(func(t *testing.T, script []byte) {
		r := newRig(t, newFakeWorld(100, 160, 4), testConfig())
		r.start(0)
		bound, binding, planned, seen := false, false, 0, 0
		for ; len(script) >= 2 && r.fin == nil; script = script[2:] {
			op, arg := script[0]%6, script[1]
			peer, variant := int32(arg%4), arg/4%4
			switch op {
			case 0: // an offer: the canonical envelope or a forged one, at some tip
				env := r.w.env
				if variant == 1 {
					env = forged.env
				}
				e := *env
				e.Tip = 100 + int64(arg/16)*4
				r.reply(Response{Peer: peer, Kind: KindEnvelope, Envelope: &e})
			case 1, 2: // a reply to the oldest request peer holds, if any
				kind := Kind(op + 1) // KindChunk, KindRange
				i := slices.IndexFunc(r.reqs, func(fx effect) bool { return fx.peer == peer && fx.what == kind })
				if i < 0 {
					r.reply(Response{Peer: peer, Kind: kind, Height: 100, Index: int(arg), From: int64(arg)})
					break
				}
				resp := r.honest(r.reqs[i])
				r.reqs = slices.Delete(r.reqs, i, i+1)
				switch {
				case variant == 1:
					resp.Data, resp.Blocks = nil, nil
				case variant == 2 && kind == KindChunk:
					resp.Data[0] ^= 0xff
				case variant == 2:
					resp.Blocks = slices.Clone(resp.Blocks)
					resp.Blocks[0].Header.TxRoot = crypto.HashBytes([]byte("forged"))
				case variant == 3:
					resp.Height++
					resp.From++
				}
				r.reply(resp)
			case 3:
				r.step(event{kind: evSendRefused, peer: peer})
			case 4:
				r.at(r.now.Sub(r.t0) + time.Duration(arg)*time.Millisecond)
			case 5:
				r.step(event{kind: evTick})
			}
			for _, fx := range r.log[seen:] {
				bound = bound || (fx.kind == fxVerify && strictWorld{r.w}.VerifyBlocks(fx.env, fx.blocks) == nil)
				if fx.kind == fxInstall && binding && !bound {
					t.Fatal("install emitted before the binding range verified")
				}
			}
			seen = len(r.log)
			if r.m.phase != phaseFetch {
				continue
			}
			if planned == 0 {
				// Tips are at most 100+15*4: at most 3 chunks and 8 ranges.
				if planned = len(r.m.items); planned > 3+8 {
					t.Fatalf("the plan holds %d items", planned)
				}
				binding = r.m.itemAt(KindRange, r.m.env.Snap.LastBlock+1) != nil
			}
			if len(r.m.items) != planned {
				t.Fatalf("work list grew from %d to %d items", planned, len(r.m.items))
			}
		}
	})
}
