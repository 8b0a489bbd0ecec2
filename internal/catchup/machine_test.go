package catchup

import (
	"context"
	"errors"
	"slices"
	"strings"
	"testing"
	"time"

	"smartchain/internal/blockchain"
	"smartchain/internal/crypto"
)

// rig plays Sync for one machine in the calling goroutine under virtual
// time: it records every effect a step returns, leaves requests for the
// test to answer, performs the local effect against a fakeWorld the way
// Sync performs it against a Fetcher, and holds every step to the
// one-local-effect rule. No goroutine, no sleep, no channel.
type rig struct {
	t    *testing.T
	m    *machine
	w    *fakeWorld
	t0   time.Time
	now  time.Time
	log  []effect // every effect, in order
	reqs []effect // requests the script has not answered yet
	fin  *effect
}

// strictWorld tightens fakeWorld's stand-in for proof verification: a
// bound range must also carry the canonical headers.
type strictWorld struct{ *fakeWorld }

func (s strictWorld) VerifyBlocks(env *Envelope, blocks []blockchain.Block) error {
	if err := s.fakeWorld.VerifyBlocks(env, blocks); err != nil {
		return err
	}
	for _, b := range blocks {
		if i := int(b.Header.Number - s.env.Snap.LastBlock - 1); i >= len(s.blocks) || s.blocks[i].Header != b.Header {
			return errors.New("fake: decision proof does not cover this header")
		}
	}
	return nil
}

func newRig(t *testing.T, w *fakeWorld, cfg Config) *rig {
	t0 := time.Unix(1_000_000, 0)
	return &rig{t: t, m: NewPool(cfg).m, w: w, t0: t0, now: t0}
}

func (r *rig) step(ev event) []effect {
	r.t.Helper()
	if r.m.doing != 0 && ev.kind != evLocalDone {
		r.t.Fatalf("event %d stepped while local effect %d awaits its verdict", ev.kind, r.m.doing)
	}
	fxs := slices.Clone(r.m.step(r.now, ev))
	for i, fx := range fxs {
		r.log = append(r.log, fx)
		switch fx.kind {
		case fxRequest:
			r.reqs = append(r.reqs, fx)
		case fxFinish:
			r.fin = &fxs[i]
		default:
			if i != len(fxs)-1 {
				r.t.Fatalf("local effect %d at position %d of %d: must be last", fx.kind, i, len(fxs))
			}
			fxs = append(fxs, r.step(event{kind: evLocalDone, err: perform(strictWorld{r.w}, fx)})...)
		}
	}
	return fxs
}

// start begins a round at the given local height.
func (r *rig) start(height int64) {
	r.t.Helper()
	r.w.height, r.fin = height, nil
	r.step(event{kind: evStart, peers: r.w.peers(), height: height})
}

// offer delivers env from peer, claiming tip.
func (r *rig) offer(peer int32, env *Envelope, tip int64) {
	r.t.Helper()
	e := *env
	e.Tip = tip
	r.take(func(fx effect) bool { return fx.what == KindEnvelope && fx.peer == peer })
	r.step(event{kind: evResponse, resp: Response{Peer: peer, Kind: KindEnvelope, Envelope: &e}})
}

// at moves the clock to t0+d the way the one timer would: a tick at every
// deadline on the way.
func (r *rig) at(d time.Duration) {
	r.t.Helper()
	target := r.t0.Add(d)
	for next := r.m.nextDeadline(); !next.IsZero() && !next.After(target); next = r.m.nextDeadline() {
		r.now = next
		r.step(event{kind: evTick})
	}
	r.now = target
}

// take removes and returns the oldest unanswered request matching want.
func (r *rig) take(want func(effect) bool) effect {
	r.t.Helper()
	i := slices.IndexFunc(r.reqs, want)
	if i < 0 {
		r.t.Fatalf("no such request outstanding among %d", len(r.reqs))
	}
	fx := r.reqs[i]
	r.reqs = slices.Delete(r.reqs, i, i+1)
	return fx
}

// honest builds the reply a correct donor gives to request fx.
func (r *rig) honest(fx effect) Response {
	resp := Response{Peer: fx.peer, Kind: fx.what, Height: fx.height, Index: fx.index, From: fx.from}
	switch fx.what {
	case KindChunk:
		off := fx.index * int(r.w.env.Snap.ChunkBytes)
		resp.Data = slices.Clone(r.w.state[off : off+r.w.env.Snap.ChunkLen(fx.index)])
	case KindRange:
		for _, b := range r.w.blocks {
			if b.Header.Number >= fx.from && b.Header.Number <= fx.to {
				resp.Blocks = append(resp.Blocks, b)
			}
		}
	}
	return resp
}

func (r *rig) reply(resp Response) []effect {
	r.t.Helper()
	return r.step(event{kind: evResponse, resp: resp})
}

// serveAll answers every outstanding request honestly, newest first (so
// ranges arrive out of order), until none is left or the round ends.
func (r *rig) serveAll() {
	r.t.Helper()
	for len(r.reqs) > 0 && r.fin == nil {
		last := r.reqs[len(r.reqs)-1]
		r.reply(r.honest(r.take(func(fx effect) bool { return sameRequest(fx, last) })))
	}
}

func sameRequest(a, b effect) bool {
	return a.peer == b.peer && a.what == b.what && a.index == b.index && a.from == b.from
}

// live reports whether request fx is still the one its item waits on.
func (r *rig) live(fx effect) bool {
	if fx.what == KindChunk {
		return owed(r.m.itemAt(KindChunk, int64(fx.index)), fx.peer)
	}
	return owed(r.m.itemAt(KindRange, fx.from), fx.peer)
}

func (r *rig) wantFinish(progressed bool, errPart string) {
	r.t.Helper()
	switch {
	case r.fin == nil:
		r.t.Fatalf("round still running: %d requests outstanding", len(r.reqs))
	case r.fin.progressed != progressed:
		r.t.Fatalf("progressed = %v, want %v (err %v)", r.fin.progressed, progressed, r.fin.err)
	case errPart == "" && r.fin.err != nil:
		r.t.Fatalf("err = %v, want none", r.fin.err)
	case errPart != "" && (r.fin.err == nil || !strings.Contains(r.fin.err.Error(), errPart)):
		r.t.Fatalf("err = %v, want %q", r.fin.err, errPart)
	}
	if r.m.phase != phaseIdle || !r.m.nextDeadline().IsZero() {
		r.t.Fatal("a finished round left the machine busy")
	}
}

func (r *rig) count(kind effectKind) int {
	n := 0
	for _, fx := range r.log {
		if fx.kind == kind {
			n++
		}
	}
	return n
}

func wantApplied(t *testing.T, w *fakeWorld, from, to int64) {
	t.Helper()
	if int64(len(w.applied)) != to-from+1 {
		t.Fatalf("applied %d blocks, want %d..%d", len(w.applied), from, to)
	}
	for i, n := range w.applied {
		if n != from+int64(i) {
			t.Fatalf("block %d applied at position %d: not in order, or twice", n, i)
		}
	}
}

// roomy leaves every donor spare budget, so reclaimed work can move on in
// the step that reclaimed it.
func roomy() Config {
	return Config{InFlightPerPeer: 4, PeerTimeout: 40 * time.Millisecond, RangeBlocks: 8}
}

// discovered starts a snapshot-plus-tail round on the 4-donor world and
// completes discovery with every donor agreeing.
func discovered(t *testing.T, cfg Config) *rig {
	r := newRig(t, newFakeWorld(100, 160, 4), cfg)
	r.start(0)
	for p := int32(0); p < 4; p++ {
		r.offer(p, r.w.env, 160)
	}
	return r
}

// (a) Snapshot plus ranges across four donors.
func TestMachineHappyPath(t *testing.T) {
	r := newRig(t, newFakeWorld(100, 160, 4), testConfig())
	r.start(0)
	r.offer(0, r.w.env, 160)
	r.offer(1, r.w.env, 160)
	if got := r.m.nextDeadline(); got != r.t0.Add(10*time.Millisecond) {
		t.Fatalf("quorum reached: the deadline is %v, want the grace instant", got.Sub(r.t0))
	}
	if r.m.phase != phaseDiscover || len(r.reqs) != 2 {
		t.Fatalf("discovery ended on the bare quorum (phase %d)", r.m.phase)
	}
	r.at(5 * time.Millisecond)
	r.offer(2, r.w.env, 160)
	r.offer(3, r.w.env, 160) // every asked peer answered: no need to wait out the window

	// 3 chunks + 8 ranges, 2 in flight per donor: the first wave is 8
	// requests, round-robin, sharing one deadline.
	if len(r.reqs) != 8 {
		t.Fatalf("first wave is %d requests, want 8", len(r.reqs))
	}
	for i, fx := range r.reqs {
		if fx.peer != int32(i%4) {
			t.Fatalf("request %d went to donor %d, want round-robin", i, fx.peer)
		}
	}
	for _, it := range r.m.items[:8] {
		if it.deadline != r.now.Add(40*time.Millisecond) {
			t.Fatal("items assigned in one step do not share its deadline")
		}
	}
	for r.fin == nil {
		for _, d := range r.m.donors {
			if d.inflight > 2 {
				t.Fatalf("donor %d holds %d requests, cap 2", d.id, d.inflight)
			}
		}
		last := r.reqs[len(r.reqs)-1] // newest first: ranges arrive out of order
		r.reply(r.honest(r.take(func(fx effect) bool { return sameRequest(fx, last) })))
	}
	r.wantFinish(true, "")
	wantApplied(t, r.w, 101, 160)
	verify := slices.IndexFunc(r.log, func(fx effect) bool { return fx.kind == fxVerify })
	install := slices.IndexFunc(r.log, func(fx effect) bool { return fx.kind == fxInstall })
	if verify < 0 || install < verify || r.count(fxInstall) != 1 || r.w.installed != 1 {
		t.Fatalf("verify at %d, install at %d (%d installs): want one install after the verify", verify, install, r.count(fxInstall))
	}
	st := r.m.stats
	if st.ChunksFetched != 3 || st.RangesFetched != 8 || st.BlocksFetched != 60 || st.Installs != 1 ||
		st.Rounds != 1 || st.PeersUsed != 4 || st.Banned != 0 || st.Redos != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

// (b) The timeline that cost a healthy donor the round: it answers two
// requests, pauses once for 47 ms with two more in hand (sent 20 ms
// apart), and answers those. One pause, one strike.
func TestMachineOnePauseIsOneStrike(t *testing.T) {
	r := newRig(t, newFakeWorld(0, 48, 1), testConfig())
	r.start(0)
	r.offer(0, r.w.env, 48)
	first := r.take(func(fx effect) bool { return fx.from == 1 })
	second := r.take(func(fx effect) bool { return fx.from == 9 })
	r.at(5 * time.Millisecond)
	r.reply(r.honest(first)) // request for 17..24 goes out at +5
	r.at(25 * time.Millisecond)
	r.reply(r.honest(second)) // request for 25..32 goes out at +25
	third := r.take(func(fx effect) bool { return fx.from == 17 })
	fourth := r.take(func(fx effect) bool { return fx.from == 25 })

	r.at(72 * time.Millisecond) // through the +45 deadline; +65 no longer exists
	d := r.m.donors[0]
	if d.strikes != 1 || d.dropped || r.m.stats.Redos != 2 {
		t.Fatalf("after one pause: strikes=%d dropped=%v redos=%d, want 1 strike reclaiming both requests", d.strikes, d.dropped, r.m.stats.Redos)
	}
	r.reply(r.honest(third))
	r.reply(r.honest(fourth))
	if d.strikes != 0 {
		t.Fatalf("strikes = %d after the donor answered again", d.strikes)
	}
	r.serveAll() // the re-asked duplicates are unsolicited by now; the rest completes
	r.wantFinish(true, "")
	wantApplied(t, r.w, 1, 48)
	if r.m.stats.Redos != 2 {
		t.Fatalf("redos = %d, want the 2 of the single strike", r.m.stats.Redos)
	}
}

// (b) Silence alone never removes the last live donor.
func TestMachineSilentSoleDonorKeepsBeingAsked(t *testing.T) {
	r := newRig(t, newFakeWorld(0, 48, 1), testConfig())
	r.start(0)
	r.offer(0, r.w.env, 48)
	r.at(3 * 40 * time.Millisecond)
	d := r.m.donors[0]
	if d.strikes != 3 || d.dropped || r.fin != nil {
		t.Fatalf("after three silent waves: strikes=%d dropped=%v finished=%v", d.strikes, d.dropped, r.fin != nil)
	}
	if len(r.reqs) != 2*4 {
		t.Fatalf("%d requests sent, want the wave of 2 asked four times", len(r.reqs))
	}
	r.serveAll()
	r.wantFinish(true, "")
	wantApplied(t, r.w, 1, 48)
}

// (c) A stale quorum answers first.
func TestMachineGraceWindow(t *testing.T) {
	stale := newFakeWorld(50, 130, 4).env // an older checkpoint

	t.Run("live quorum inside the window wins", func(t *testing.T) {
		r := newRig(t, newFakeWorld(150, 160, 4), testConfig())
		r.start(130)
		r.offer(0, stale, 130)
		r.offer(1, stale, 130) // on its own: "already caught up"
		r.at(5 * time.Millisecond)
		r.offer(2, r.w.env, 160)
		r.offer(3, r.w.env, 160)
		if r.m.phase != phaseFetch || r.m.env.Snap.LastBlock != 150 || len(r.m.donors) != 2 {
			t.Fatalf("phase %d: want the round fetching the snapshot at 150 from its two donors", r.m.phase)
		}
		r.serveAll()
		r.wantFinish(true, "")
		if r.w.height != 160 {
			t.Fatalf("height = %d, want the live quorum's tip 160", r.w.height)
		}
	})

	t.Run("same envelope, higher tips inside the window", func(t *testing.T) {
		r := newRig(t, newFakeWorld(100, 160, 4), testConfig())
		r.start(130)
		r.offer(0, r.w.env, 130)
		r.offer(1, r.w.env, 130)
		r.offer(2, r.w.env, 160)
		r.offer(3, r.w.env, 150) // the 2nd largest tip of {130,130,160,150}
		r.serveAll()
		r.wantFinish(true, "")
		wantApplied(t, r.w, 131, 150)
	})

	t.Run("window expired: proceed on what there is", func(t *testing.T) {
		r := newRig(t, newFakeWorld(100, 160, 4), testConfig())
		r.start(130)
		r.offer(0, r.w.env, 140)
		r.offer(1, r.w.env, 140)
		r.at(10 * time.Millisecond)
		if r.m.phase != phaseFetch {
			t.Fatal("grace window ran out and discovery is still waiting")
		}
		r.offer(2, r.w.env, 160) // too late to move the target; still a donor
		r.offer(3, stale, 130)   // another snapshot: no donor for this round
		if len(r.m.donors) != 3 {
			t.Fatalf("%d donors, want the late matching offer enlisted and the other not", len(r.m.donors))
		}
		r.serveAll()
		r.wantFinish(true, "")
		wantApplied(t, r.w, 131, 140)
	})
}

// (d) A corrupt chunk bans its donor for good.
func TestMachineCorruptChunkBansDonor(t *testing.T) {
	r := discovered(t, roomy())
	var held []effect // what donor 1 was asked for
	for _, fx := range r.reqs {
		if fx.peer == 1 {
			held = append(held, fx)
		}
	}
	bad := r.honest(r.take(func(fx effect) bool { return fx.peer == 1 && fx.what == KindChunk }))
	bad.Data[0] ^= 0xff
	fxs := r.reply(bad)
	if !r.m.banned[1] || r.m.stats.Banned != 1 {
		t.Fatal("corrupt chunk did not ban its donor")
	}
	if len(held) != 3 || len(fxs) != len(held) {
		t.Fatalf("donor 1 held %d requests, the banning step re-requested %d", len(held), len(fxs))
	}
	for i, fx := range fxs {
		h := held[i]
		if fx.kind != fxRequest || fx.peer == 1 || fx.what != h.what || fx.index != h.index || fx.from != h.from {
			t.Fatalf("re-request %d = %+v, want %+v from another donor", i, fx, h)
		}
	}
	r.reqs = slices.DeleteFunc(r.reqs, func(fx effect) bool { return fx.peer == 1 })
	r.serveAll()
	r.wantFinish(true, "")

	// The ban outlives the round: the next start does not even ask donor 1.
	r.reqs = nil
	r.start(160)
	if len(r.reqs) != 3 || slices.ContainsFunc(r.reqs, func(fx effect) bool { return fx.peer == 1 }) {
		t.Fatalf("next round asked %d peers for envelopes, want the 3 not banned", len(r.reqs))
	}
}

// (e) "Don't have it" is a strike, not a crime.
func TestMachineEmptyAnswersStrikeNotBan(t *testing.T) {
	r := discovered(t, roomy())
	empty := r.honest(r.take(func(fx effect) bool { return fx.peer == 0 && fx.what == KindChunk }))
	empty.Data = nil
	r.reply(empty)
	d := r.m.donorByID(0)
	if d.strikes != 1 || d.dropped || r.m.stats.Redos != 3 {
		t.Fatalf("empty chunk: strikes=%d dropped=%v redos=%d, want one strike reclaiming all 3 requests it held", d.strikes, d.dropped, r.m.stats.Redos)
	}
	// Its work went back to the pool, some of it to the donor itself again:
	// the range it is now asked for comes back one block short.
	short := r.honest(r.take(func(fx effect) bool { return fx.peer == 0 && fx.what == KindRange && r.live(fx) }))
	short.Blocks = short.Blocks[:len(short.Blocks)-1]
	r.reply(short)
	if !d.dropped || r.m.banned[0] || r.m.stats.Banned != 0 {
		t.Fatalf("two empty answers in a row: dropped=%v banned=%v, want dropped and not banned", d.dropped, r.m.banned[0])
	}
	r.reqs = slices.DeleteFunc(r.reqs, func(fx effect) bool { return fx.peer == 0 })
	r.serveAll()
	r.wantFinish(true, "")
	wantApplied(t, r.w, 101, 160)
}

// (f) A request the transport refuses.
func TestMachineSendRefused(t *testing.T) {
	t.Run("in the fetch phase the work moves on at once", func(t *testing.T) {
		r := discovered(t, roomy())
		fxs := r.step(event{kind: evSendRefused, peer: 2})
		if d := r.m.donorByID(2); !d.dropped || r.m.banned[2] || r.m.stats.SendFailures != 1 {
			t.Fatalf("refused send: dropped=%v banned=%v stats=%+v", d.dropped, r.m.banned[2], r.m.stats)
		}
		if len(fxs) != 3 || slices.ContainsFunc(fxs, func(fx effect) bool { return fx.kind != fxRequest || fx.peer == 2 }) {
			t.Fatalf("the refusing step returned %+v, want donor 2's 3 items asked elsewhere", fxs)
		}
		r.reqs = slices.DeleteFunc(r.reqs, func(fx effect) bool { return fx.peer == 2 })
		r.serveAll()
		r.wantFinish(true, "")
	})
	t.Run("nobody reachable", func(t *testing.T) {
		r := newRig(t, newFakeWorld(100, 160, 4), testConfig())
		r.start(0)
		for p := int32(0); p < 4; p++ {
			r.step(event{kind: evSendRefused, peer: p})
		}
		r.wantFinish(false, "no reachable donors")
	})
	t.Run("a refused peer is not waited for", func(t *testing.T) {
		r := newRig(t, newFakeWorld(100, 160, 4), testConfig())
		r.start(0)
		r.step(event{kind: evSendRefused, peer: 3})
		r.offer(0, r.w.env, 160)
		r.offer(1, r.w.env, 160)
		r.offer(2, r.w.env, 160)
		if r.m.phase != phaseFetch {
			t.Fatal("every reachable peer answered and discovery is still waiting")
		}
	})
}

// (g) Colluding donors forge the range that binds the snapshot to the
// chain: each supplier is banned in turn and the snapshot never installs.
func TestMachineForgedBindingRangeNeverInstalls(t *testing.T) {
	r := discovered(t, roomy())
	binding := func(fx effect) bool { return fx.what == KindRange && fx.from == 101 }
	for _, fx := range slices.Clone(r.reqs) {
		if !binding(fx) {
			r.reply(r.honest(r.take(func(o effect) bool { return sameRequest(o, fx) })))
		}
	}
	for suppliers := 1; r.fin == nil; suppliers++ {
		forged := r.honest(r.take(binding))
		forged.Blocks = slices.Clone(forged.Blocks)
		forged.Blocks[0].Header.TxRoot = crypto.HashBytes([]byte("forged"))
		r.reply(forged)
		if got := r.m.stats.Banned; got != int64(suppliers) {
			t.Fatalf("%d forged binding ranges, %d donors banned", suppliers, got)
		}
	}
	r.wantFinish(false, "all donors failed or banned")
	if r.count(fxVerify) != 4 || r.count(fxInstall) != 0 || r.count(fxApply) != 0 || r.w.installed != 0 {
		t.Fatalf("%d verifies, %d installs, %d applies: want 4 refused verifies and nothing else",
			r.count(fxVerify), r.count(fxInstall), r.count(fxApply))
	}
}

// (h) Cancel reports what the round had achieved by then.
func TestMachineCancel(t *testing.T) {
	cancel := event{kind: evCancel, err: context.Canceled}
	t.Run("before quorum", func(t *testing.T) {
		r := newRig(t, newFakeWorld(100, 160, 4), testConfig())
		r.start(0)
		r.offer(0, r.w.env, 160)
		r.step(cancel)
		r.wantFinish(false, "context canceled")
	})
	t.Run("after quorum, inside the grace window", func(t *testing.T) {
		r := newRig(t, newFakeWorld(100, 160, 4), testConfig())
		r.start(0)
		r.offer(0, r.w.env, 160)
		r.offer(1, r.w.env, 160)
		r.step(cancel)
		r.wantFinish(false, "context canceled")
		if r.m.stats.Rounds != 0 {
			t.Fatal("a round that never fetched was counted")
		}
	})
	t.Run("fetching, nothing installed", func(t *testing.T) {
		r := discovered(t, testConfig())
		for range 3 {
			r.reply(r.honest(r.take(func(fx effect) bool { return fx.what == KindChunk })))
		}
		r.step(cancel) // every chunk is here, the binding range is not
		r.wantFinish(false, "context canceled")
	})
	t.Run("fetching, snapshot installed", func(t *testing.T) {
		r := discovered(t, testConfig())
		for range 3 {
			r.reply(r.honest(r.take(func(fx effect) bool { return fx.what == KindChunk })))
		}
		r.reply(r.honest(r.take(func(fx effect) bool { return fx.from == 101 })))
		r.step(cancel)
		r.wantFinish(true, "context canceled")
		if r.m.stats.Rounds != 1 || r.w.height != 108 {
			t.Fatalf("rounds=%d height=%d", r.m.stats.Rounds, r.w.height)
		}
	})
	t.Run("tail only, one range applied", func(t *testing.T) {
		r := newRig(t, newFakeWorld(100, 160, 4), testConfig())
		r.start(130)
		for p := int32(0); p < 4; p++ {
			r.offer(p, r.w.env, 160)
		}
		r.reply(r.honest(r.take(func(fx effect) bool { return fx.from == 139 })))
		r.step(cancel)
		r.wantFinish(false, "context canceled") // 139.. cannot apply before 131..
		r.start(130)
		for p := int32(0); p < 4; p++ {
			r.offer(p, r.w.env, 160)
		}
		r.reply(r.honest(r.take(func(fx effect) bool { return fx.from == 131 })))
		r.step(cancel)
		r.wantFinish(true, "context canceled")
	})
}

// (i) Rounds that end in discovery leave nothing outstanding.
func TestMachineNothingToFetch(t *testing.T) {
	t.Run("already caught up", func(t *testing.T) {
		r := newRig(t, newFakeWorld(100, 160, 4), testConfig())
		r.start(160)
		for p := int32(0); p < 4; p++ {
			r.offer(p, r.w.env, 160)
		}
		r.wantFinish(false, "")
		if len(r.reqs) != 0 || r.count(fxRequest) != 4 || r.m.stats.Rounds != 0 {
			t.Fatalf("%d requests in all, %d unanswered, %d rounds counted", r.count(fxRequest), len(r.reqs), r.m.stats.Rounds)
		}
	})
	t.Run("single donor, snapshot only", func(t *testing.T) {
		w := newFakeWorld(100, 100, 1)
		w.blocks = nil
		r := newRig(t, w, testConfig())
		r.start(0)
		r.offer(0, w.env, 100)
		r.wantFinish(false, "unverifiable")
		if len(r.reqs) != 0 || r.count(fxRequest) != 1 {
			t.Fatalf("%d requests in all, %d unanswered", r.count(fxRequest), len(r.reqs))
		}
	})
}
