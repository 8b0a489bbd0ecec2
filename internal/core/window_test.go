package core

import (
	"bytes"
	"maps"
	"math/rand"
	"slices"
	"testing"
	"time"

	"smartchain/internal/consensus"
	"smartchain/internal/smr"
)

// The window machine under virtual time: one goroutine, no sleeps. A fake
// queue stands in for smr.Batcher, and the rig plays runtime and consensus
// machine — it performs every effect the way Node.drive does (a commit is
// answered with evCommitted before anything else, unless the script holds
// it — the naive arm, a reconfiguration block — until it releases it; a
// state-transfer round stays in flight until the script ends it with synced;
// an outcome that replaced the machine is followed by the evEngine that
// announces the next seat) and checks on each one what must hold for every
// path: no slot starts below the floor or twice on one machine, no batch
// lands above an empty slot, a commit or a round's beginning is alone and
// last, a commit is for the floor, and while an outcome is out nothing
// commits and no round begins. After each step it checks the depth rule: no
// partial batch was offered while d own proposals were undecided, and no
// batch is left in the queue beside an empty slot while none is undecided.

// fakeQueue is the injected request queue.
type fakeQueue struct {
	ready    []smr.Batch
	requeued []smr.Request // everything ever given back, in order
	busy     bool
	calls    int // next() calls in the current step
	asked    int // next() calls ever
	fulls    int // next(full) calls ever
	// blind makes the first blind calls of a step find the queue empty: the
	// work arrives while the step is running.
	blind int
	// max is the full batch size (0: every batch is full); a call for a full
	// batch finds a shorter one at the front not ready.
	max int
}

func (q *fakeQueue) next(full bool) (smr.Batch, bool) {
	q.calls++
	q.asked++
	if full {
		q.fulls++
	}
	if q.calls <= q.blind || len(q.ready) == 0 || full && !q.isFull(q.ready[0]) {
		return smr.Batch{}, false
	}
	b := q.ready[0]
	q.ready = q.ready[1:]
	return b, true
}

func (q *fakeQueue) isFull(b smr.Batch) bool { return len(b.Requests) >= q.max }

// requeue puts the requests back at the front as one batch, as the
// batcher's front-of-queue merge would hand them out again.
func (q *fakeQueue) requeue(reqs []smr.Request) {
	q.requeued = append(q.requeued, reqs...)
	q.ready = append([]smr.Batch{{Timestamp: 1, Requests: slices.Clone(reqs)}}, q.ready...)
}

// testBatch is n requests of one client, sequence numbers from seq.
func testBatch(client int64, seq uint64, n int) smr.Batch {
	b := smr.Batch{Timestamp: 1}
	for i := 0; i < n; i++ {
		b.Requests = append(b.Requests, smr.Request{ClientID: client, Seq: seq + uint64(i), Op: []byte{OpApp}})
	}
	return b
}

const testPeriod = 2 * time.Second

// slotRef names a slot of one machine: the rig numbers the machines the
// window is told about.
type slotRef struct {
	seat int
	inst int64
}

type rig struct {
	t     *testing.T
	w     *window
	q     *fakeQueue
	now   time.Time
	floor int64 // the runtime's commit floor (Node.nextInstance)
	// viewChangeAt: committing this instance installs a new view.
	viewChangeAt int64
	seat         int  // the machines announced so far
	owesEngine   bool // an outcome replaced the machine: evEngine comes next

	started  map[slotRef]bool
	placed   map[slotRef][]byte // the value offered to each slot
	starts   []slotRef
	offers   []slotRef
	advances []slotRef
	commits  []int64
	syncs    int
	// inFlight: an fxSync the script has not ended, or an fxCommit it holds
	// (held is its decision); hold: commits are held, not answered at once.
	inFlight effectKind
	hold     bool
	held     consensus.Decision
	lastSync effect       // the newest fxSync
	kinds    []effectKind // the effects of the newest step
}

func newRig(t *testing.T, depth int) *rig {
	q := &fakeQueue{}
	return &rig{
		t: t, q: q, now: time.Unix(1_000_000, 0), floor: 1,
		w:       newWindow(depth, testPeriod, 1, q.next, q.requeue, func() bool { return q.busy }),
		started: make(map[slotRef]bool),
		placed:  make(map[slotRef][]byte),
	}
}

// step is one machine step with its effects performed; it returns the
// evCommitted that answers a commit, if the step asked for one.
func (r *rig) step(ev event) (event, bool) {
	r.t.Helper()
	r.q.calls = 0
	var follow event
	var offered []int64
	committed, last := false, false
	r.kinds = r.kinds[:0]
	if r.owesEngine && ev.kind != evEngine {
		r.t.Fatalf("event %d between a replacing outcome and its evEngine", ev.kind)
	}
	switch {
	case ev.kind == evEngine:
		r.seat, r.owesEngine = r.seat+1, false
	case (ev.kind == evCommitted || ev.kind == evSynced) && ev.replaced:
		r.owesEngine = true
	}
	for _, fx := range r.w.step(r.now, ev) {
		if last {
			r.t.Fatalf("effect %d after the commit or sync of one step", fx.kind)
		}
		r.kinds = append(r.kinds, fx.kind)
		if r.inFlight != 0 && (fx.kind == fxCommit || fx.kind == fxSync) {
			r.t.Fatalf("effect %d while the outcome of effect %d is out", fx.kind, r.inFlight)
		}
		at := slotRef{r.seat, fx.inst}
		switch fx.kind {
		case fxAdvance:
			r.advances = append(r.advances, at)
		case fxStart:
			if fx.inst < r.w.floor || r.started[at] {
				r.t.Fatalf("slot %d started below floor %d or twice", fx.inst, r.w.floor)
			}
			r.started[at] = true
			r.starts = append(r.starts, at)
		case fxPropose:
			r.checkOffer(at)
			r.placed[at] = fx.value
			r.offers = append(r.offers, at)
			offered = append(offered, fx.inst)
		case fxCommit:
			if fx.decision.Instance != r.w.floor {
				r.t.Fatalf("commit of %d released at floor %d", fx.decision.Instance, r.w.floor)
			}
			last = true
			if r.hold {
				r.inFlight, r.held = fxCommit, fx.decision
				break
			}
			follow, committed = r.committed(fx.decision), true
		case fxSync:
			r.syncs++
			r.inFlight, r.lastSync, last = fxSync, fx, true
		}
	}
	r.checkDepth(offered)
	return follow, committed
}

// checkDepth holds the step that offered batches to the slots offered (in
// effect order) to the depth rule. Each of them is still undecided, so the
// k-th found undecided - (len(offered) - k) own proposals undecided before it.
func (r *rig) checkDepth(offered []int64) {
	r.t.Helper()
	undecided := r.w.undecided()
	for k, inst := range offered {
		before := undecided - (len(offered) - k)
		if !r.q.isFull(r.w.proposed[inst].batch) && before >= r.w.d {
			r.t.Fatalf("partial batch offered to slot %d with %d own proposals undecided, d = %d", inst, before, r.w.d)
		}
	}
	if !r.w.live || !r.w.leads || undecided > 0 || len(r.q.ready) == 0 || r.q.blind > 0 {
		return
	}
	for inst := r.w.floor; inst < r.w.nextStart; inst++ {
		_, taken := r.w.proposed[inst]
		if _, decided := r.w.parked[inst]; !taken && !decided {
			r.t.Fatalf("a batch held back beside empty slot %d with no own proposal undecided", inst)
		}
	}
}

// committed is the runtime's evCommitted for the commit of d.
func (r *rig) committed(d consensus.Decision) event {
	ev := event{kind: evCommitted}
	if d.Instance == r.floor { // else a state transfer got there first
		r.commits = append(r.commits, d.Instance)
		r.floor++
		ev.replaced = d.Instance == r.viewChangeAt
	}
	ev.floor = r.floor
	return ev
}

// release answers the held commit, as Node.onReleased does.
func (r *rig) release() {
	r.t.Helper()
	r.inFlight = 0
	r.run(r.committed(r.held))
}

// synced ends the round in flight the way Node.synced does: the transfer
// left the runtime's floor at floor.
func (r *rig) synced(floor int64, progressed bool) {
	r.t.Helper()
	r.floor, r.inFlight = max(r.floor, floor), 0
	r.run(event{kind: evSynced, floor: r.floor, progressed: progressed})
}

// syncedReplaced ends the round in flight with a new view installed: the
// outcome, then the evEngine announcing the seat in it, as Node.settle
// queues them.
func (r *rig) syncedReplaced(floor int64, member, leads bool) {
	r.t.Helper()
	r.floor, r.inFlight = max(r.floor, floor), 0
	r.run(event{kind: evSynced, floor: r.floor, progressed: true, replaced: true})
	r.engine(member, leads)
}

// checkOffer: a batch may only go to a started, still empty slot with no
// empty slot below it.
func (r *rig) checkOffer(at slotRef) {
	r.t.Helper()
	if _, taken := r.placed[at]; !r.started[at] || taken {
		r.t.Fatalf("batch offered to slot %d, which is not started or already holds one", at.inst)
	}
	for inst := r.w.floor; inst < at.inst; inst++ {
		lower := slotRef{at.seat, inst}
		_, decided := r.w.parked[inst]
		if _, taken := r.placed[lower]; r.started[lower] && !taken && !decided {
			r.t.Fatalf("batch placed in slot %d above empty slot %d", at.inst, inst)
		}
	}
}

// run steps ev and every evCommitted it leads to, as Node.drive does.
func (r *rig) run(ev event) {
	r.t.Helper()
	for more := true; more; {
		ev, more = r.step(ev)
	}
}

// engine announces a new machine (member) or none.
func (r *rig) engine(member, leads bool) {
	r.t.Helper()
	r.run(event{kind: evEngine, member: member, leads: leads})
}

// leader says the machine installed a regency that this replica leads, or not.
func (r *rig) leader(leads bool) {
	r.t.Helper()
	r.run(event{kind: evLeader, leads: leads})
}

func (r *rig) work(batches ...smr.Batch) {
	r.t.Helper()
	r.q.ready = append(r.q.ready, batches...)
	r.run(event{kind: evWork})
}

// decide has the machine decide slot inst on value.
func (r *rig) decide(inst int64, value []byte) {
	r.t.Helper()
	r.run(event{kind: evDecision, decision: consensus.Decision{Instance: inst, Value: value}})
}

// decideOwn decides slot inst on the value this replica offered it.
func (r *rig) decideOwn(inst int64) {
	r.t.Helper()
	v, ok := r.placed[slotRef{r.seat, inst}]
	if !ok {
		r.t.Fatalf("slot %d holds no batch to decide", inst)
	}
	r.decide(inst, v)
}

// ofSeat picks the slots of one machine out of an effect record.
func ofSeat(refs []slotRef, seat int) []int64 {
	var insts []int64
	for _, ref := range refs {
		if ref.seat == seat {
			insts = append(insts, ref.inst)
		}
	}
	return insts
}

func (r *rig) wantOffers(want ...int64) {
	r.t.Helper()
	got := make([]int64, len(r.offers))
	for i, o := range r.offers {
		got[i] = o.inst
	}
	if !slices.Equal(got, want) {
		r.t.Fatalf("batches went to slots %v, want %v", got, want)
	}
}

func (r *rig) wantCommits(want ...int64) {
	r.t.Helper()
	if !slices.Equal(r.commits, want) {
		r.t.Fatalf("commits %v, want %v", r.commits, want)
	}
}

func (r *rig) wantRequeued(want ...smr.Batch) {
	r.t.Helper()
	var reqs []smr.Request
	for _, b := range want {
		reqs = append(reqs, b.Requests...)
	}
	same := func(a, b smr.Request) bool { return a.ClientID == b.ClientID && a.Seq == b.Seq }
	if !slices.EqualFunc(r.q.requeued, reqs, same) {
		r.t.Fatalf("requeued %d requests %v, want %d in instance order", len(r.q.requeued), r.q.requeued, len(reqs))
	}
}

// (a) A W=8 leader whose work arrives in bursts: every batch goes to the
// lowest empty slot (checkOffer), and whatever order the decisions come
// back in, they commit in instance order, each exactly once.
func TestWindowLeaderCommitsInOrderUnderAnyDecisionOrder(t *testing.T) {
	const batches = 24
	for seed := int64(0); seed < 64; seed++ {
		rng := rand.New(rand.NewSource(seed))
		r := newRig(t, 8)
		r.engine(true, true)
		added := 0
		for len(r.commits) < batches {
			var undecided []int64
			for inst := r.floor; inst < r.w.nextStart; inst++ {
				_, offered := r.placed[slotRef{1, inst}]
				if _, parked := r.w.parked[inst]; offered && !parked {
					undecided = append(undecided, inst)
				}
			}
			if added < batches && (len(undecided) == 0 || rng.Intn(3) == 0) {
				n := 1 + rng.Intn(3)
				for i := 0; i < n && added < batches; i++ {
					added++
					r.work(testBatch(int64(added), 1, 2))
				}
				continue
			}
			if len(undecided) == 0 {
				t.Fatalf("seed %d: stalled at floor %d with every offered batch decided", seed, r.floor)
			}
			r.decideOwn(undecided[rng.Intn(len(undecided))])
			if r.w.floor != r.floor || int(r.w.nextStart-r.w.floor) != 8 {
				t.Fatalf("seed %d: window [%d,%d) at runtime floor %d, want 8 open slots", seed, r.w.floor, r.w.nextStart, r.floor)
			}
		}
		want := make([]int64, batches)
		for i := range want {
			want[i] = int64(i + 1)
		}
		r.wantCommits(want...)
		if len(r.q.requeued) != 0 {
			t.Fatalf("seed %d: %d requests requeued though every slot decided its own batch", seed, len(r.q.requeued))
		}
	}
}

// (b) The stall behind TestLeaderFillsLowestOpenSlotFirst: the closed-loop
// clients' requests arrive while the step that slides the window is already
// past its first look at the queue. A driver with a second proposal site in
// its slot-opening loop finds them there and puts them in the slot it has
// just opened — above seven empty ones that nothing is left to fill. The
// batch must go to the lowest empty slot and never to the new one.
func TestWindowWorkArrivingMidStepGoesToLowestEmptySlot(t *testing.T) {
	r := newRig(t, 8)
	r.engine(true, true)
	r.work(testBatch(1, 1, 1))
	r.wantOffers(1) // slots 2..8 are open and empty

	commit, ok := r.step(event{kind: evDecision, decision: consensus.Decision{Instance: 1, Value: r.placed[slotRef{1, 1}]}})
	if !ok {
		t.Fatal("the decision at the floor was not released")
	}
	// The racing step: the commit slides the window and slot 9 opens.
	r.q.blind = 1
	r.q.ready = append(r.q.ready, testBatch(2, 1, 4))
	if _, again := r.step(commit); again {
		t.Fatal("nothing else is decided")
	}
	r.q.blind = 0
	if !r.started[slotRef{1, 9}] {
		t.Fatal("slot 9 did not open")
	}
	r.run(event{kind: evWork}) // the batcher's Ready token
	r.wantOffers(1, 2)
	if n := len(r.w.proposed[2].batch.Requests); n != 4 {
		t.Fatalf("slot 2 holds %d requests, want the 4 that arrived mid-step", n)
	}
	r.decideOwn(2)
	r.wantCommits(1, 2)
}

// (c) A slot that decided something other than this replica's batch gives
// the requests back exactly once; a slot that decided the batch never does.
func TestWindowRequeuesOnlyWhatWasNotDecided(t *testing.T) {
	r := newRig(t, 4)
	r.engine(true, true)
	a, b := testBatch(1, 1, 2), testBatch(2, 1, 3)
	r.work(a, b)
	r.wantOffers(1, 2)

	r.decideOwn(1)
	r.decide(2, nil) // a leader change decided the empty filler
	r.wantCommits(1, 2)
	r.wantRequeued(b)
	// The requests went back to the front of the queue and into the next
	// empty slot; decided there, they stay decided.
	r.wantOffers(1, 2, 3)
	r.decideOwn(3)
	r.wantCommits(1, 2, 3)
	r.wantRequeued(b) // b once, a never
}

// (d) A commit that changes the view ends the window: what the old machine
// decided beyond it is void, what this replica offered beyond it returns to
// the queue in instance order, and the slots restart at the new floor on the
// machine the next evEngine announces — the event right after the commit's
// outcome (Node.settle; no decision of the old machine can follow: the
// runtime voids whatever it queued).
func TestWindowViewChangeHandsOverToNextMachine(t *testing.T) {
	r := newRig(t, 4)
	r.engine(true, true)
	a, b, c, d := testBatch(1, 1, 1), testBatch(2, 1, 1), testBatch(3, 1, 2), testBatch(4, 1, 2)
	r.work(a, b, c, d)
	r.wantOffers(1, 2, 3, 4)

	r.viewChangeAt = 2
	r.decideOwn(3) // parks behind 1 and 2
	r.decideOwn(2)
	r.decideOwn(1) // releases 1, then 2 — the reconfiguration
	r.wantCommits(1, 2)
	r.wantRequeued(c, d)
	if r.w.live || len(r.w.parked) != 0 || len(r.w.proposed) != 0 {
		t.Fatalf("window survived the view change: live=%v parked=%d proposed=%d", r.w.live, len(r.w.parked), len(r.w.proposed))
	}

	r.engine(true, false) // the new view's first leader is someone else
	r.decide(3, []byte("x"))
	r.leader(true) // until a regency makes this replica leader
	r.wantCommits(1, 2, 3)
	// Slots 3..6 open at the new floor; committing 3 slides the window to 7.
	if got := ofSeat(r.starts, 2); !slices.Equal(got, []int64{3, 4, 5, 6, 7}) {
		t.Fatalf("new machine started %v, want 3..7", got)
	}
	if got := ofSeat(r.advances, 2); !slices.Equal(got, []int64{3, 4}) {
		t.Fatalf("new machine advanced to %v, want 3 then 4", got)
	}
	// c and d come back as one front-of-queue batch; slot 3 was decided
	// before anything could be offered to it.
	if got := ofSeat(r.offers, 2); !slices.Equal(got, []int64{4}) {
		t.Fatalf("requeued work offered to slots %v of the new machine, want 4", got)
	}
	r.wantRequeued(c, d)
}

// (e) A state transfer moves the floor to a point inside the open window:
// overtaken slots are abandoned and their batches given back, the engine is
// advanced once, and nothing starts below the floor (rig.step checks). The
// machine takes whatever floor it is told, by evSynced or by evCommitted —
// the runtime no longer lets a transfer overtake a commit it has released,
// but the machine assumes no outcome.
func TestWindowFloorMovedFromOutside(t *testing.T) {
	r := newRig(t, 8)
	r.engine(true, true)
	a, b, c := testBatch(1, 1, 1), testBatch(2, 1, 1), testBatch(3, 1, 1)
	r.work(a, b, c)
	r.wantOffers(1, 2, 3)
	r.decideOwn(2) // parked behind 1; the transfer replays it as decided

	advances := len(r.advances)
	r.synced(3, false)
	r.wantRequeued(a)
	if got := r.advances[advances:]; !slices.Equal(got, []slotRef{{1, 3}}) {
		t.Fatalf("advance effects %v, want one, to 3", got)
	}
	if r.w.nextStart != 11 {
		t.Fatalf("window open up to %d, want 11", r.w.nextStart)
	}
	r.wantOffers(1, 2, 3, 4) // a, given back, goes to the lowest empty slot
	r.wantCommits()

	// Slot 3 decides and is released, but a transfer reached 6 first.
	r.floor = 6
	r.decideOwn(3)
	r.wantCommits()
	r.wantRequeued(a, a) // slot 4's batch; c was decided as proposed
	if r.w.floor != 6 || r.w.nextStart != 14 || r.advances[len(r.advances)-1] != (slotRef{1, 6}) {
		t.Fatalf("window [%d,%d) after the transfer, want [6,14) and the engine advanced to 6", r.w.floor, r.w.nextStart)
	}
}

// (f) The resync clock measures time since the last commit: a decision
// parked behind a gap does not push it back, a commit does, and when it
// runs out an idle replica does nothing while a busy one asks for exactly
// one state transfer per period.
func TestWindowResyncClock(t *testing.T) {
	r := newRig(t, 4)
	t0 := r.now
	at := func(d time.Duration) { r.now = t0.Add(d) }
	r.engine(true, false)
	if got := r.w.nextDeadline(); !got.Equal(t0.Add(testPeriod)) {
		t.Fatalf("first resync instant %v, want one period after the engine went live", got.Sub(t0))
	}

	at(time.Second)
	r.decide(2, nil) // parked: instance 1 is missing
	if got := r.w.nextDeadline(); !got.Equal(t0.Add(testPeriod)) {
		t.Fatalf("a parked decision moved the resync instant to %v", got.Sub(t0))
	}
	at(testPeriod - time.Millisecond)
	r.run(event{kind: evTick})
	at(testPeriod)
	r.run(event{kind: evTick}) // due, but nothing is owed
	if r.syncs != 0 {
		t.Fatalf("%d state transfers on an idle replica", r.syncs)
	}

	r.q.busy = true
	at(2*testPeriod - time.Millisecond)
	r.run(event{kind: evTick})
	if r.syncs != 0 {
		t.Fatal("state transfer before the period ran out")
	}
	at(2 * testPeriod)
	r.run(event{kind: evTick})
	r.synced(r.floor, false) // the donors had nothing new
	r.run(event{kind: evTick})
	at(3*testPeriod - time.Millisecond)
	r.run(event{kind: evTick})
	if r.syncs != 1 {
		t.Fatalf("%d state transfers in one period, want 1", r.syncs)
	}
	at(3 * testPeriod)
	r.run(event{kind: evTick})
	if r.syncs != 2 {
		t.Fatalf("%d state transfers after two busy periods, want 2", r.syncs)
	}
	r.synced(r.floor, false)

	at(3*testPeriod + time.Second)
	r.decide(1, nil) // closes the gap: 1 and 2 commit
	r.wantCommits(1, 2)
	if got, want := r.w.nextDeadline(), r.now.Add(testPeriod); !got.Equal(want) {
		t.Fatalf("resync instant %v after a commit, want %v", got.Sub(t0), want.Sub(t0))
	}
}

// (g) A follower never takes a batch from the queue. When leadership
// arrives mid-window, the next event fills the empty slots lowest first,
// skipping one that has already decided.
func TestWindowLeadershipGainedMidWindow(t *testing.T) {
	r := newRig(t, 4)
	r.engine(true, false)
	r.q.ready = append(r.q.ready, testBatch(1, 1, 1), testBatch(2, 1, 1), testBatch(3, 1, 1), testBatch(4, 1, 1))
	for _, ev := range []event{{kind: evWork}, {kind: evTick}, {kind: evDecision, decision: consensus.Decision{Instance: 3}}} {
		r.run(ev)
	}
	if r.q.asked != 0 || len(r.offers) != 0 {
		t.Fatalf("a follower asked the queue %d times and offered %d batches", r.q.asked, len(r.offers))
	}

	starts, advances := len(r.starts), len(r.advances)
	r.leader(true) // a synchronization round made this replica leader
	r.wantOffers(1, 2, 4)
	if len(r.starts) != starts || len(r.advances) != advances {
		t.Fatal("a leadership change restarted the window")
	}
}

// (h) Without a seat — no consensus machine yet, or not a member — the
// window does nothing, whatever arrives; the evEngine that brings the seat
// opens the whole window in the same step.
func TestWindowIdleWithoutEngine(t *testing.T) {
	r := newRig(t, 4)
	r.q.busy = true
	r.q.ready = append(r.q.ready, testBatch(1, 1, 1))
	idle := []event{
		{kind: evWork},
		{kind: evEngine},
		{kind: evDecision, decision: consensus.Decision{Instance: 1}},
		{kind: evSynced, floor: 5},
		{kind: evEngine, leads: true}, // a machine, but no seat
		{kind: evLeader, leads: true},
		{kind: evDecision, decision: consensus.Decision{Instance: 5}},
		{kind: evTick},
	}
	r.floor = 5
	for _, ev := range idle {
		r.now = r.now.Add(testPeriod)
		if fx := r.w.step(r.now, ev); len(fx) != 0 {
			t.Fatalf("event %d without a seat caused %d effects", ev.kind, len(fx))
		}
		if !r.w.nextDeadline().IsZero() {
			t.Fatal("a deadline without a window")
		}
	}

	r.engine(true, true)
	if want := []slotRef{{1, 5}, {1, 6}, {1, 7}, {1, 8}}; !slices.Equal(r.starts, want) || !slices.Equal(r.advances, []slotRef{{1, 5}}) {
		t.Fatalf("going live started %v after advancing %v, want %v after one advance to 5", r.starts, r.advances, want)
	}
	r.wantOffers(5)
	if !bytes.Equal(r.placed[slotRef{1, 5}], r.w.proposed[5].enc) || r.w.nextDeadline().IsZero() {
		t.Fatal("live window holds no proposal for slot 5 or no resync instant")
	}
}

// (i) A decided value carries no byte the script did not put there: the
// queue hands batches out unstamped and fill stamps each with the instant
// its step was given, so the same script proposes the same bytes.
func TestWindowSameScriptSameProposals(t *testing.T) {
	script := func() [][]byte {
		r := newRig(t, 4)
		r.engine(true, true)
		var values [][]byte
		for i := 1; i <= 6; i++ {
			r.now = r.now.Add(time.Duration(i) * time.Millisecond)
			b := testBatch(int64(i), 1, 2)
			b.Timestamp = 0 // as smr.Batcher hands it out
			r.work(b)
			if i%2 == 0 {
				r.decideOwn(r.floor)
			}
		}
		for _, at := range r.offers {
			values = append(values, r.placed[at])
		}
		last, err := smr.DecodeBatch(values[len(values)-1])
		if err != nil || last.Timestamp != r.now.UnixNano() {
			t.Fatalf("the last batch is stamped %d (err %v), want its step's instant %d", last.Timestamp, err, r.now.UnixNano())
		}
		return values
	}
	first, second := script(), script()
	if len(first) != 6 || !slices.EqualFunc(first, second, bytes.Equal) {
		t.Fatalf("two runs of one script proposed different values:\n%x\n%x", first, second)
	}
}

var testDonors = []int32{1, 2, 3}

func (r *rig) ask() {
	r.t.Helper()
	r.run(event{kind: evSyncAsk, peers: testDonors, timeout: 3 * time.Second})
}

func (r *rig) wantKinds(what string, want ...effectKind) {
	r.t.Helper()
	if !slices.Equal(r.kinds, want) {
		r.t.Fatalf("%s: effects %v, want %v", what, r.kinds, want)
	}
}

// (j) A window without a seat — a candidate waiting to be joined, a retired
// member — still transfers state when asked: exactly one round per ask, with
// the ask's donors and timeout, and however much it installs nothing follows
// it. An ask that finds the round in flight begins no second one.
func TestWindowAskWithoutSeatRunsOneRound(t *testing.T) {
	r := newRig(t, 4)
	r.q.busy = true
	r.ask()
	r.wantKinds("the ask", fxSync)
	if !slices.Equal(r.lastSync.peers, testDonors) || r.lastSync.timeout != 3*time.Second {
		t.Fatalf("round against %v for %v, want the ask's donors and timeout", r.lastSync.peers, r.lastSync.timeout)
	}
	r.ask()
	r.wantKinds("an ask during the round")
	r.synced(40, true)
	r.wantKinds("the end of a round that installed 39 instances")
	if r.w.floor != 40 || r.syncs != 1 || !r.w.nextDeadline().IsZero() {
		t.Fatalf("floor %d after %d rounds, deadline %v; want 40, 1, none", r.w.floor, r.syncs, r.w.nextDeadline())
	}
	r.ask()
	r.wantKinds("the next ask", fxSync)
}

// (k) Between fxSync and evSynced the commit path is closed: decisions keep
// landing in the reorder buffer — at the floor too — and whatever ticks and
// asks arrive, nothing commits and no second round begins (rig.step fails
// the test on either). The round's end releases what is parked.
func TestWindowRoundInFlightHoldsCommitsAndRounds(t *testing.T) {
	r := newRig(t, 4)
	r.engine(true, true)
	r.q.busy = true
	r.work(testBatch(1, 1, 1), testBatch(2, 1, 1))
	r.ask()
	for i, ev := range []event{
		{kind: evDecision, decision: consensus.Decision{Instance: 2, Value: r.placed[slotRef{1, 2}]}},
		{kind: evDecision, decision: consensus.Decision{Instance: 1, Value: r.placed[slotRef{1, 1}]}},
		{kind: evTick},
		{kind: evSyncAsk, peers: []int32{2}, timeout: time.Second},
		{kind: evWork},
		{kind: evLeader}, // a regency deposed this replica meanwhile
		{kind: evTick},
	} {
		r.now = r.now.Add(testPeriod) // every tick is past the resync instant
		if _, commit := r.step(ev); commit {
			t.Fatalf("event %d released a commit", i)
		}
	}
	if len(r.w.parked) != 2 || r.syncs != 1 {
		t.Fatalf("%d decisions parked and %d rounds begun, want 2 and 1", len(r.w.parked), r.syncs)
	}
	if next := r.w.nextDeadline(); !next.After(r.now) {
		t.Fatalf("resync instant %v is not ahead of the last tick: the runtime's timer would spin", next.Sub(r.now))
	}
	r.synced(r.floor, false)
	r.wantCommits(1, 2)
	if len(r.q.requeued) != 0 {
		t.Fatal("batches decided as proposed were given back")
	}
}

// (l) Rounds repeat while they make progress, as one rule of the machine: a
// live window told that its round installed something goes again in the same
// step — after sliding the machine's window to the new floor, against the
// donors and with the timeout of the round it follows — unless the machine
// it kept running already holds the decision the commit path needs next. One
// parked above a hole is no such hand-over.
func TestWindowChainsRoundsUntilEngineHandsOver(t *testing.T) {
	r := newRig(t, 4)
	r.engine(true, false)
	r.ask()
	r.synced(10, true) // slots 1..4 overtaken, nothing decided
	r.wantKinds("a round that made progress, nothing parked", fxAdvance, fxStart, fxStart, fxStart, fxStart, fxSync)
	if r.syncs != 2 || !slices.Equal(r.lastSync.peers, testDonors) || r.lastSync.timeout != 3*time.Second {
		t.Fatalf("%d rounds, the last against %v for %v; want 2, the second like the first", r.syncs, r.lastSync.peers, r.lastSync.timeout)
	}
	if got := ofSeat(r.starts, 1); !slices.Equal(got, []int64{1, 2, 3, 4, 10, 11, 12, 13}) {
		t.Fatalf("slots started %v, want the window reopened at 10", got)
	}

	r.decide(13, nil) // the machine is live: it decides above the prefix being fetched
	r.synced(12, true)
	r.wantKinds("a hole under the parked decision", fxAdvance, fxStart, fxStart, fxSync)
	r.decide(12, nil)
	r.synced(12, false)
	r.wantCommits(12, 13)
	if r.syncs != 3 {
		t.Fatalf("%d rounds, want 3", r.syncs)
	}

	// The same outcome with the floor's decision in hand: commit, no round.
	r.ask()
	r.decide(16, nil)
	r.decide(17, nil)
	syncs := r.syncs
	r.floor, r.inFlight = 16, 0 // r.synced, one step at a time
	follow, commit := r.step(event{kind: evSynced, floor: 16, progressed: true})
	r.wantKinds("a round that reached the parked decision", fxAdvance, fxStart, fxStart, fxCommit)
	if !commit || r.syncs != syncs {
		t.Fatalf("commit released: %v, rounds begun: %d; want the commit and none", commit, r.syncs-syncs)
	}
	if got, want := r.w.nextDeadline(), r.now.Add(testPeriod); !got.Equal(want) {
		t.Fatalf("resync instant %v after the chain ended, want one period on", got.Sub(r.now))
	}
	r.run(follow)
	r.wantCommits(12, 13, 16, 17)
}

// (m) A round that installed nothing never chains, live window or not, and
// pushes the resync instant one period on: the next round is the clock's.
func TestWindowRoundWithoutProgressNeverChains(t *testing.T) {
	r := newRig(t, 4)
	r.engine(true, false)
	r.now = r.now.Add(time.Second)
	r.ask()
	r.now = r.now.Add(time.Second)
	r.synced(r.floor, false)
	r.wantKinds("a round that found nothing")
	if got, want := r.w.nextDeadline(), r.now.Add(testPeriod); r.syncs != 1 || !got.Equal(want) {
		t.Fatalf("%d rounds, resync instant %v; want 1 and one period after the round ended", r.syncs, got.Sub(r.now))
	}
	// A failed round can still have applied a prefix: that one chains.
	r.ask()
	r.synced(3, true)
	if r.syncs != 3 {
		t.Fatalf("%d rounds after one that made progress, want 3", r.syncs)
	}
}

// (n) What this replica offered to slots a round overtook returns to the
// queue exactly once, in instance order — also when the batches it took back
// are offered again and overtaken again.
func TestWindowRoundGivesOvertakenBatchesBackOnce(t *testing.T) {
	r := newRig(t, 4)
	r.engine(true, true)
	a, b, c := testBatch(1, 1, 1), testBatch(2, 1, 2), testBatch(3, 1, 1)
	r.work(a, b, c)
	r.wantOffers(1, 2, 3)
	r.ask()
	r.synced(3, true) // a and b were decided without this replica
	r.wantRequeued(a, b)
	r.wantOffers(1, 2, 3, 4) // one front-of-queue batch, to the lowest empty slot
	r.synced(3, false)
	r.wantRequeued(a, b)
	r.ask()
	r.synced(5, true)
	r.wantRequeued(a, b, c, a, b)
	r.synced(5, true)
	r.wantRequeued(a, b, c, a, b)
}

// (o) A held commit — the naive arm's every block, a reconfiguration block —
// is an outcome out like a round: decisions, work, ticks past the resync
// instant and an ask all arrive before its evCommitted, and nothing commits
// and no round begins (rig.step fails the test on either). The release
// commits the next parked decision, then begins the round the ask left owed.
func TestWindowHeldCommitHoldsCommitsAndRounds(t *testing.T) {
	r := newRig(t, 4)
	r.engine(true, true)
	r.q.busy = true
	r.work(testBatch(1, 1, 1), testBatch(2, 1, 1))
	r.hold = true
	r.decideOwn(1)
	r.hold = false
	if r.inFlight != fxCommit {
		t.Fatal("the commit of 1 is not out")
	}
	r.q.ready = append(r.q.ready, testBatch(3, 1, 1))
	for i, ev := range []event{
		{kind: evDecision, decision: consensus.Decision{Instance: 2, Value: r.placed[slotRef{1, 2}]}},
		{kind: evWork},
		{kind: evTick},
		{kind: evSyncAsk, peers: testDonors, timeout: 3 * time.Second},
		{kind: evTick},
	} {
		r.now = r.now.Add(testPeriod) // every tick is past the resync instant
		if _, commit := r.step(ev); commit {
			t.Fatalf("event %d released a commit", i)
		}
	}
	r.wantOffers(1, 2, 3)
	if r.syncs != 0 || len(r.commits) != 0 {
		t.Fatalf("%d rounds begun and %v committed during the hold, want none", r.syncs, r.commits)
	}
	if next := r.w.nextDeadline(); !next.After(r.now) {
		t.Fatalf("resync instant %v is not ahead of the last tick: the runtime's timer would spin", next.Sub(r.now))
	}
	r.release()
	r.wantCommits(1, 2)
	r.wantKinds("the outcome of the commit after the release", fxAdvance, fxStart, fxSync)
	if r.syncs != 1 || !slices.Equal(r.lastSync.peers, testDonors) || r.lastSync.timeout != 3*time.Second {
		t.Fatalf("%d rounds, the last against %v for %v; want the ask's", r.syncs, r.lastSync.peers, r.lastSync.timeout)
	}
	r.synced(r.floor, false)
}

// (p) The depth rule, one proposal in flight at a time: the first decision
// sets the minimum, each one slower than twice it takes one off d, down to
// 1, and each fast one gives one back, up to W.
func TestWindowDepthFollowsDecisionLatency(t *testing.T) {
	r := newRig(t, 4)
	r.q.max = 4
	r.engine(true, true)
	for i, step := range []struct {
		lat   time.Duration
		wantD int
	}{
		{10 * time.Millisecond, 4}, // the minimum
		{20 * time.Millisecond, 4}, // exactly twice it: not queued
		{21 * time.Millisecond, 3},
		{50 * time.Millisecond, 2},
		{30 * time.Millisecond, 1},
		{90 * time.Millisecond, 1}, // d never drops below 1
		{12 * time.Millisecond, 2},
		{8 * time.Millisecond, 3}, // a new minimum
		{16 * time.Millisecond, 4},
		{9 * time.Millisecond, 4}, // nor rises above W
	} {
		r.work(testBatch(int64(i+1), 1, 1))
		r.now = r.now.Add(step.lat)
		r.decideOwn(r.floor)
		if r.w.d != step.wantD {
			t.Fatalf("decision %d after %v: d = %d, want %d", i, step.lat, r.w.d, step.wantD)
		}
	}
	r.wantOffers(1, 2, 3, 4, 5, 6, 7, 8, 9, 10) // nothing undecided when each arrives: never held
}

// slowDown has the rig's window decide n single-request batches, one at a
// time, each slower than twice the first: d ends at max(1, W-n+1).
func (r *rig) slowDown(n int) {
	r.t.Helper()
	for i := 0; i < n; i++ {
		r.work(testBatch(int64(100+i), 1, 1))
		r.now = r.now.Add(time.Duration(1+2*i) * 10 * time.Millisecond)
		r.decideOwn(r.floor)
	}
}

// (q) With d own proposals undecided a partial batch waits in the queue while
// a full one goes at once; the wait ends with the decision that leaves fewer
// than d undecided, and never lasts past the last one.
func TestWindowHoldsPartialBatchesWhileDepthIsUndecided(t *testing.T) {
	r := newRig(t, 4)
	r.q.max = 4
	r.engine(true, true)
	r.slowDown(4)
	if r.w.d != 1 {
		t.Fatalf("d = %d after three slow decisions, want 1", r.w.d)
	}
	offers := len(r.offers)
	a, b, full := testBatch(1, 1, 1), testBatch(2, 1, 2), testBatch(3, 1, 4)
	r.work(a) // nothing undecided: a partial batch goes
	r.work(b)
	if len(r.offers) != offers+1 || len(r.q.ready) != 1 || r.q.fulls == 0 {
		t.Fatalf("%d of 2 partial batches offered with d = 1 and one undecided, want 1", len(r.offers)-offers)
	}
	r.q.ready = append([]smr.Batch{full}, r.q.ready...)
	r.run(event{kind: evWork})
	if len(r.offers) != offers+2 || len(r.q.ready) != 1 {
		t.Fatal("a full batch was held back")
	}
	aAt, fullAt := r.offers[offers].inst, r.offers[offers+1].inst
	r.now = r.now.Add(time.Second)
	r.decideOwn(aAt) // slow: d stays 1, and the full batch is undecided
	if len(r.offers) != offers+2 {
		t.Fatal("a partial batch offered beside an undecided full one at d = 1")
	}
	r.decideOwn(fullAt)
	if len(r.offers) != offers+3 || len(r.q.ready) != 0 {
		t.Fatal("the held batch was not offered once nothing was undecided")
	}
}

// (r) A new machine and newly gained leadership each start the depth rule
// over: d back at W, the samples forgotten.
func TestWindowEngineAndLeadershipResetDepth(t *testing.T) {
	r := newRig(t, 4)
	r.q.max = 4
	r.engine(true, true)
	r.slowDown(4)
	r.leader(true) // a regency this replica leads again: nothing gained
	if r.w.d != 1 {
		t.Fatalf("d = %d after a regency that kept the leader, want 1", r.w.d)
	}
	r.leader(false)
	r.leader(true)
	if r.w.d != 4 || r.w.samples != 0 {
		t.Fatalf("gained leadership left d = %d with %d samples, want 4 and none", r.w.d, r.w.samples)
	}
	r.slowDown(4)
	r.engine(true, false)
	if r.w.d != 4 || r.w.samples != 0 {
		t.Fatalf("a new machine left d = %d with %d samples, want 4 and none", r.w.d, r.w.samples)
	}
}

// (s) Decisions inside the instant that proposed them — a one-replica view,
// a virtual clock — leave a zero minimum, which never shrinks d however slow
// the decisions after it: every step offers what is queued, as before the
// depth rule.
func TestWindowSameInstantDecisionsNeverShrinkDepth(t *testing.T) {
	r := newRig(t, 4)
	r.q.max = 4
	r.engine(true, true)
	for i := 0; i < 12; i++ {
		r.work(testBatch(int64(i+1), 1, 1))
		r.decideOwn(r.floor)
	}
	for i := 0; i < 8; i++ {
		r.work(testBatch(int64(20+i), 1, 1), testBatch(int64(40+i), 1, 1))
		r.now = r.now.Add(time.Duration(i+1) * time.Second)
		r.decideOwn(r.floor)
		r.decideOwn(r.floor)
		if r.w.d != 4 {
			t.Fatalf("d = %d after a slow decision under a zero minimum, want 4", r.w.d)
		}
	}
	if r.q.fulls != 0 || len(r.q.ready) != 0 {
		t.Fatalf("%d calls for a full batch, %d batches left queued; want none", r.q.fulls, len(r.q.ready))
	}
}

// (t) W = 1 — and so the naive Pipeline=false arm, which forces it — offers
// exactly what it offered before the depth rule: its one slot is empty only
// when nothing of its own is undecided, so it never asks for a full batch.
// Arbitrary scripts run against a queue that refuses partial batches to a
// full-batch call and against one that never does (the old queue) must
// produce the same offers, values and commits.
func TestWindowDepthOneOffersAsBefore(t *testing.T) {
	offers := 0
	for seed := int64(0); seed < 200; seed++ {
		script := make([]byte, 120)
		rand.New(rand.NewSource(seed)).Read(script)
		now, old := playWindowScript(t, 1, 3, script), playWindowScript(t, 1, 0, script)
		if now.q.fulls != 0 {
			t.Fatalf("seed %d: %d calls for a full batch at W = 1", seed, now.q.fulls)
		}
		if !slices.Equal(now.offers, old.offers) || !slices.Equal(now.commits, old.commits) ||
			!maps.EqualFunc(now.placed, old.placed, bytes.Equal) {
			t.Fatalf("seed %d: W = 1 offered %v and committed %v, before the depth rule %v and %v", seed, now.offers, now.commits, old.offers, old.commits)
		}
		offers += len(now.offers)
	}
	if offers < 200 {
		t.Fatalf("%d offers in 200 scripts: the scripts barely lead", offers)
	}
}

// FuzzWindowStep plays an arbitrary runtime against the machine: each script
// byte pair is one thing that can happen around it — a decision of the
// current consensus machine for a slot it may hold, some milliseconds after
// the last event, a leadership change, work, a tick, an ask, the end of a
// round (asked for or not, never while a commit is held) anywhere at or above
// the floor — plain, or having installed a view, which replaces the machine
// (or drops it: retired) — a commit that changes the view, holding commits,
// and releasing the held one. Every replacement is followed by the evEngine
// announcing the next seat, as Node.settle queues it. Whatever the script,
// the rig's checks hold (a commit is for the floor and a commit or fxSync
// ends its step; none of either while an outcome is out; no slot below the
// floor or twice on one machine; no batch above an empty slot; no partial
// batch offered while d own proposals are undecided; no batch held back
// beside an empty slot while none is), the machine and the rig agree on what
// is out, commits are in instance order and once each, and the buffers stay
// bounded: W parked, W proposed.
func FuzzWindowStep(f *testing.F) {
	// A leader fills its window, decides out of order, commits across a view change.
	f.Add([]byte{2, 3, 2, 5, 2, 5, 2, 5, 1, 129, 1, 128, 8, 1, 1, 130, 0, 1, 1, 0, 3, 1})
	// A round with decisions parked under it, chained, handed over.
	f.Add([]byte{4, 0, 1, 1, 1, 0, 3, 30, 4, 0, 5, 66, 1, 0, 5, 64, 7, 2, 3, 30, 6, 65, 3, 30})
	// A candidate: rounds without a seat, then one that brings the seat.
	f.Add([]byte{9, 0, 4, 0, 5, 75, 4, 0, 5, 11, 1, 1, 4, 0, 6, 3, 0, 1, 1, 0, 2, 9})
	// A held commit with a decision parked behind it, a tick and an ask: two
	// releases, then the round.
	f.Add([]byte{0, 1, 7, 0, 10, 1, 2, 3, 2, 5, 1, 128, 4, 0, 1, 129, 3, 30, 11, 0, 11, 0, 5, 0})
	// A leader whose decisions slow down (4 ms, then 24, 44 and 45 ms after
	// their proposals): d falls to 2, one more partial batch goes, the next
	// two wait; d falls to 1, and a fast decision gives one back.
	f.Add([]byte{0, 1, 2, 0, 2, 0, 2, 0, 2, 0, 1, 144, 1, 208, 1, 208, 2, 0, 2, 0, 2, 0, 1, 132, 1, 133, 2, 5})
	f.Fuzz(func(t *testing.T, script []byte) {
		playWindowScript(t, 4, 3, script)
	})
}

// playWindowScript plays a FuzzWindowStep script against a W = depth window
// whose queue calls a batch of fullSize requests full, and returns the rig.
func playWindowScript(t *testing.T, depth, fullSize int, script []byte) *rig {
	t.Helper()
	r := newRig(t, depth)
	r.q.max = fullSize
	member, leads := true, false // the seat the next evEngine announces
	decided := make(map[slotRef]bool)
	var nextSeq uint64
	r.engine(member, leads)
	for ; len(script) >= 2; script = script[2:] {
		op, arg := script[0]%12, script[1]
		commits := len(r.commits)
		switch op {
		case 0:
			leads = arg&1 == 1
			r.leader(leads)
		case 1:
			at := slotRef{r.seat, r.floor + int64(arg)%int64(depth)}
			if !member || decided[at] {
				break // a machine holds W slots, and decides each once
			}
			decided[at] = true
			var value []byte
			if arg&0x80 != 0 {
				value = r.placed[at] // decided as proposed, if this replica proposed
			}
			r.now = r.now.Add(time.Duration(arg>>2&0x1f) * time.Millisecond)
			r.decide(at.inst, value)
		case 2:
			nextSeq++
			r.work(testBatch(int64(arg%3), nextSeq, 1+int(arg)%3))
		case 3:
			r.now = r.now.Add(time.Duration(arg) * 100 * time.Millisecond)
			r.run(event{kind: evTick})
		case 4:
			r.ask()
		case 5:
			if r.inFlight != fxCommit {
				r.synced(r.floor+int64(arg)%12, arg&0x40 != 0)
			}
		case 6:
			if r.inFlight != fxCommit {
				member, leads = arg&1 == 1, arg&2 != 0
				r.syncedReplaced(r.floor+int64(arg)%12, member, leads)
			}
		case 7:
			r.q.busy = !r.q.busy
		case 8:
			r.viewChangeAt = r.floor + int64(arg)%int64(depth)
		case 9:
			member = arg&1 == 1 // the seat the next view change brings
		case 10:
			r.hold = arg&1 == 1 // as Pipeline=false holds every block
		case 11:
			if r.inFlight == fxCommit {
				r.release()
			}
		}
		if n := len(r.commits); n > commits && r.commits[n-1] == r.viewChangeAt {
			leads = arg&2 == 0
			r.engine(member, leads)
		}
		if !slices.IsSorted(r.commits) || len(slices.Compact(slices.Clone(r.commits))) != len(r.commits) {
			t.Fatalf("commits out of order or twice: %v", r.commits)
		}
		if r.w.floor != r.floor || r.w.inFlight != r.inFlight {
			t.Fatalf("the machine's floor is %d with %d out, the runtime's %d with %d", r.w.floor, r.w.inFlight, r.floor, r.inFlight)
		}
		if p, o := len(r.w.parked), len(r.w.proposed); p > depth || o > depth {
			t.Fatalf("buffers grew past the window: %d parked, %d proposed (W=%d)", p, o, depth)
		}
	}
	return r
}
