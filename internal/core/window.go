package core

import (
	"bytes"
	"time"

	"smartchain/internal/consensus"
	"smartchain/internal/smr"
)

// event is one input to the window machine: something the runtime saw
// happen outside it, or the passage of time.
type event struct {
	kind eventKind
	// floor is the commit floor the commit or round left behind. evCommitted,
	// evSynced.
	floor int64
	// member: this replica orders through the new machine; leads: it leads
	// the machine's regency. evEngine (member, leads), evLeader (leads).
	member, leads bool
	decision      consensus.Decision // evDecision
	replaced      bool               // evCommitted, evSynced: the machine was replaced or dropped
	progressed    bool               // evSynced: the round installed or applied something
	peers         []int32            // evSyncAsk: the donors to ask,
	timeout       time.Duration      // and how long a round may take
}

type eventKind uint8

const (
	evEngine    eventKind = iota + 1 // a new consensus machine, or none: this replica's seat changed
	evLeader                         // the machine installed a regency: leadership may have moved
	evDecision                       // the machine decided an instance
	evWork                           // the request queue may hold work
	evCommitted                      // the runtime finished the fxCommit in flight
	evSyncAsk                        // a caller wants a state-transfer round (Start, SyncFromPeers)
	evSynced                         // the round in flight is over
	evTick                           // time passed: the resync instant may be due
)

// effect is one output of a step, performed by the runtime in order.
type effect struct {
	kind     effectKind
	inst     int64              // fxAdvance: the floor; fxStart, fxPropose: the slot
	value    []byte             // fxPropose: the encoded batch
	decision consensus.Decision // fxCommit
	peers    []int32            // fxSync: the donors to ask; nil means the view's other members
	timeout  time.Duration      // fxSync: the round is given up after this long
}

type effectKind uint8

const (
	fxAdvance effectKind = iota + 1 // the machine abandons every instance below inst
	fxStart                         // the machine starts slot inst, empty
	fxPropose                       // offer value to the started slot inst
	fxCommit                        // run Algorithm 1 for decision, then step evCommitted
	fxSync                          // begin one state-transfer round; evSynced ends it
)

// proposal is a batch this replica offered to one instance, with its wire
// encoding kept so a decided value is cheaply recognized as this batch, and
// the instant of the step that offered it.
type proposal struct {
	batch smr.Batch
	enc   []byte
	at    time.Time
}

// The depth rule's two constants: a decision that took more than
// depthSlack × the fastest of the last depthSamples propose→decide
// latencies queued behind other instances.
const (
	depthSlack   = 2
	depthSamples = 256
)

// window is the ordering driver as a deterministic state machine: it keeps
// W = PipelineDepth consensus instances open above the commit floor, hands
// the leader's batches to them, and releases their decisions to the commit
// path (Algorithm 1) strictly in instance order through a reorder buffer.
// Like consensus.machine it starts no goroutine, reads no clock and touches
// no channel or lock (smartlint's looptime holds it to that). It lives as
// long as the node: consensus machines come and go underneath it, each
// announced by an evEngine right after the outcome that replaced the last.
type window struct {
	depth  int           // W ≥ 1; 1 is strictly sequential ordering
	period time.Duration // a window that commits nothing this long re-syncs
	// The request queue, injected: next hands out a batch if one is ready
	// (full: only one of the queue's maximum size), requeue takes requests
	// back at its front, busy reports whether the view still owes this
	// replica anything.
	next    func(full bool) (smr.Batch, bool)
	requeue func([]smr.Request)
	busy    func() bool

	// d ∈ [1, depth] is the effective depth: once d own proposals are
	// undecided, fill takes only full batches. lat is a ring of the last
	// propose→decide latencies of own proposals, the newest at index
	// samples-1 (mod depthSamples).
	d       int
	lat     [depthSamples]time.Duration
	samples int

	out []effect // effects of the step in progress; reused across steps

	live  bool // slots are open on the machine the last evEngine announced
	leads bool
	// floor is the lowest instance not yet committed and advanced the floor
	// the machine was last told; slots [floor, nextStart) are started.
	floor, nextStart, advanced int64
	// parked is the reorder buffer (decided, waiting for the floor), proposed
	// the batch offered to each slot; a started slot in neither is empty.
	parked   map[int64]consensus.Decision
	proposed map[int64]proposal
	resyncAt time.Time // zero while no window is open
	// inFlight is fxCommit or fxSync while that effect's outcome is out (zero:
	// none). Until it is in, decisions only park and neither is emitted: the
	// one fact that keeps commits and state transfer out of each other's way.
	inFlight effectKind
	round    effect // the newest round; asked: it is owed, to begin once nothing is out or due
	asked    bool
}

// newWindow returns the machine for a replica that recovered up to floor.
func newWindow(depth int, period time.Duration, floor int64, next func(full bool) (smr.Batch, bool), requeue func([]smr.Request), busy func() bool) *window {
	return &window{
		depth: depth, period: period, next: next, requeue: requeue, busy: busy, d: depth,
		floor: floor, nextStart: floor, round: effect{kind: fxSync, timeout: time.Second},
		parked:   make(map[int64]consensus.Decision),
		proposed: make(map[int64]proposal),
	}
}

// step applies one event at instant now. The returned effects alias a
// buffer the next step overwrites: perform them before stepping again. At
// most one is an fxCommit or an fxSync, always the last. The runtime answers
// each with its outcome — a commit at once, or later if it holds the block —
// and until that is in, no step emits either.
func (w *window) step(now time.Time, ev event) []effect {
	clear(w.out) // drop the previous step's batch and decision references
	w.out = w.out[:0]
	switch ev.kind {
	case evEngine:
		w.onEngine(now, ev)
	case evLeader:
		if ev.leads && !w.leads {
			w.resetDepth()
		}
		w.leads = ev.leads
	case evDecision:
		if d := ev.decision; w.live && d.Instance >= w.floor {
			_, again := w.parked[d.Instance]
			if p, own := w.proposed[d.Instance]; own && !again {
				w.sample(now.Sub(p.at))
			}
			w.parked[d.Instance] = d
		}
	case evSyncAsk:
		// One that finds a round in flight waits for that round's outcome;
		// one that finds a commit out, for the commit's and then its own round.
		if w.inFlight != fxSync {
			w.round, w.asked = effect{kind: fxSync, peers: ev.peers, timeout: ev.timeout}, true
		}
	case evCommitted, evSynced:
		if ev.kind == evCommitted && ev.floor > w.floor {
			// Only a commit is progress: a decision parked behind a gap
			// must not hold off the state transfer that would close it.
			w.resyncAt = now.Add(w.period)
		}
		w.inFlight = 0
		w.moveFloor(ev.floor)
		if ev.replaced {
			// What the old machine decided beyond this block is void (on
			// every replica: the reconfiguration commits first everywhere)
			// and restarts under the machine the next evEngine announces.
			w.halt()
		}
		if ev.kind == evCommitted {
			break
		}
		// Rounds repeat while they make progress — the view moved on meanwhile —
		// until the machine kept running holds the decision to commit next. One
		// parked higher up is no exit: proposals sent before the machine could
		// buffer them leave a hole under it that only a round closes. A window
		// without a seat has no machine to hand over to: it never chains.
		_, handedOver := w.parked[w.floor]
		w.asked = w.live && ev.progressed && !handedOver
		if w.live && !w.asked {
			w.resyncAt = now.Add(w.period)
		}
	case evTick:
		if w.live && !now.Before(w.resyncAt) {
			// The view may have moved on without this replica — or be idle.
			w.resyncAt = now.Add(w.period)
			if w.inFlight == 0 && w.busy() {
				w.round, w.asked = effect{kind: fxSync, timeout: time.Second}, true
			}
		}
	}
	if w.live {
		w.open()
		w.fill(now)
	}
	d, due := w.parked[w.floor]
	switch {
	case w.inFlight != 0: // decisions park (at most W: only started slots decide)
	case due:
		// One at a time, assuming no outcome: evCommitted brings it.
		w.inFlight = fxCommit
		w.out = append(w.out, effect{kind: fxCommit, decision: d})
	case w.asked && !ev.replaced: // a replacing outcome's evEngine comes first
		w.inFlight, w.asked = fxSync, false
		w.out = append(w.out, w.round)
	}
	return w.out
}

// nextDeadline is the resync instant (zero while no window is open): the
// runtime must deliver an evTick no later.
func (w *window) nextDeadline() time.Time { return w.resyncAt }

// onEngine is the one machine hand-over: whatever window was open belongs
// to a machine that is gone, and a member opens one at the floor.
func (w *window) onEngine(now time.Time, ev event) {
	w.halt()
	w.resetDepth()
	w.leads = ev.leads
	if ev.member {
		w.live, w.nextStart, w.advanced = true, w.floor, 0
		w.resyncAt = now.Add(w.period)
	}
}

// moveFloor settles every slot below floor, whatever moved it there: a
// commit, or a state-transfer round — which can land anywhere, also inside
// the open window, where stale machine instances below the floor could never
// decide yet would keep gating the lowest-undecided timeout.
func (w *window) moveFloor(floor int64) {
	if floor <= w.floor {
		return
	}
	for inst, d := range w.parked {
		if inst < floor {
			if bytes.Equal(d.Value, w.proposed[inst].enc) {
				delete(w.proposed, inst) // decided as proposed: nothing to give back
			}
			delete(w.parked, inst)
		}
	}
	w.giveBack(floor)
	w.floor = floor
	w.nextStart = max(w.nextStart, floor)
}

// giveBack is the one requeue path: every batch still held by a slot below
// upTo returns to the front of the queue, in instance order — the slot
// decided something else (a leader change decided the filler or a
// re-proposed value), a state transfer overtook it, or its window halted.
// The queue's executed watermark filters whatever committed meanwhile; a
// batch not given back would leak its requests in the handed-out state.
func (w *window) giveBack(upTo int64) {
	var reqs []smr.Request
	for inst := w.floor; inst < min(upTo, w.nextStart); inst++ {
		if p, ok := w.proposed[inst]; ok {
			reqs = append(reqs, p.batch.Requests...)
			delete(w.proposed, inst)
		}
	}
	if len(reqs) > 0 {
		w.requeue(reqs)
	}
}

// halt abandons the open window: its machine is gone. The requests are
// queued at every other replica too, so returning them is a liveness
// optimization, not a safety requirement.
func (w *window) halt() {
	w.giveBack(w.nextStart)
	clear(w.parked)
	w.live, w.resyncAt = false, time.Time{}
}

// open slides the machine's window up to the floor: instances below it
// are abandoned there, and slots start up to W above it. Slots always open
// empty — fill is the only place a batch meets a slot.
func (w *window) open() {
	if w.advanced < w.floor {
		w.advanced = w.floor
		w.out = append(w.out, effect{kind: fxAdvance, inst: w.floor})
	}
	for ; w.nextStart < w.floor+int64(w.depth); w.nextStart++ {
		w.out = append(w.out, effect{kind: fxStart, inst: w.nextStart})
	}
}

// fill is the one proposal site: while this replica believes it leads, the
// empty slots get batches, lowest instance first. The order is
// load-bearing: commits are in instance order, so a batch above an empty
// slot cannot commit until that slot decides — and with every client
// blocked on the batch, nothing fills the slot short of a progress timeout
// deposing a healthy leader. The machine ignores a value for a slot that has
// decided (skipped here) or that this replica does not lead after all;
// giveBack returns those requests once the slot settles. The batch is stamped
// with the step's instant: the proposing leader's clock.
//
// Once d of this replica's proposals are undecided, a slot gets only a full
// batch: a leader whose instances queue cuts few large blocks instead of
// many small ones, and what is left in the queue grows until the next
// decision steps the window. With none undecided any batch goes (d ≥ 1).
func (w *window) fill(now time.Time) {
	if !w.leads {
		return
	}
	undecided := w.undecided()
	for inst := w.floor; inst < w.nextStart; inst++ {
		_, taken := w.proposed[inst]
		if _, decided := w.parked[inst]; taken || decided {
			continue
		}
		batch, ok := w.next(undecided >= w.d)
		if !ok {
			return
		}
		batch.Timestamp = now.UnixNano()
		enc := batch.Encode()
		w.proposed[inst] = proposal{batch: batch, enc: enc, at: now}
		undecided++
		w.out = append(w.out, effect{kind: fxPropose, inst: inst, value: enc})
	}
}

// undecided counts this replica's proposals whose slot has not decided.
func (w *window) undecided() int {
	n := 0
	for inst := range w.proposed {
		if _, decided := w.parked[inst]; !decided {
			n++
		}
	}
	return n
}

// sample is the depth rule, fed one propose→decide latency of an own
// proposal: d drops by one when it exceeds depthSlack × the fastest of the
// last depthSamples — the instance waited behind others, not for the
// network — and rises by one otherwise. A zero minimum (a decision inside
// the step that proposed it, virtual time) never shrinks d.
func (w *window) sample(lat time.Duration) {
	w.lat[w.samples%depthSamples] = lat
	w.samples++
	fastest := lat
	for _, l := range w.lat[:min(w.samples, depthSamples)] {
		fastest = min(fastest, l)
	}
	if fastest > 0 && lat > depthSlack*fastest {
		w.d = max(1, w.d-1)
	} else {
		w.d = min(w.depth, w.d+1)
	}
}

// resetDepth returns d to W and empties the samples: a new machine or a new
// leadership owes nothing to the latencies measured under the last one.
func (w *window) resetDepth() {
	w.d, w.samples = w.depth, 0
}
