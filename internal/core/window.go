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
	// gen names an engine: the node numbers the engines it starts (one per
	// view it orders in), so a decision is matched to its window by number,
	// not by pointer. evEngine, evDecision.
	gen uint64
	// floor is the commit floor the commit or round left behind. evCommitted,
	// evSynced.
	floor int64
	// member: this replica orders through engine gen; leads: it leads that
	// engine's regency — a hint, as old as the runtime's last look. evEngine.
	member, leads bool
	decision      consensus.Decision // evDecision
	viewChanged   bool               // evCommitted, evSynced: it installed a new view: the engine is gone
	progressed    bool               // evSynced: the round installed or applied something
	peers         []int32            // evSyncAsk: the donors to ask,
	timeout       time.Duration      // and how long a round may take
}

type eventKind uint8

const (
	evEngine    eventKind = iota + 1 // the live engine, or this replica's standing in it, changed
	evDecision                       // engine gen decided an instance
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
	fxAdvance effectKind = iota + 1 // the live engine abandons every instance below inst
	fxStart                         // the live engine starts slot inst, empty
	fxPropose                       // offer value to the started slot inst
	fxCommit                        // run Algorithm 1 for decision, then step evCommitted
	fxSync                          // begin one state-transfer round; evSynced ends it
)

// proposal is a batch this replica offered to one instance, with its wire
// encoding kept so a decided value is cheaply recognized as this batch.
type proposal struct {
	batch smr.Batch
	enc   []byte
}

// window is the ordering driver as a deterministic state machine: it keeps
// W = PipelineDepth consensus instances open above the commit floor, hands
// the leader's batches to them, and releases their decisions to the commit
// path (Algorithm 1) strictly in instance order through a reorder buffer.
// Like consensus.machine it starts no goroutine, reads no clock and touches
// no channel or lock (smartlint's looptime holds it to that). It lives as
// long as the node: engines come and go underneath it, told by generation.
type window struct {
	depth  int           // W ≥ 1; 1 is strictly sequential ordering
	period time.Duration // a window that commits nothing this long re-syncs
	// The request queue, injected: next hands out a batch if one is ready,
	// requeue takes requests back at its front, busy reports whether the
	// view still owes this replica anything.
	next    func() (smr.Batch, bool)
	requeue func([]smr.Request)
	busy    func() bool

	out []effect // effects of the step in progress; reused across steps

	gen   uint64 // the engine generation the last evEngine named
	live  bool   // slots are open on engine gen
	leads bool
	// floor is the lowest instance not yet committed and advanced the floor
	// the live engine was last told; slots [floor, nextStart) are started.
	floor, nextStart, advanced int64
	// parked is the reorder buffer (decided, waiting for the floor), proposed
	// the batch offered to each slot; a started slot in neither is empty.
	parked   map[int64]consensus.Decision
	proposed map[int64]proposal
	early    []event   // decisions of a generation no evEngine has named yet
	resyncAt time.Time // zero while no window is open
	// syncing: an fxSync (round) is out and its evSynced is not in. Until then
	// decisions only park and no second round begins: the one fact that keeps
	// commits and state transfer out of each other's way.
	syncing bool
	round   effect
}

// newWindow returns the machine for a replica that recovered up to floor.
func newWindow(depth int, period time.Duration, floor int64, next func() (smr.Batch, bool), requeue func([]smr.Request), busy func() bool) *window {
	return &window{
		depth: depth, period: period, next: next, requeue: requeue, busy: busy,
		floor: floor, nextStart: floor,
		parked:   make(map[int64]consensus.Decision),
		proposed: make(map[int64]proposal),
	}
}

// step applies one event at instant now. The returned effects alias a
// buffer the next step overwrites: perform them before stepping again. At
// most one is an fxCommit or an fxSync, always the last. The runtime answers
// an fxCommit with evCommitted before any other event; an fxSync it answers
// with evSynced whenever the round ends, and until then no step emits either.
func (w *window) step(now time.Time, ev event) []effect {
	clear(w.out) // drop the previous step's batch and decision references
	w.out = w.out[:0]
	begin := false // this step begins a round
	switch ev.kind {
	case evEngine:
		w.onEngine(now, ev)
	case evDecision:
		w.onDecision(ev)
	case evSyncAsk:
		// One that finds a round in flight waits for that round's outcome.
		if !w.syncing {
			w.round, begin = effect{kind: fxSync, peers: ev.peers, timeout: ev.timeout}, true
		}
	case evCommitted, evSynced:
		if ev.kind == evCommitted && ev.floor > w.floor {
			// Only a commit is progress: a decision parked behind a gap
			// must not hold off the state transfer that would close it.
			w.resyncAt = now.Add(w.period)
		}
		w.moveFloor(ev.floor)
		if ev.viewChanged {
			// The engine was replaced: what it decided beyond this block is
			// void (on every replica: the reconfiguration commits first
			// everywhere) and restarts under the next generation.
			w.halt()
		}
		if ev.kind == evCommitted {
			break
		}
		// Rounds repeat while they make progress — the view moved on meanwhile —
		// until the engine kept running holds the decision to commit next. One
		// parked higher up is no exit: proposals sent before the engine could
		// buffer them leave a hole under it that only a round closes. A window
		// without a seat has no engine to hand over to: it never chains.
		_, handedOver := w.parked[w.floor]
		w.syncing, begin = false, w.live && ev.progressed && !handedOver
		if w.live && !begin {
			w.resyncAt = now.Add(w.period)
		}
	case evTick:
		if w.live && !now.Before(w.resyncAt) {
			// The view may have moved on without this replica — or be idle.
			w.resyncAt = now.Add(w.period)
			if !w.syncing && w.busy() {
				w.round, begin = effect{kind: fxSync, timeout: time.Second}, true
			}
		}
	}
	if w.live {
		w.open()
		w.fill(now)
	}
	switch {
	case begin:
		w.syncing = true
		w.out = append(w.out, w.round)
	case w.syncing: // decisions park (at most W: only started slots decide)
	case w.live:
		if d, ok := w.parked[w.floor]; ok {
			// One at a time, assuming no outcome: evCommitted brings it.
			w.out = append(w.out, effect{kind: fxCommit, decision: d})
		}
	}
	return w.out
}

// nextDeadline is the resync instant (zero while no window is open): the
// runtime must deliver an evTick no later.
func (w *window) nextDeadline() time.Time { return w.resyncAt }

// onEngine is the one engine hand-over. A new generation, or losing the
// seat, ends the open window; a member without a window opens one at the
// floor. The same generation again only refreshes the leadership hint.
func (w *window) onEngine(now time.Time, ev event) {
	if ev.gen != w.gen || !ev.member {
		w.halt()
	}
	w.gen, w.leads = ev.gen, ev.leads
	if ev.member && !w.live {
		w.live, w.nextStart, w.advanced = true, w.floor, 0
		w.resyncAt = now.Add(w.period)
	}
	// Decisions that overtook this event land now, wait on, or are dropped.
	early := w.early
	w.early = nil
	for _, e := range early {
		w.onDecision(e)
	}
}

// onDecision lands a decision in the reorder buffer. One from a replaced
// engine, or for an instance already committed, is dropped.
func (w *window) onDecision(ev event) {
	switch d := ev.decision; {
	case ev.gen > w.gen:
		w.early = append(w.early, ev)
	case ev.gen == w.gen && w.live && d.Instance >= w.floor:
		w.parked[d.Instance] = d
	}
}

// moveFloor settles every slot below floor, whatever moved it there: a
// commit, or a state-transfer round — which can land anywhere, also inside
// the open window, where stale engine instances below the floor could never
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

// halt abandons the open window: its engine is gone. The requests are
// queued at every other replica too, so returning them is a liveness
// optimization, not a safety requirement.
func (w *window) halt() {
	w.giveBack(w.nextStart)
	clear(w.parked)
	w.live, w.resyncAt = false, time.Time{}
}

// open slides the live engine's window up to the floor: instances below it
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
// deposing a healthy leader. The engine ignores a value for a slot that has
// decided (skipped here) or that this replica does not lead after all;
// giveBack returns those requests once the slot settles. The batch is stamped
// with the step's instant: the proposing leader's clock.
func (w *window) fill(now time.Time) {
	for inst := w.floor; w.leads && inst < w.nextStart; inst++ {
		_, taken := w.proposed[inst]
		if _, decided := w.parked[inst]; taken || decided {
			continue
		}
		batch, ok := w.next()
		if !ok {
			return
		}
		batch.Timestamp = now.UnixNano()
		enc := batch.Encode()
		w.proposed[inst] = proposal{batch: batch, enc: enc}
		w.out = append(w.out, effect{kind: fxPropose, inst: inst, value: enc})
	}
}
