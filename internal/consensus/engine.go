package consensus

import (
	"sync"
	"time"

	"smartchain/internal/crypto"
	"smartchain/internal/transport"
	"smartchain/internal/view"
)

// Decision is the outcome of one consensus instance: the decided value plus
// a transferable proof (a Byzantine quorum of signed ACCEPT votes). The
// proof is what the blockchain layer stores next to each batch so that "a
// single log is enough" for recovery (paper §IV, Observation 2).
type Decision struct {
	Instance int64
	Epoch    int64
	Value    []byte
	Proof    crypto.Certificate
}

// Config parameterizes a Machine (or an Engine) for one view.
// Reconfiguration replaces the whole machine rather than mutating it: views
// are immutable, and so are the consensus keys bound to them.
type Config struct {
	// Self is this replica's ID.
	Self int32
	// View is the membership the machine operates in.
	View view.View
	// Signer is this replica's consensus key for the view.
	Signer *crypto.KeyPair
	// Send transmits a message to one peer (narrowed transport).
	Send func(to int32, typ uint16, payload []byte)
	// Timeout is the base progress timeout before a synchronization phase
	// is triggered. It doubles on every consecutive epoch change for the
	// same instance and resets on decision (eventual synchrony handling).
	Timeout time.Duration
	// Validate vets a leader proposal before the replica endorses it.
	// Typical use: check the batch parses and its requests are plausible.
	// A nil Validate accepts everything.
	Validate func(instance int64, value []byte) bool
	// RequestValue supplies a value when this replica becomes leader via a
	// synchronization phase with no certified value to re-propose. A nil
	// or empty return proposes the empty value (an empty batch).
	RequestValue func(instance int64) []byte
	// HasPending reports whether this replica knows of requests awaiting
	// ordering. When neither a proposal nor pending work exists, progress
	// timeouts re-arm instead of triggering a synchronization phase, so an
	// idle system does not churn through leader changes. Nil means
	// "always pending" (timeouts always escalate).
	HasPending func() bool
}

// Machine is the consensus protocol for one view as a synchronous handle:
// each method steps the machine once at the given instant, sends what the
// step sends through Config.Send, and returns the instances it decided
// (aliasing a buffer the next call overwrites) and the regency it installed
// (0: none). It starts no goroutine, reads no clock and is not safe for
// concurrent use; a runtime that drops it never calls it again.
type Machine struct {
	m       *machine
	others  []int32 // the recipients of a broadcast
	decided []Decision
}

// NewMachine returns the machine for cfg.View, no instance started.
func NewMachine(cfg Config) *Machine {
	if cfg.Timeout <= 0 {
		cfg.Timeout = 500 * time.Millisecond
	}
	return &Machine{m: newMachine(cfg), others: cfg.View.Others(cfg.Self)}
}

// Input is a wire message made ready for Machine.Message by PreVerify.
type Input struct{ ev event }

// PreVerify makes a consensus wire message an Input and hands it to
// deliver. A WRITE or ACCEPT vote is decoded (a malformed one, or one not its
// sender's, is dropped) and delivered at once: the machine holds it and
// checks its signature when it can complete a quorum, together with the
// others that do (DESIGN.md "Votes are checked at quorum time"). A PROPOSE
// from the leader of its epoch in v is, with a pool, vetted there by
// validate — the machine's own Config.Validate — and the verdict travels in
// the Input; without a pool, or with a saturated one, the machine validates
// inline. Proposals overtaking other traffic is network reordering.
func PreVerify(m transport.Message, v view.View, pool *crypto.VerifyPool, validate func(int64, []byte) bool, deliver func(Input)) {
	if m.Type == MsgPropose {
		preValidate(m, v, pool, validate, deliver)
		return
	}
	if _, ok := votePhase(m.Type); !ok {
		deliver(Input{event{kind: evMessage, msg: m}})
		return
	}
	vm, err := decodeVote(m.Payload)
	if err != nil || vm.Voter != m.From {
		return // malformed either way
	}
	deliver(Input{event{kind: evMessage, msg: m, vote: &vm}})
}

// preValidate is PreVerify for a PROPOSE.
func preValidate(m transport.Message, v view.View, pool *crypto.VerifyPool, validate func(int64, []byte) bool, deliver func(Input)) {
	if validate != nil {
		if pm, err := decodePropose(m.Payload); err == nil && m.From == v.Leader(pm.Epoch) &&
			pool.TryGo(func() {
				deliver(Input{event{kind: evMessage, msg: m, vetted: true, valid: validate(pm.Instance, pm.Value)}})
			}) {
			return
		}
	}
	deliver(Input{event{kind: evMessage, msg: m}})
}

// Message feeds one wire message, made ready by PreVerify.
func (h *Machine) Message(now time.Time, in Input) ([]Decision, int64) {
	return h.apply(now, in.ev)
}

// Start begins instance i, proposing value if this replica leads (nil on
// followers). Several instances may be live at once; the settled prefix
// (decided instances below the lowest undecided one) is garbage-collected.
func (h *Machine) Start(now time.Time, i int64, value []byte) ([]Decision, int64) {
	return h.apply(now, event{kind: evStart, inst: i, value: value})
}

// Propose offers a value for the started instance i: ignored unless this
// replica leads the instance's epoch and no proposal was adopted yet.
func (h *Machine) Propose(now time.Time, i int64, value []byte) ([]Decision, int64) {
	return h.apply(now, event{kind: evPropose, inst: i, value: value})
}

// Advance abandons every instance below i — state, buffered messages,
// deadlines, and later messages for them (a state transfer overtook them).
func (h *Machine) Advance(now time.Time, i int64) ([]Decision, int64) {
	return h.apply(now, event{kind: evAdvance, inst: i})
}

// UpdateKey installs a member's late-announced consensus key (paper §V-D).
func (h *Machine) UpdateKey(now time.Time, id int32, key crypto.PublicKey) ([]Decision, int64) {
	return h.apply(now, event{kind: evUpdateKey, keyID: id, key: key})
}

// Tick says time passed: every slot whose progress deadline is due expires.
func (h *Machine) Tick(now time.Time) ([]Decision, int64) {
	return h.apply(now, event{kind: evTick})
}

// NextDeadline is the earliest progress deadline among the live slots (zero
// when none is waiting): the runtime must call Tick no later.
func (h *Machine) NextDeadline() time.Time { return h.m.nextDeadline() }

// apply steps the machine once and performs its effects: the one place
// consensus traffic leaves a replica.
func (h *Machine) apply(now time.Time, ev event) ([]Decision, int64) {
	clear(h.decided) // drop the previous step's value references
	h.decided = h.decided[:0]
	var installed int64
	for _, fx := range h.m.step(now, ev) {
		switch fx.kind {
		case fxSend:
			h.m.cfg.Send(fx.to, fx.typ, fx.payload)
		case fxBroadcast:
			for _, peer := range h.others {
				h.m.cfg.Send(peer, fx.typ, fx.payload)
			}
		case fxDecide:
			h.decided = append(h.decided, fx.decision)
		case fxEpochInstalled:
			installed = fx.epoch
		}
	}
	return h.decided, installed
}

// Engine is a Machine under a goroutine, kept for its one caller, the
// consensus probe in bench/probes.go; it goes once the probe steps a
// Machine itself. Its methods post over a bounded channel, the loop owns the
// clock and one timer, and decisions come back on a channel.
type Engine struct {
	h *Machine // its View is never updated: HandleMessage reads it from any goroutine

	events    chan event
	decisions chan Decision
	stop      chan struct{}
	stopOnce  sync.Once
	done      chan struct{}
}

// New creates an engine. Start must be called to run it.
func New(cfg Config) *Engine {
	return &Engine{
		h:         NewMachine(cfg),
		events:    make(chan event, 4096),
		decisions: make(chan Decision, 16),
		stop:      make(chan struct{}),
		done:      make(chan struct{}),
	}
}

// Start launches the event loop.
func (e *Engine) Start() {
	go e.loop()
}

// Stop terminates the event loop and waits for it to exit. It may be called
// more than once and from several goroutines.
func (e *Engine) Stop() {
	e.stopOnce.Do(func() { close(e.stop) })
	<-e.done
}

// Decisions returns the channel of decided instances, in the order the
// machine decides them (not necessarily instance order with several live).
func (e *Engine) Decisions() <-chan Decision { return e.decisions }

// StartInstance posts Machine.Start.
func (e *Engine) StartInstance(i int64, value []byte) {
	e.enqueue(event{kind: evStart, inst: i, value: value})
}

// AdvanceTo posts Machine.Advance.
func (e *Engine) AdvanceTo(i int64) {
	e.enqueue(event{kind: evAdvance, inst: i})
}

// HandleMessage feeds a consensus wire message into the engine. It is safe
// to call from any goroutine.
func (e *Engine) HandleMessage(m transport.Message) {
	PreVerify(m, e.h.m.cfg.View, nil, nil, func(in Input) { e.enqueue(in.ev) })
}

func (e *Engine) enqueue(ev event) {
	select {
	case e.events <- ev:
	case <-e.stop:
	}
}

// loop steps the machine one event at a time and delivers the decisions.
// A tick that finds nothing due is harmless, so the timer is re-armed only
// for a deadline earlier than the armed one (decisions only move them later),
// and a fire that overtakes the re-arm is one early tick.
func (e *Engine) loop() {
	defer close(e.done)
	defer close(e.decisions)

	timeout := e.h.m.cfg.Timeout
	armed := time.Now().Add(timeout) // when the timer fires; zero once it has
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	for {
		var ev event
		select {
		case <-e.stop:
			return
		case ev = <-e.events:
		case <-timer.C:
			armed = time.Time{}
			ev = event{kind: evTick}
		}
		now := time.Now()
		decided, _ := e.h.apply(now, ev)
		for _, d := range decided {
			select {
			case e.decisions <- d:
			case <-e.stop:
				return
			}
		}
		if next := e.h.NextDeadline(); !next.IsZero() && (armed.IsZero() || next.Before(armed)) {
			timer.Reset(next.Sub(now))
			armed = next
		}
	}
}
