package consensus

import (
	"sync"
	"sync/atomic"
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

// Config parameterizes an Engine for one view. Reconfiguration replaces the
// whole engine rather than mutating it: views are immutable, and so are the
// consensus keys bound to them.
type Config struct {
	// Self is this replica's ID.
	Self int32
	// View is the membership the engine operates in.
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
	// OnEpochChange, when non-nil, is called from the engine loop each time
	// a synchronization round installs a new epoch (once per round, however
	// many slots it drains).
	OnEpochChange func(epoch int64)
	// Verifier, when non-nil, is a shared worker pool that checks
	// WRITE/ACCEPT vote signatures before they enter the event loop, so
	// signature verification no longer serializes consensus. Correctness
	// never depends on it: the loop re-verifies inline whenever a vote was
	// not positively pre-verified against the key currently installed for
	// its voter, and the pool spilling over merely falls back to the inline
	// path. The pool is owned by the caller (it outlives engine
	// replacements at view changes) and must not be closed while the engine
	// runs.
	Verifier *crypto.VerifyPool
}

// Engine runs consensus for a single view. It is the runtime around a
// machine: the loop goroutine owns the machine and is the only one to step
// it; the public methods communicate with the loop via the event channel.
// What the runtime alone owns: that channel, the wall clock and the one
// timer that turns the machine's earliest deadline into a tick, the
// VerifyPool hand-off, and the mirrors other goroutines read.
type Engine struct {
	// cfg is immutable, View included (late-announced keys are installed
	// into the machine's own copy), so any goroutine may read it.
	cfg    Config
	m      *machine
	others []int32 // the recipients of a broadcast effect

	regency    atomic.Int64 // current epoch, mirrored for Leader()
	syncRounds atomic.Int64 // synchronization rounds performed
	events     chan event
	decisions  chan Decision
	stop       chan struct{}
	stopOnce   sync.Once
	done       chan struct{}

	// keys mirrors the view's consensus keys for reading outside the loop
	// (HandleMessage pre-verifies votes against it). The loop is the only
	// writer: it installs a late-announced key here when the machine
	// reports it installed.
	keys keyMirror
}

// New creates an engine. Start must be called to run it.
func New(cfg Config) *Engine {
	if cfg.Timeout <= 0 {
		cfg.Timeout = 500 * time.Millisecond
	}
	e := &Engine{
		cfg:       cfg,
		m:         newMachine(cfg),
		others:    cfg.View.Others(cfg.Self),
		events:    make(chan event, 4096),
		decisions: make(chan Decision, 16),
		stop:      make(chan struct{}),
		done:      make(chan struct{}),
	}
	e.keys.keys = make(map[int32]crypto.PublicKey, cfg.View.N())
	for _, id := range cfg.View.Members {
		if pub, ok := cfg.View.PublicKeyOf(id); ok {
			e.keys.keys[id] = pub
		}
	}
	return e
}

// keyMirror is a concurrently readable copy of the view's consensus keys.
type keyMirror struct {
	mu   sync.RWMutex
	keys map[int32]crypto.PublicKey
}

func (k *keyMirror) get(id int32) (crypto.PublicKey, bool) {
	k.mu.RLock()
	pub, ok := k.keys[id]
	k.mu.RUnlock()
	return pub, ok
}

func (k *keyMirror) set(id int32, pub crypto.PublicKey) {
	k.mu.Lock()
	k.keys[id] = pub
	k.mu.Unlock()
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

// Decisions returns the channel of decided instances. With a single live
// instance decisions arrive in instance order; when a window of instances
// runs concurrently (pipelined ordering) they may arrive out of order and
// the consumer is responsible for reordering before commit.
func (e *Engine) Decisions() <-chan Decision { return e.decisions }

// StartInstance begins instance i. If this replica is the current leader,
// value is its proposal (nil on followers). Several instances may be live at
// once: the engine keeps per-instance protocol state and a per-instance
// progress deadline, and garbage-collects the settled prefix (every decided
// instance below the lowest undecided one) automatically.
func (e *Engine) StartInstance(i int64, value []byte) {
	e.enqueue(event{kind: evStart, inst: i, value: value})
}

// AdvanceTo abandons every instance below i: protocol state, buffered
// messages, and deadlines are discarded and future messages for those
// instances are ignored. The ordering driver calls this after a state
// transfer (the skipped instances were decided by the rest of the view) and
// when draining the pipeline window at a view boundary.
func (e *Engine) AdvanceTo(i int64) {
	e.enqueue(event{kind: evAdvance, inst: i})
}

// ProposeValue offers a value for instance i after it has started. It takes
// effect only if this replica currently leads the instance's epoch and no
// proposal has been adopted yet; otherwise it is ignored (the requests it
// contains are also queued at the real leader, which proposes its own
// copy).
func (e *Engine) ProposeValue(i int64, value []byte) {
	e.enqueue(event{kind: evPropose, inst: i, value: value})
}

// SyncRounds returns how many synchronization rounds this engine has run:
// one leader failure costs exactly one round regardless of the window
// depth. Safe from any goroutine.
func (e *Engine) SyncRounds() int64 { return e.syncRounds.Load() }

// Regency returns the currently installed epoch (a snapshot; safe from any
// goroutine).
func (e *Engine) Regency() int64 { return e.regency.Load() }

// Leader returns the member leading the current epoch (regency). The value
// is a snapshot: by the time the caller acts on it, a synchronization phase
// may have moved leadership on — callers use it only as a hint. Safe from
// any goroutine: it reads only the immutable membership and the mirrored
// regency.
func (e *Engine) Leader() int32 { return e.cfg.View.Leader(e.regency.Load()) }

// UpdateKey installs a late-announced consensus key for a view member
// (paper §V-D: members outside the reconfiguration quorum announce fresh
// keys in their first messages of the new view).
func (e *Engine) UpdateKey(id int32, key crypto.PublicKey) {
	e.enqueue(event{kind: evUpdateKey, keyID: id, key: key})
}

// HandleMessage feeds a consensus wire message into the engine. It is safe
// to call from any goroutine.
//
// With a Verifier configured, WRITE/ACCEPT votes are decoded and their
// signatures checked on the pool before the event is enqueued, off the
// loop goroutine. The loop treats the result as a hint: it honors the
// pre-verification only when the key it was checked against is still the
// voter's installed key, and re-verifies inline otherwise (including votes
// that failed here — the mirror key may have been stale). The protocols
// above tolerate the message reordering this introduces between votes and
// other traffic, exactly as they tolerate network reordering.
func (e *Engine) HandleMessage(m transport.Message) {
	if ph, ok := votePhase(m.Type); ok && e.cfg.Verifier != nil {
		vm, err := decodeVote(m.Payload)
		if err != nil || vm.Voter != m.From {
			return // malformed either way; drop without burning a verify
		}
		if pub, ok := e.keys.get(vm.Voter); ok {
			submitted := e.cfg.Verifier.TrySubmit(pub, phaseWire[ph].ctx, voteMessage(vm.Instance, vm.Epoch, vm.Digest), vm.Sig, func(ok bool) {
				ev := event{kind: evMessage, msg: m, vote: &vm}
				if ok {
					ev.votePub = pub
				}
				e.enqueue(ev)
			})
			if submitted {
				return
			}
		}
		e.enqueue(event{kind: evMessage, msg: m, vote: &vm})
		return
	}
	e.enqueue(event{kind: evMessage, msg: m})
}

func (e *Engine) enqueue(ev event) {
	select {
	case e.events <- ev:
	case <-e.stop:
	}
}

// loop steps the machine: one event in, its effects performed in order, and
// the timer re-armed when a slot deadline earlier than the armed one
// appeared. A tick that finds nothing due is harmless, so the timer is left
// alone when deadlines only move later (every decision does that).
func (e *Engine) loop() {
	defer close(e.done)
	defer close(e.decisions)

	armed := time.Now().Add(e.cfg.Timeout) // when the timer fires; zero once it has
	timer := time.NewTimer(e.cfg.Timeout)
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
		for _, fx := range e.m.step(now, ev) {
			if !e.perform(fx) {
				return
			}
		}
		if next := e.m.nextDeadline(); !next.IsZero() && (armed.IsZero() || next.Before(armed)) {
			if !armed.IsZero() && !timer.Stop() {
				select { // fired since the wait above: drain it
				case <-timer.C:
				default:
				}
			}
			timer.Reset(next.Sub(now))
			armed = next
		}
	}
}

// perform carries out one effect; false means the engine was stopped while
// the decision channel was full.
func (e *Engine) perform(fx effect) bool {
	switch fx.kind {
	case fxSend:
		e.cfg.Send(fx.to, fx.typ, fx.payload)
	case fxBroadcast:
		for _, peer := range e.others {
			e.cfg.Send(peer, fx.typ, fx.payload)
		}
	case fxDecide:
		select {
		case e.decisions <- fx.decision:
		case <-e.stop:
			return false
		}
	case fxEpochInstalled:
		e.regency.Store(fx.epoch)
		e.syncRounds.Add(1)
		if e.cfg.OnEpochChange != nil {
			e.cfg.OnEpochChange(fx.epoch)
		}
	case fxKeyInstalled:
		e.keys.set(fx.to, fx.key)
	}
	return true
}
