package consensus

import (
	"sort"
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

// Engine runs consensus for a single view. All state is owned by the event
// loop goroutine; the public methods communicate with it via channels.
type Engine struct {
	cfg    Config
	quorum int
	// members is an immutable snapshot of the view membership, read by
	// Leader() from any goroutine (e.cfg.View itself is owned by the loop,
	// which installs late-announced keys into it).
	members []int32

	regency    atomic.Int64 // current epoch, mirrored for Leader()
	syncRounds atomic.Int64 // synchronization rounds performed
	events     chan event
	decisions  chan Decision
	stop       chan struct{}
	done       chan struct{}

	// keys mirrors the view's consensus keys for reading outside the loop
	// (HandleMessage pre-verifies votes against it). The loop is the only
	// writer: it installs late-announced keys here and in cfg.View together.
	keys keyMirror
}

type event struct {
	kind  eventKind
	msg   transport.Message
	inst  int64
	value []byte
	epoch int64 // for timeout staleness check
	keyID int32
	key   crypto.PublicKey
	// vote carries a pre-decoded WRITE/ACCEPT vote; votePub, when non-nil,
	// is the public key its signature was verified against off the loop.
	vote    *voteMsg
	votePub crypto.PublicKey
}

type eventKind int

const (
	evMessage eventKind = iota + 1
	evStart
	evTimeout
	evPropose
	evUpdateKey
	evAdvance
)

// instState is the per-instance protocol state, owned by the loop.
type instState struct {
	baseEpoch  int64 // epoch the instance started in
	epoch      int64 // epoch this replica currently operates in
	proposal   []byte
	digest     crypto.Hash
	sentWrite  bool
	sentAccept bool
	decided    bool
	// timeout is this instance's progress-timeout backoff: doubled on
	// every synchronization phase the instance goes through. Per-instance
	// so concurrent window slots deciding cannot defeat a stuck slot's
	// exponential backoff (eventual synchrony handling).
	timeout time.Duration

	// votes: epoch → digest → voter → signature.
	writes  map[int64]map[crypto.Hash]map[int32][]byte
	accepts map[int64]map[crypto.Hash]map[int32][]byte
	// myWriteCert is the strongest write certificate this replica
	// assembled (evidence a value may have been decided).
	myWriteCert *writeCert
	myCertValue []byte
	// decidedEpoch/decisionProof retain the decision evidence after the
	// slot decides, so a regency-wide EPOCH-STOP can claim the slot as
	// decided (the strongest possible proof) and the new leader re-proposes
	// the decided value for stragglers.
	decidedEpoch  int64
	decisionProof *crypto.Certificate
}

func newInstState(epoch int64) *instState {
	return &instState{
		baseEpoch: epoch,
		epoch:     epoch,
		writes:    make(map[int64]map[crypto.Hash]map[int32][]byte),
		accepts:   make(map[int64]map[crypto.Hash]map[int32][]byte),
	}
}

// maxEpochSkew bounds how far ahead of the installed regency an EPOCH-STOP
// (or EPOCH-SYNC) may campaign: far enough for any realistic spread between
// correct replicas, small enough that the campaign map stays bounded under
// Byzantine spam. A replica lagging further re-synchronizes through state
// transfer instead.
const maxEpochSkew = 64

// futureWindow bounds how far beyond the highest started instance the
// engine will hold state or buffered messages for future instances —
// whether they arrive as ordinary votes (buffered in handleMsg) or as
// EPOCH-SYNC re-proposals (pre-started in applySlot). Without the latter
// cap a Byzantine leader could name an astronomically distant slot in a
// SYNC and drive every correct replica into allocating state up to it.
const futureWindow = 64

// decidedTailLen is how many settled decisions (value + proof) each replica
// retains below its floor for certificate retransmission. A peer lagging
// further behind than this has blocks to fetch and re-synchronizes through
// state transfer; the tail only needs to span the ordering window plus
// scheduling slack.
const decidedTailLen = 64

// New creates an engine. Start must be called to run it.
func New(cfg Config) *Engine {
	if cfg.Timeout <= 0 {
		cfg.Timeout = 500 * time.Millisecond
	}
	members := make([]int32, len(cfg.View.Members))
	copy(members, cfg.View.Members)
	e := &Engine{
		cfg:       cfg,
		quorum:    cfg.View.Quorum(),
		members:   members,
		events:    make(chan event, 4096),
		decisions: make(chan Decision, 16),
		stop:      make(chan struct{}),
		done:      make(chan struct{}),
	}
	e.keys.keys = make(map[int32]crypto.PublicKey, len(members))
	for _, id := range members {
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

// Stop terminates the event loop and waits for it to exit.
func (e *Engine) Stop() {
	select {
	case <-e.stop:
	default:
		close(e.stop)
	}
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
// progress timer, and garbage-collects the settled prefix (every decided
// instance below the lowest undecided one) automatically.
func (e *Engine) StartInstance(i int64, value []byte) {
	e.enqueue(event{kind: evStart, inst: i, value: value})
}

// AdvanceTo abandons every instance below i: protocol state, buffered
// messages, and timers are discarded and future messages for those
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
// any goroutine: it reads only the immutable membership snapshot and the
// mirrored regency.
func (e *Engine) Leader() int32 {
	n := len(e.members)
	if n == 0 {
		return -1
	}
	return e.members[int(e.regency.Load()%int64(n))]
}

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
	if e.cfg.Verifier != nil && (m.Type == MsgWrite || m.Type == MsgAccept) {
		vm, err := decodeVote(m.Payload)
		if err != nil || vm.Voter != m.From {
			return // malformed either way; drop without burning a verify
		}
		if pub, ok := e.keys.get(vm.Voter); ok {
			ctx := ctxWrite
			if m.Type == MsgAccept {
				ctx = ctxAccept
			}
			submitted := e.cfg.Verifier.TrySubmit(pub, ctx, voteMessage(vm.Instance, vm.Epoch, vm.Digest), vm.Sig, func(ok bool) {
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

// loop owns all protocol state. Several instances may be live at once (the
// pipelining window): each has its own instState and progress timer; the
// settled prefix — decided instances below the lowest undecided one — is
// garbage-collected as the window slides.
func (e *Engine) loop() {
	defer close(e.done)
	defer close(e.decisions)

	var (
		floor      int64 // instances below this are settled and forgotten
		maxStarted int64 = -1
		states           = make(map[int64]*instState)
		buffered         = make(map[int64][]event)
		timers           = make(map[int64]*time.Timer)
		regency    int64 // current epoch across instances (Mod-SMaRt regency)
		// epochStops collects regency-wide synchronization votes:
		// nextEpoch → voter → message. Campaigns at or below the installed
		// regency are garbage-collected on install.
		epochStops = make(map[int64]map[int32]epochStopMsg)
		// lastSync retains the EPOCH-SYNC certificate this replica
		// broadcast as the leader of the installed regency, so a STALE
		// campaigner — a healed replica campaigning for an epoch the view
		// already installed — can be re-sent the self-certifying
		// certificate directly instead of idling until the next epoch
		// change.
		lastSync *epochSyncMsg
		// myStop retains this replica's own EPOCH-STOP vote for the
		// installed regency (the live votes are GC'd on install). It exists
		// for one deadlock: a quorum campaigns because the NEXT leader is
		// unreachable, installs the regency, and then waits for a SYNC from
		// a leader that never heard the campaign. When that leader heals and
		// campaigns for the already-installed epoch, nobody can send it a
		// SYNC (only the missing leader could have built one) — re-sending
		// our retained vote lets it assemble the stop quorum it missed,
		// install, and lead.
		myStop *epochStopMsg
		// resyncAt rate-limits those re-sends per campaigner.
		resyncAt = make(map[int32]time.Time)
		// decidedTail retains recently settled decisions a little past the
		// floor, so consensus traffic arriving for a sub-floor instance can
		// be answered with the decision certificate itself (MsgDecided). See
		// decidedMsg for why no other mechanism closes that gap.
		decidedTail = make(map[int64]*decidedMsg)
		// decidedSentAt rate-limits certificate retransmissions per peer.
		decidedSentAt = make(map[int32]time.Time)
	)
	defer func() {
		for _, t := range timers {
			t.Stop()
		}
	}()

	armTimer := func(inst, epoch int64) {
		if t, ok := timers[inst]; ok {
			t.Stop()
		}
		d := e.cfg.Timeout
		if s, ok := states[inst]; ok {
			d = s.timeout
		}
		timers[inst] = time.AfterFunc(d, func() {
			e.enqueue(event{kind: evTimeout, inst: inst, epoch: epoch})
		})
	}
	disarmTimer := func(inst int64) {
		if t, ok := timers[inst]; ok {
			t.Stop()
			delete(timers, inst)
		}
	}

	// lowestUndecided finds the live instance whose progress gates the
	// commit order; only its timeout escalates into a synchronization
	// phase (higher instances re-arm, like PBFT's low-watermark rule).
	lowestUndecided := func() (int64, bool) {
		var lo int64
		found := false
		for i, s := range states {
			if s.decided {
				continue
			}
			if !found || i < lo {
				lo, found = i, true
			}
		}
		return lo, found
	}

	// pruneDecidedTail drops retained decision certificates that have
	// fallen decidedTailLen behind the floor.
	pruneDecidedTail := func() {
		for k := range decidedTail {
			if k < floor-decidedTailLen {
				delete(decidedTail, k)
			}
		}
	}

	// gcSettled slides the floor past every decided instance at the front
	// of the window, releasing its state. Late messages for those
	// instances are dropped (their quorums already formed everywhere that
	// matters; stragglers either re-fetch the decision certificate from
	// the retained tail or catch up via state transfer).
	gcSettled := func() {
		f := floor
		for f <= maxStarted {
			s, ok := states[f]
			if !ok || !s.decided {
				break
			}
			f++
		}
		if f == floor {
			return
		}
		for i := floor; i < f; i++ {
			delete(states, i)
			delete(buffered, i)
			disarmTimer(i)
		}
		floor = f
		pruneDecidedTail()
	}

	advanceTo := func(i int64) {
		if i <= floor {
			return
		}
		for k := range states {
			if k < i {
				delete(states, k)
			}
		}
		for k := range timers {
			if k < i {
				timers[k].Stop()
				delete(timers, k)
			}
		}
		for k := range buffered {
			if k < i {
				delete(buffered, k)
			}
		}
		floor = i
		if maxStarted < i-1 {
			maxStarted = i - 1
		}
		pruneDecidedTail()
	}

	st := func(i int64) *instState {
		s, ok := states[i]
		if !ok {
			s = newInstState(regency)
			s.timeout = e.cfg.Timeout
			states[i] = s
		}
		return s
	}

	// sendWrite signs and broadcasts this replica's WRITE vote, recording
	// it locally too.
	sendWrite := func(i int64, s *instState) {
		sig := e.cfg.Signer.MustSign(ctxWrite, voteMessage(i, s.epoch, s.digest))
		if sig == nil {
			return
		}
		s.sentWrite = true
		e.recordWrite(s, i, voteMsg{Instance: i, Epoch: s.epoch, Digest: s.digest, Voter: e.cfg.Self, Sig: sig})
		m := voteMsg{Instance: i, Epoch: s.epoch, Digest: s.digest, Voter: e.cfg.Self, Sig: sig}
		payload := m.encode()
		for _, peer := range e.cfg.View.Others(e.cfg.Self) {
			e.cfg.Send(peer, MsgWrite, payload)
		}
	}

	sendAccept := func(i int64, s *instState) {
		sig := e.cfg.Signer.MustSign(ctxAccept, voteMessage(i, s.epoch, s.digest))
		if sig == nil {
			return
		}
		s.sentAccept = true
		e.recordAccept(s, i, voteMsg{Instance: i, Epoch: s.epoch, Digest: s.digest, Voter: e.cfg.Self, Sig: sig})
		m := voteMsg{Instance: i, Epoch: s.epoch, Digest: s.digest, Voter: e.cfg.Self, Sig: sig}
		payload := m.encode()
		for _, peer := range e.cfg.View.Others(e.cfg.Self) {
			e.cfg.Send(peer, MsgAccept, payload)
		}
	}

	// maybeProgress checks quorum conditions after any vote lands.
	maybeProgress := func(i int64, s *instState) {
		if s.decided || s.proposal == nil {
			return
		}
		// WRITE quorum → assemble write certificate, send ACCEPT.
		if !s.sentAccept && s.sentWrite {
			if votes := s.writes[s.epoch][s.digest]; len(votes) >= e.quorum {
				cert := &writeCert{Instance: i, Epoch: s.epoch, Digest: s.digest}
				for voter, sig := range votes {
					cert.Sigs = append(cert.Sigs, crypto.Signature{Signer: voter, Sig: sig})
				}
				if s.myWriteCert == nil || cert.Epoch > s.myWriteCert.Epoch {
					s.myWriteCert = cert
					s.myCertValue = s.proposal
				}
				sendAccept(i, s)
			}
		}
		// ACCEPT quorum → decide.
		if votes := s.accepts[s.epoch][s.digest]; len(votes) >= e.quorum {
			s.decided = true
			proof := crypto.Certificate{Digest: s.digest}
			for voter, sig := range votes {
				proof.Add(crypto.Signature{Signer: voter, Sig: sig})
			}
			s.decidedEpoch = s.epoch
			s.decisionProof = &proof
			decidedTail[i] = &decidedMsg{Instance: i, Epoch: s.epoch, Value: s.proposal, Proof: proof}
			dec := Decision{Instance: i, Epoch: s.epoch, Value: s.proposal, Proof: proof}
			disarmTimer(i)
			select {
			case e.decisions <- dec:
			case <-e.stop:
				return
			}
		}
	}

	// adoptProposal installs a validated proposal and votes WRITE. A nil
	// value is normalized to the empty value so "proposal present" is
	// always distinguishable from "no proposal yet".
	adoptProposal := func(i int64, s *instState, value []byte) {
		if value == nil {
			value = []byte{}
		}
		s.proposal = value
		s.digest = crypto.HashBytes(value)
		if !s.sentWrite {
			sendWrite(i, s)
		}
		maybeProgress(i, s)
	}

	// ---- Regency-wide epoch change (the synchronization path) ----

	// ensureStarted extends the live window up to inst: the EPOCH-SYNC may
	// re-propose slots this replica's driver has not opened yet (its commit
	// floor lagged the claimants'). Gap slots get fresh state at the current
	// regency; the driver's later StartInstance for them merges harmlessly.
	ensureStarted := func(inst int64) {
		if inst <= maxStarted {
			return
		}
		for j := maxStarted + 1; j <= inst; j++ {
			s := st(j)
			if !s.decided {
				if _, armed := timers[j]; !armed {
					armTimer(j, s.epoch)
				}
			}
		}
		maxStarted = inst
	}

	// installRegency moves every live undecided slot into epoch next in one
	// step. Slots keep their write certificates (the evidence the next
	// campaign would carry); proposals and votes reset for the new epoch.
	installRegency := func(next int64) {
		if next <= regency {
			return
		}
		if sm, voted := epochStops[next][e.cfg.Self]; voted {
			retained := sm
			myStop = &retained
		}
		regency = next
		e.regency.Store(next)
		e.syncRounds.Add(1)
		if e.cfg.OnEpochChange != nil {
			e.cfg.OnEpochChange(next)
		}
		for i, s := range states {
			if i < floor || s.decided || s.epoch >= next {
				continue
			}
			s.epoch = next
			s.sentWrite = false
			s.sentAccept = false
			s.proposal = nil
			s.digest = crypto.ZeroHash
			// Back off: the network may still be asynchronous. Capped, or a
			// slot surviving several changes (each fault in a bursty run adds
			// one) ends up re-campaigning on a horizon longer than any outage.
			if s.timeout < 4*e.cfg.Timeout {
				s.timeout *= 2
			}
			armTimer(i, next)
		}
		for ep := range epochStops {
			if ep <= regency {
				delete(epochStops, ep)
			}
		}
	}

	// applySlot adopts one re-proposed value from a SYNC certificate. The
	// value was already vetted against the justification; Validate still
	// screens batch well-formedness like any proposal. Slots further ahead
	// than the bounded future window are dropped (same cap the ordinary
	// message path applies): a lagging replica recovers those through
	// state transfer, and a Byzantine leader cannot force unbounded state.
	applySlot := func(next, inst int64, value []byte) {
		if inst < floor {
			return
		}
		hi := maxStarted
		if floor > hi {
			hi = floor
		}
		if inst > hi+futureWindow {
			return
		}
		ensureStarted(inst)
		s := st(inst)
		if s.decided || s.epoch != next || s.proposal != nil {
			return
		}
		if e.cfg.Validate != nil && len(value) > 0 && !e.cfg.Validate(inst, value) {
			return
		}
		adoptProposal(inst, s, value)
	}

	// maybeInstallHook breaks the declaration cycle: startEpochChange wants
	// to re-check quorum after recording its own vote, and maybeInstall
	// (defined below) wants to trigger joins.
	var maybeInstallHook func(int64)

	// startEpochChange broadcasts this replica's EPOCH-STOP for next: ONE
	// signed message carrying its strongest claim (write certificate or
	// decision proof) for every open slot of the window.
	startEpochChange := func(next int64) {
		if next <= regency {
			return
		}
		if sm, sent := epochStops[next][e.cfg.Self]; sent {
			// Re-broadcast the recorded vote instead of going quiet: a
			// campaigner whose STOP was lost (or whose peers installed the
			// epoch before hearing it) would otherwise never be noticed —
			// the re-broadcast is what lets the current leader detect a
			// stale campaigner and re-send the installed regency's SYNC
			// certificate.
			payload := sm.encode()
			for _, peer := range e.cfg.View.Others(e.cfg.Self) {
				e.cfg.Send(peer, MsgEpochStop, payload)
			}
			return
		}
		sm := epochStopMsg{NextEpoch: next, Voter: e.cfg.Self, Floor: floor}
		insts := make([]int64, 0, len(states))
		for i := range states {
			if i >= floor {
				insts = append(insts, i)
			}
		}
		sort.Slice(insts, func(a, b int) bool { return insts[a] < insts[b] })
		for _, i := range insts {
			s := states[i]
			switch {
			case s.decided && s.decisionProof != nil:
				sm.Claims = append(sm.Claims, slotClaim{Instance: i, Kind: claimDecided,
					Epoch: s.decidedEpoch, Value: s.proposal, DProof: *s.decisionProof})
			case !s.decided && s.myWriteCert != nil:
				sm.Claims = append(sm.Claims, slotClaim{Instance: i, Kind: claimWrite,
					Epoch: s.myWriteCert.Epoch, Value: s.myCertValue, WCert: *s.myWriteCert})
			}
		}
		sig := e.cfg.Signer.MustSign(ctxEpochStop, sm.signedPortion())
		if sig == nil {
			return
		}
		sm.Sig = sig
		if epochStops[next] == nil {
			epochStops[next] = make(map[int32]epochStopMsg)
		}
		epochStops[next][e.cfg.Self] = sm
		payload := sm.encode()
		for _, peer := range e.cfg.View.Others(e.cfg.Self) {
			e.cfg.Send(peer, MsgEpochStop, payload)
		}
		maybeInstallHook(next) // degenerate views where one vote is a quorum
	}

	// maybeInstall fires when a campaign for next may have reached quorum:
	// install the regency and, if this replica leads the new epoch, assemble
	// the SYNC certificate and re-propose the whole window at once — the
	// certified (or decided) value where one is provably locked, the empty
	// batch elsewhere.
	maybeInstall := func(next int64) {
		stops := epochStops[next]
		if len(stops) < e.quorum || next <= regency {
			return
		}
		justif := make([]epochStopMsg, 0, len(stops))
		for voter := range stops {
			justif = append(justif, stops[voter])
		}
		installRegency(next) // GCs epochStops[next]; justif captured above
		if e.cfg.View.Leader(next) != e.cfg.Self {
			return
		}
		best := bestClaims(justif)
		slotSet := make(map[int64]bool, len(states)+len(best))
		for i, s := range states {
			if i >= floor && !s.decided {
				slotSet[i] = true
			}
		}
		for i := range best {
			if i >= floor {
				slotSet[i] = true
			}
		}
		insts := make([]int64, 0, len(slotSet))
		for i := range slotSet {
			insts = append(insts, i)
		}
		sort.Slice(insts, func(a, b int) bool { return insts[a] < insts[b] })
		sync := epochSyncMsg{NextEpoch: next, Justif: justif}
		for _, i := range insts {
			var value []byte
			if c, ok := best[i]; ok {
				value = c.Value
			} else if attestedUnlocked(justif, i) >= e.quorum {
				// A quorum of live-on-i voters attests nothing is locked:
				// the slot is provably open and the new leader may propose
				// fresh work. The ordering driver leaves RequestValue nil,
				// so the node proposes the empty filler and pending work
				// flows into fresh slots instead.
				if e.cfg.RequestValue != nil {
					value = e.cfg.RequestValue(i)
				}
			} else {
				// No claim, but some quorum voters settled the slot: it may
				// have decided with a value this quorum cannot see. Leave
				// it out — a later campaign with the right electorate (or
				// state transfer) resolves it.
				continue
			}
			sync.Slots = append(sync.Slots, slotProposal{Instance: i, Value: value})
		}
		payload := sync.encode()
		for _, peer := range e.cfg.View.Others(e.cfg.Self) {
			e.cfg.Send(peer, MsgEpochSync, payload)
		}
		// Keep the certificate: it is self-certifying, so it can later be
		// re-sent verbatim to a stale campaigner that missed this round.
		retained := sync
		lastSync = &retained
		for _, sp := range sync.Slots {
			applySlot(next, sp.Instance, sp.Value)
		}
	}
	maybeInstallHook = maybeInstall

	// onEpochStop records a regency-wide synchronization vote: join on f+1
	// distinct campaigns (echo our own claims), install on quorum. Votes
	// are bounded to a horizon of future epochs: correct replicas campaign
	// at most a few epochs ahead of a laggard, and without the cap a
	// single Byzantine member could park verified stops for arbitrarily
	// many future epochs in memory (they are only GC'd when the regency
	// passes them).
	// offerDecidedTail retransmits retained decision certificates for
	// [from, floor) to one peer whose commit floor is behind ours. The
	// trigger is an EPOCH-STOP carrying a low Floor: a replica stuck below
	// the quorum's floor stops sending per-instance traffic — installRegency
	// cleared its gap slots' proposals and the SYNC re-proposes only slots
	// at or above the leader's floor — so its campaigns are the only signal
	// left. When the gap instances held empty batches, no other mechanism
	// can hand it the decisions (state transfer ships blocks, and our
	// epoch-change claims below the floor are garbage-collected). One burst
	// closes the whole gap: the receiver verifies each certificate and
	// decides in place. Rate-limited per peer.
	offerDecidedTail := func(to int32, from int64) {
		if from >= floor || time.Since(decidedSentAt[to]) < e.cfg.Timeout/2 {
			return
		}
		sent := 0
		for i := from; i < floor && sent < decidedTailLen; i++ {
			if dm, ok := decidedTail[i]; ok {
				e.cfg.Send(to, MsgDecided, dm.encode())
				sent++
			}
		}
		if sent > 0 {
			decidedSentAt[to] = time.Now()
		}
	}

	onEpochStop := func(m transport.Message) {
		sm, err := decodeEpochStop(m.Payload)
		if err != nil || sm.Voter != m.From || !e.cfg.View.Contains(sm.Voter) {
			return
		}
		if sm.NextEpoch <= regency {
			// A stale campaigner: it wants an epoch the view already
			// installed, so its vote can never gather a quorum — but it IS
			// evidence the sender missed the installed regency. If we lead
			// the current regency, re-send our retained self-certifying
			// SYNC certificate directly to it: the campaigner installs the
			// regency from the certificate and rejoins live ordering
			// without waiting out the next epoch change (ROADMAP PR 4
			// follow-up). Signature-verified and rate-limited per sender so
			// a Byzantine member cannot turn us into a re-send amplifier.
			if lastSync != nil && lastSync.NextEpoch == regency &&
				e.cfg.View.Leader(regency) == e.cfg.Self &&
				time.Since(resyncAt[sm.Voter]) >= e.cfg.Timeout/2 {
				if sm.verify(e.cfg.View, e.quorum) == nil {
					resyncAt[sm.Voter] = time.Now()
					e.cfg.Send(sm.Voter, MsgEpochSync, lastSync.encode())
				}
			}
			// The stale campaigner IS the installed regency's leader: it
			// missed its own election (the quorum campaigned precisely
			// because it was unreachable), no SYNC for this regency exists
			// anywhere, and without help the view waits out a full backoff
			// while the leader's own campaigns are dismissed as stale — a
			// standing deadlock. Re-send our retained EPOCH-STOP vote so it
			// can assemble the quorum it missed and lead. Rate-limited per
			// campaigner; the vote is the original signed message, so the
			// receiver verifies it like any other.
			if sm.NextEpoch == regency && sm.Voter == e.cfg.View.Leader(regency) &&
				myStop != nil && myStop.NextEpoch == regency &&
				time.Since(resyncAt[sm.Voter]) >= e.cfg.Timeout/2 {
				if sm.verify(e.cfg.View, e.quorum) == nil {
					resyncAt[sm.Voter] = time.Now()
					e.cfg.Send(sm.Voter, MsgEpochStop, myStop.encode())
				}
			}
			// A stale campaigner whose floor is behind ours is stuck on
			// instances we settled: offer the retained certificates
			// (signature-verified first, like the branches above).
			if sm.Floor < floor && time.Since(decidedSentAt[sm.Voter]) >= e.cfg.Timeout/2 &&
				sm.verify(e.cfg.View, e.quorum) == nil {
				offerDecidedTail(sm.Voter, sm.Floor)
			}
			return
		}
		if sm.NextEpoch > regency+maxEpochSkew {
			return
		}
		if _, dup := epochStops[sm.NextEpoch][sm.Voter]; dup {
			return
		}
		if err := sm.verify(e.cfg.View, e.quorum); err != nil {
			return
		}
		if epochStops[sm.NextEpoch] == nil {
			epochStops[sm.NextEpoch] = make(map[int32]epochStopMsg)
		}
		epochStops[sm.NextEpoch][sm.Voter] = sm
		offerDecidedTail(sm.Voter, sm.Floor) // close a campaigner's floor gap
		if len(epochStops[sm.NextEpoch]) >= e.cfg.View.F()+1 {
			startEpochChange(sm.NextEpoch) // join the campaign
		}
		maybeInstall(sm.NextEpoch)
	}

	// onEpochSync validates a SYNC certificate from the new leader and
	// adopts its whole-window re-proposal. The certificate is
	// self-certifying, so a replica that missed the stop quorum still
	// installs the regency here.
	onEpochSync := func(m transport.Message) {
		msg, err := decodeEpochSync(m.Payload)
		if err != nil || m.From != e.cfg.View.Leader(msg.NextEpoch) || m.From == e.cfg.Self {
			return
		}
		if msg.NextEpoch < regency {
			return // a newer regency is already installed
		}
		if _, ok := e.validEpochSync(&msg); !ok {
			return
		}
		installRegency(msg.NextEpoch) // no-op when already installed
		for _, sp := range msg.Slots {
			applySlot(msg.NextEpoch, sp.Instance, sp.Value)
		}
	}

	// echoVotes sends this replica's own WRITE (and ACCEPT, if cast) for
	// (inst, s.epoch, s.digest) directly to one peer. Votes are broadcast
	// exactly once, so a replica that joined the epoch late — e.g. through a
	// stale-campaigner resync — would assemble quorums everyone else already
	// has only via another epoch change; echoing on first contact lets it
	// converge in place. Triggered only by newly recorded votes, so two
	// replicas can never echo at each other indefinitely.
	echoVotes := func(to int32, inst int64, s *instState) {
		if sig, ok := s.writes[s.epoch][s.digest][e.cfg.Self]; ok {
			m := voteMsg{Instance: inst, Epoch: s.epoch, Digest: s.digest, Voter: e.cfg.Self, Sig: sig}
			e.cfg.Send(to, MsgWrite, m.encode())
		}
		if sig, ok := s.accepts[s.epoch][s.digest][e.cfg.Self]; ok {
			m := voteMsg{Instance: inst, Epoch: s.epoch, Digest: s.digest, Voter: e.cfg.Self, Sig: sig}
			e.cfg.Send(to, MsgAccept, m.encode())
		}
	}

	// onDecided adopts a retransmitted decision certificate: verify the
	// quorum proof and decide in place, exactly as an ACCEPT quorum would.
	// This is the only path that can close an empty-instance floor gap —
	// the decided slots produced no blocks, so state transfer sees nothing
	// to ship, and peers past the slots carry no epoch-change claims for
	// them.
	onDecided := func(m transport.Message, s *instState, inst int64) {
		dm, err := decodeDecided(m.Payload)
		if err != nil || dm.Instance != inst || s.decided {
			return
		}
		if dm.Value == nil {
			dm.Value = []byte{}
		}
		digest := crypto.HashBytes(dm.Value)
		if VerifyDecisionProof(e.cfg.View, inst, dm.Epoch, digest, &dm.Proof, e.quorum) != nil {
			return
		}
		s.proposal = dm.Value
		s.digest = digest
		s.decided = true
		s.decidedEpoch = dm.Epoch
		s.decisionProof = &dm.Proof
		decidedTail[inst] = &dm
		dec := Decision{Instance: inst, Epoch: dm.Epoch, Value: dm.Value, Proof: dm.Proof}
		disarmTimer(inst)
		select {
		case e.decisions <- dec:
		case <-e.stop:
		}
	}

	handleMsg := func(ev event) {
		m := ev.msg
		switch m.Type {
		case MsgEpochStop:
			onEpochStop(m)
			return
		case MsgEpochSync:
			onEpochSync(m)
			return
		}
		inst, ok := peekInstance(m)
		if !ok {
			return
		}
		if inst < floor {
			// Settled long ago. Consensus traffic this far behind means the
			// sender is stuck on an instance whose quorum dissolved here; if
			// the retained tail still covers it, answer with the decision
			// certificate so the sender can decide in place (rate-limited
			// per peer — one certificate unblocks the whole pipeline).
			if m.Type == MsgPropose || m.Type == MsgWrite || m.Type == MsgAccept {
				if dm, ok := decidedTail[inst]; ok && time.Since(decidedSentAt[m.From]) >= e.cfg.Timeout/4 {
					decidedSentAt[m.From] = time.Now()
					e.cfg.Send(m.From, MsgDecided, dm.encode())
				}
			}
			return
		}
		if inst > maxStarted {
			// Future instance: buffer within a bounded window ahead of the
			// highest started instance.
			if maxStarted >= 0 && inst > maxStarted+futureWindow {
				return
			}
			if len(buffered[inst]) < 8*e.cfg.View.N() {
				buffered[inst] = append(buffered[inst], ev)
			}
			return
		}
		s := st(inst)
		switch m.Type {
		case MsgPropose:
			e.onPropose(m, s, inst, adoptProposal)
		case MsgWrite:
			e.onWrite(m, ev.vote, ev.votePub, s, inst, maybeProgress, echoVotes)
		case MsgAccept:
			e.onAccept(m, ev.vote, ev.votePub, s, inst, maybeProgress)
		case MsgDecided:
			onDecided(m, s, inst)
		}
	}

	for {
		select {
		case <-e.stop:
			return
		case ev := <-e.events:
			switch ev.kind {
			case evStart:
				if ev.inst < floor {
					continue
				}
				// A regency-wide SYNC may have pre-started this slot (see
				// ensureStarted): merge instead of skipping, so the driver's
				// proposal is not lost for slots the SYNC left empty-handed.
				if ev.inst > maxStarted {
					maxStarted = ev.inst
				}
				s := st(ev.inst)
				if !s.decided {
					if _, armed := timers[ev.inst]; !armed {
						armTimer(ev.inst, s.epoch)
					}
				}
				if e.cfg.View.Leader(s.epoch) == e.cfg.Self && ev.value != nil && !s.decided &&
					s.proposal == nil && s.epoch == s.baseEpoch {
					pm := proposeMsg{Instance: ev.inst, Epoch: s.epoch, Value: ev.value}
					payload := pm.encode()
					for _, peer := range e.cfg.View.Others(e.cfg.Self) {
						e.cfg.Send(peer, MsgPropose, payload)
					}
					adoptProposal(ev.inst, s, ev.value)
				}
				// Replay buffered messages for this instance.
				for _, bm := range buffered[ev.inst] {
					handleMsg(bm)
				}
				delete(buffered, ev.inst)
				gcSettled()
			case evAdvance:
				advanceTo(ev.inst)
			case evMessage:
				handleMsg(ev)
				gcSettled()
			case evPropose:
				s, ok := states[ev.inst]
				if !ok || ev.inst < floor {
					continue
				}
				if s.decided || s.proposal != nil {
					continue
				}
				if e.cfg.View.Leader(s.epoch) != e.cfg.Self {
					continue
				}
				if s.epoch > s.baseEpoch {
					// After a synchronization round values arrive only
					// through the EPOCH-SYNC certificate.
					continue
				}
				pm := proposeMsg{Instance: ev.inst, Epoch: s.epoch, Value: ev.value}
				payload := pm.encode()
				for _, peer := range e.cfg.View.Others(e.cfg.Self) {
					e.cfg.Send(peer, MsgPropose, payload)
				}
				adoptProposal(ev.inst, s, ev.value)
				gcSettled()
			case evUpdateKey:
				if e.cfg.View.Contains(ev.keyID) {
					e.cfg.View = e.cfg.View.WithKey(ev.keyID, ev.key)
					e.keys.set(ev.keyID, ev.key)
				}
			case evTimeout:
				s, ok := states[ev.inst]
				if !ok || ev.inst < floor {
					continue
				}
				if s.decided || ev.epoch != s.epoch {
					continue
				}
				// Idle system: no proposal, no votes, no stop campaign, and
				// nothing pending locally — re-arm instead of churning
				// through leader changes.
				idle := s.proposal == nil && len(s.writes) == 0 && len(epochStops) == 0
				if idle && e.cfg.HasPending != nil && !e.cfg.HasPending() {
					armTimer(ev.inst, s.epoch)
					continue
				}
				// Only the commit-gating instance escalates; higher window
				// slots wait their turn so one slow slot does not trigger a
				// cascade of leader changes.
				if lo, ok := lowestUndecided(); ok && ev.inst != lo {
					armTimer(ev.inst, s.epoch)
					continue
				}
				// ONE campaign re-proposes the whole window.
				startEpochChange(regency + 1)
				armTimer(ev.inst, s.epoch)
			}
		}
	}
}

// peekInstance reads the leading instance field shared by every consensus
// message without a full decode.
func peekInstance(m transport.Message) (int64, bool) {
	switch m.Type {
	case MsgPropose, MsgWrite, MsgAccept, MsgDecided:
		if len(m.Payload) < 8 {
			return 0, false
		}
		return int64(beUint64(m.Payload)), true
	default:
		return 0, false
	}
}

func beUint64(b []byte) uint64 {
	return uint64(b[0])<<56 | uint64(b[1])<<48 | uint64(b[2])<<40 | uint64(b[3])<<32 |
		uint64(b[4])<<24 | uint64(b[5])<<16 | uint64(b[6])<<8 | uint64(b[7])
}

// onPropose validates and adopts a leader proposal.
func (e *Engine) onPropose(m transport.Message, s *instState, inst int64, adopt func(int64, *instState, []byte)) {
	pm, err := decodePropose(m.Payload)
	if err != nil {
		return
	}
	if m.From != e.cfg.View.Leader(pm.Epoch) {
		return // not from the leader of that epoch
	}
	if pm.Epoch < s.epoch || s.decided {
		return
	}
	if pm.Epoch > s.baseEpoch {
		// The instance went through (or the leader is ahead by) a
		// synchronization round: its value arrives only through the
		// justified EPOCH-SYNC certificate, never a bare proposal.
		return
	}
	if s.proposal != nil {
		return // already have a proposal for this epoch
	}
	if e.cfg.Validate != nil && !e.cfg.Validate(inst, pm.Value) {
		return
	}
	adopt(inst, s, pm.Value)
}

// validEpochSync checks an EPOCH-SYNC certificate: at least a quorum of
// distinct valid EPOCH-STOPs for its epoch, and every re-proposed value
// honoring the strongest claim among them — the decided or highest-epoch
// certified value where one exists, the empty batch where nothing is
// provably locked.
func (e *Engine) validEpochSync(msg *epochSyncMsg) (map[int64]*slotClaim, bool) {
	voters := make(map[int32]bool, len(msg.Justif))
	for i := range msg.Justif {
		sm := &msg.Justif[i]
		if sm.NextEpoch != msg.NextEpoch || voters[sm.Voter] || !e.cfg.View.Contains(sm.Voter) {
			return nil, false
		}
		if err := sm.verify(e.cfg.View, e.quorum); err != nil {
			return nil, false
		}
		voters[sm.Voter] = true
	}
	if len(voters) < e.quorum {
		return nil, false
	}
	best := bestClaims(msg.Justif)
	seen := make(map[int64]bool, len(msg.Slots))
	for i := range msg.Slots {
		sp := &msg.Slots[i]
		if seen[sp.Instance] {
			return nil, false
		}
		seen[sp.Instance] = true
		if c, ok := best[sp.Instance]; ok {
			if crypto.HashBytes(sp.Value) != crypto.HashBytes(c.Value) {
				return nil, false
			}
			continue
		}
		// Unclaimed slot: demand a quorum of live-on-it voters (Floor ≤
		// slot, no claim) attesting nothing is locked. Voters that settled
		// the slot do not count — they may have decided a value this
		// justification cannot show — so a leader can never smuggle a
		// conflicting filler into a decided slot. The value itself is the
		// leader's choice (typically empty); Validate screens it at
		// adoption like any proposal.
		if attestedUnlocked(msg.Justif, sp.Instance) < e.quorum {
			return nil, false
		}
	}
	return best, true
}

// voteVerified settles one vote's signature on the loop: a vote positively
// pre-verified (prePub non-nil) against the key still installed for its
// voter — and covering the instance it was dispatched to — is accepted
// as-is; anything else (no Verifier, pool spill-over, stale mirror key,
// failed pre-verification) is verified inline. Safety therefore never
// rests on the pre-verification pool.
func (e *Engine) voteVerified(vm *voteMsg, prePub crypto.PublicKey, ctx string, inst int64) bool {
	pub, ok := e.cfg.View.PublicKeyOf(vm.Voter)
	if !ok {
		return false
	}
	if prePub != nil && vm.Instance == inst && pub.Equal(prePub) {
		return true
	}
	return crypto.Verify(pub, ctx, voteMessage(inst, vm.Epoch, vm.Digest), vm.Sig)
}

// onWrite records a WRITE vote. A vote that arrives after this replica
// already cast its ACCEPT (or decided) is from a peer running the epoch
// late; the first such vote from each peer is answered with an echo of our
// own votes so the late peer can assemble the same quorums.
func (e *Engine) onWrite(m transport.Message, pre *voteMsg, prePub crypto.PublicKey, s *instState, inst int64,
	progress func(int64, *instState), echo func(int32, int64, *instState)) {
	var vm voteMsg
	if pre != nil {
		vm = *pre
	} else {
		var err error
		if vm, err = decodeVote(m.Payload); err != nil {
			return
		}
	}
	if vm.Voter != m.From || !e.cfg.View.Contains(vm.Voter) {
		return
	}
	if vm.Epoch < s.epoch {
		return
	}
	if s.decided {
		// The slot is decided but not yet settled: a matching late vote
		// gets our evidence echoed back (once — the recorded vote
		// suppresses repeats); everything else is noise. Only post-
		// synchronization slots (epoch above the start epoch) can have late
		// joiners, so the normal path never pays for echoes.
		if s.epoch == s.baseEpoch || vm.Epoch != s.epoch || vm.Digest != s.digest {
			return
		}
		if _, dup := s.writes[vm.Epoch][vm.Digest][vm.Voter]; dup {
			return
		}
		if !e.voteVerified(&vm, prePub, ctxWrite, inst) {
			return
		}
		e.recordWrite(s, inst, vm)
		echo(vm.Voter, inst, s)
		return
	}
	if _, dup := s.writes[vm.Epoch][vm.Digest][vm.Voter]; dup {
		return
	}
	if !e.voteVerified(&vm, prePub, ctxWrite, inst) {
		return
	}
	e.recordWrite(s, inst, vm)
	progress(inst, s)
	// Checked AFTER progress: the write that completes our quorum is often
	// the late joiner's own — it has ours recorded nowhere, and without the
	// echo both sides would hold a partial quorum forever. Restricted to
	// post-synchronization slots, where late joiners exist.
	if s.epoch > s.baseEpoch && s.sentAccept && vm.Epoch == s.epoch && vm.Digest == s.digest {
		echo(vm.Voter, inst, s)
	}
}

// onAccept records an ACCEPT vote.
func (e *Engine) onAccept(m transport.Message, pre *voteMsg, prePub crypto.PublicKey, s *instState, inst int64, progress func(int64, *instState)) {
	var vm voteMsg
	if pre != nil {
		vm = *pre
	} else {
		var err error
		if vm, err = decodeVote(m.Payload); err != nil {
			return
		}
	}
	if vm.Voter != m.From || !e.cfg.View.Contains(vm.Voter) {
		return
	}
	if vm.Epoch < s.epoch || s.decided {
		return
	}
	if !e.voteVerified(&vm, prePub, ctxAccept, inst) {
		return
	}
	e.recordAccept(s, inst, vm)
	progress(inst, s)
}

func (e *Engine) recordWrite(s *instState, inst int64, vm voteMsg) {
	if s.writes[vm.Epoch] == nil {
		s.writes[vm.Epoch] = make(map[crypto.Hash]map[int32][]byte)
	}
	if s.writes[vm.Epoch][vm.Digest] == nil {
		s.writes[vm.Epoch][vm.Digest] = make(map[int32][]byte)
	}
	s.writes[vm.Epoch][vm.Digest][vm.Voter] = vm.Sig
}

func (e *Engine) recordAccept(s *instState, inst int64, vm voteMsg) {
	if s.accepts[vm.Epoch] == nil {
		s.accepts[vm.Epoch] = make(map[crypto.Hash]map[int32][]byte)
	}
	if s.accepts[vm.Epoch][vm.Digest] == nil {
		s.accepts[vm.Epoch][vm.Digest] = make(map[int32][]byte)
	}
	s.accepts[vm.Epoch][vm.Digest][vm.Voter] = vm.Sig
}
