package consensus

import (
	"bytes"
	"encoding/binary"
	"slices"
	"sort"
	"time"

	"smartchain/internal/crypto"
	"smartchain/internal/transport"
)

// event is one input to the machine: a wire message, a request from the
// ordering driver, or the passage of time.
type event struct {
	kind  eventKind
	msg   transport.Message // evMessage
	inst  int64             // evStart, evPropose, evAdvance
	value []byte            // evStart, evPropose
	keyID int32             // evUpdateKey
	key   crypto.PublicKey  // evUpdateKey
	vote  *voteMsg          // a WRITE/ACCEPT vote PreVerify decoded, its signature not checked
	// vetted: the runtime ran Validate over this PROPOSE's value, with the
	// verdict valid.
	vetted, valid bool
}

type eventKind uint8

const (
	evMessage eventKind = iota + 1
	evStart
	evPropose
	evAdvance
	evUpdateKey
	evTick // time passed: expire the slots whose deadline is due
)

// effect is one output of a step, performed by the runtime in order.
type effect struct {
	kind     effectKind
	to       int32    // fxSend: the peer
	typ      uint16   // fxSend, fxBroadcast
	payload  []byte   // fxSend, fxBroadcast
	decision Decision // fxDecide
	epoch    int64    // fxEpochInstalled
}

type effectKind uint8

const (
	fxSend           effectKind = iota + 1 // payload to one peer
	fxBroadcast                            // payload to every other member
	fxDecide                               // deliver a decision
	fxEpochInstalled                       // a synchronization round installed epoch
)

// phase indexes the two voting rounds, which share one cast/record/receive
// path and differ only in wire type and signature context.
type phase uint8

const (
	phaseWrite phase = iota
	phaseAccept
)

var phaseWire = [2]struct {
	typ uint16
	ctx string
}{{MsgWrite, ctxWrite}, {MsgAccept, ctxAccept}}

// votePhase maps a wire type to its voting round.
func votePhase(typ uint16) (phase, bool) {
	return phase(typ - MsgWrite), typ == MsgWrite || typ == MsgAccept
}

// instState is the per-instance protocol state.
type instState struct {
	baseEpoch int64 // epoch the instance started in
	epoch     int64 // epoch this replica currently operates in
	proposal  []byte
	digest    crypto.Hash
	sent      [2]bool // own vote cast, per phase
	decided   bool
	// timeout is this instance's progress-timeout backoff: doubled on
	// every synchronization phase the instance goes through. Per-instance
	// so concurrent window slots deciding cannot defeat a stuck slot's
	// exponential backoff (eventual synchrony handling).
	timeout time.Duration
	// deadline is when the progress timeout next expires; zero when the
	// slot is not waiting on one (not started by the driver yet, or decided).
	deadline time.Time

	// votes: phase → epoch → digest → voter → signature, every one checked
	// (or this replica's own).
	votes [2]map[int64]map[crypto.Hash]map[int32][]byte
	// held: phase → voter → a vote not checked yet, at most one per voter.
	// Held votes are checked when they can complete the slot's quorum
	// (quorate), so a vote the quorum does not need costs no check.
	held [2]map[int32]voteMsg
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

func (s *instState) record(ph phase, vm voteMsg) {
	byDigest := s.votes[ph][vm.Epoch]
	if byDigest == nil {
		byDigest = make(map[crypto.Hash]map[int32][]byte)
		s.votes[ph][vm.Epoch] = byDigest
	}
	if byDigest[vm.Digest] == nil {
		byDigest[vm.Digest] = make(map[int32][]byte)
	}
	byDigest[vm.Digest][vm.Voter] = vm.Sig
}

// maxEpochSkew bounds how far ahead of the installed regency an EPOCH-STOP
// (or EPOCH-SYNC) may campaign: far enough for any realistic spread between
// correct replicas, small enough that the campaign map stays bounded under
// Byzantine spam. A replica lagging further re-synchronizes through state
// transfer instead.
const maxEpochSkew = 64

// futureWindow bounds how far beyond the highest started instance the
// machine will hold state or buffered messages for future instances —
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

// machine is the consensus protocol for one view as a deterministic state
// machine: step consumes one event at a given instant and returns the
// effects it causes. It starts no goroutine, reads no clock and performs no
// I/O, so a test or simulator can drive any number of machines in one
// goroutine under virtual time. Several instances may be live at once (the
// pipelining window): each has its own instState and progress deadline; the
// settled prefix — decided instances below the lowest undecided one — is
// garbage-collected as the window slides.
type machine struct {
	// cfg.View is the machine's own: late-announced keys are installed into
	// it. Send belongs to the runtime.
	cfg    Config
	quorum int
	now    time.Time // the instant of the step in progress
	out    []effect  // effects of the step in progress; reused across steps

	floor      int64 // instances below this are settled and forgotten
	maxStarted int64
	states     map[int64]*instState
	buffered   map[int64][]event
	regency    int64 // current epoch across instances (Mod-SMaRt regency)
	// epochStops collects regency-wide synchronization votes:
	// nextEpoch → voter → message. Campaigns at or below the installed
	// regency are garbage-collected on install.
	epochStops map[int64]map[int32]epochStopMsg
	// lastSync retains the EPOCH-SYNC certificate this replica broadcast as
	// the leader of the installed regency, so a STALE campaigner — a healed
	// replica campaigning for an epoch the view already installed — can be
	// re-sent the self-certifying certificate directly instead of idling
	// until the next synchronization round.
	lastSync *epochSyncMsg
	// myStop retains this replica's own EPOCH-STOP vote for the installed
	// regency (the live votes are GC'd on install). It exists for one
	// deadlock: a quorum campaigns because the NEXT leader is unreachable,
	// installs the regency, and then waits for a SYNC from a leader that
	// never heard the campaign. When that leader heals and campaigns for the
	// already-installed epoch, nobody can send it a SYNC (only the missing
	// leader could have built one) — re-sending our retained vote lets it
	// assemble the stop quorum it missed, install, and lead.
	myStop *epochStopMsg
	// resyncAt rate-limits those re-sends per campaigner.
	resyncAt map[int32]time.Time
	// decidedTail retains recently settled decisions a little past the
	// floor, so consensus traffic arriving for a sub-floor instance can be
	// answered with the decision certificate itself (MsgDecided). See
	// decidedMsg for why nothing else closes that gap.
	decidedTail map[int64]*decidedMsg
	// decidedSentAt rate-limits certificate retransmissions per peer.
	decidedSentAt map[int32]time.Time
}

func newMachine(cfg Config) *machine {
	return &machine{
		cfg:           cfg,
		quorum:        cfg.View.Quorum(),
		maxStarted:    -1,
		states:        make(map[int64]*instState),
		buffered:      make(map[int64][]event),
		epochStops:    make(map[int64]map[int32]epochStopMsg),
		resyncAt:      make(map[int32]time.Time),
		decidedTail:   make(map[int64]*decidedMsg),
		decidedSentAt: make(map[int32]time.Time),
	}
}

// step applies one event at instant now. The returned effects alias a
// buffer the next step overwrites: perform them before stepping again.
func (m *machine) step(now time.Time, ev event) []effect {
	m.now = now
	clear(m.out) // drop the previous step's payload references
	m.out = m.out[:0]
	switch ev.kind {
	case evMessage:
		m.handleMsg(ev)
	case evStart:
		m.start(ev.inst, ev.value)
	case evPropose:
		if s, ok := m.states[ev.inst]; ok && ev.inst >= m.floor {
			m.propose(ev.inst, s, ev.value)
		}
	case evAdvance:
		m.advanceTo(ev.inst)
	case evUpdateKey:
		m.cfg.View = m.cfg.View.WithKey(ev.keyID, ev.key) // a non-member's key changes nothing
	case evTick:
		m.expire()
	}
	m.gcSettled()
	return m.out
}

func (m *machine) send(to int32, typ uint16, payload []byte) {
	m.out = append(m.out, effect{kind: fxSend, to: to, typ: typ, payload: payload})
}

func (m *machine) broadcast(typ uint16, payload []byte) {
	m.out = append(m.out, effect{kind: fxBroadcast, typ: typ, payload: payload})
}

// nextDeadline is the earliest progress deadline among the live slots (zero
// when none is waiting): the runtime must deliver an evTick no later.
func (m *machine) nextDeadline() time.Time {
	var next time.Time
	for _, s := range m.states {
		if !s.deadline.IsZero() && (next.IsZero() || s.deadline.Before(next)) {
			next = s.deadline
		}
	}
	return next
}

// expire handles every slot whose progress deadline is due, in ascending
// instance order. Each re-arms; only the commit-gating one escalates.
func (m *machine) expire() {
	var due []int64
	for i, s := range m.states {
		if s.due(m.now) {
			due = append(due, i)
		}
	}
	sort.Slice(due, func(a, b int) bool { return due[a] < due[b] })
	for _, i := range due {
		s, ok := m.states[i]
		if !ok || !s.due(m.now) {
			continue // a lower slot's campaign installed a regency and re-armed it
		}
		s.deadline = m.now.Add(s.timeout)
		// Idle system: no proposal, no votes, no stop campaign, and nothing
		// pending locally — wait again instead of churning through leaders.
		idle := s.proposal == nil && len(s.votes[phaseWrite]) == 0 && len(s.held[phaseWrite]) == 0 && len(m.epochStops) == 0
		if idle && m.cfg.HasPending != nil && !m.cfg.HasPending() {
			continue
		}
		// Only the commit-gating instance escalates (like PBFT's
		// low-watermark rule); higher window slots wait their turn so one
		// slow slot does not trigger a cascade of campaigns.
		if i != m.lowestUndecided() {
			continue
		}
		m.startEpochChange(m.regency + 1) // ONE campaign re-proposes the whole window
	}
}

func (s *instState) due(now time.Time) bool {
	return !s.deadline.IsZero() && !now.Before(s.deadline)
}

// lowestUndecided finds the live instance whose progress gates the commit
// order (-1 when every live instance is decided).
func (m *machine) lowestUndecided() int64 {
	lo := int64(-1)
	for i, s := range m.states {
		if !s.decided && (lo < 0 || i < lo) {
			lo = i
		}
	}
	return lo
}

// st returns instance i's state, creating it at the current regency.
func (m *machine) st(i int64) *instState {
	s, ok := m.states[i]
	if !ok {
		s = &instState{baseEpoch: m.regency, epoch: m.regency, timeout: m.cfg.Timeout}
		for ph := range s.votes {
			s.votes[ph] = make(map[int64]map[crypto.Hash]map[int32][]byte)
			s.held[ph] = make(map[int32]voteMsg)
		}
		m.states[i] = s
	}
	return s
}

// open makes sure slot i is waiting on a progress deadline.
func (m *machine) open(i int64) *instState {
	s := m.st(i)
	if !s.decided && s.deadline.IsZero() {
		s.deadline = m.now.Add(s.timeout)
	}
	return s
}

// start begins instance inst on the driver's request. A regency-wide SYNC
// may have pre-started the slot (see applySlot): merge instead of skipping,
// so the driver's proposal is not lost for slots the SYNC left empty-handed.
func (m *machine) start(inst int64, value []byte) {
	if inst < m.floor {
		return
	}
	if inst > m.maxStarted {
		m.maxStarted = inst
	}
	s := m.open(inst)
	if value != nil {
		m.propose(inst, s, value)
	}
	for _, bm := range m.buffered[inst] {
		m.handleMsg(bm)
	}
	delete(m.buffered, inst)
}

// propose broadcasts and adopts this replica's value for a slot it leads
// that has no proposal yet. It applies only in the epoch the slot started
// in: after a synchronization round values arrive only through the
// EPOCH-SYNC certificate.
func (m *machine) propose(inst int64, s *instState, value []byte) {
	if s.decided || s.proposal != nil || s.epoch != s.baseEpoch || m.cfg.View.Leader(s.epoch) != m.cfg.Self {
		return
	}
	pm := proposeMsg{Instance: inst, Epoch: s.epoch, Value: value}
	m.broadcast(MsgPropose, pm.encode())
	m.adopt(inst, s, value)
}

// adopt installs a validated proposal and votes WRITE. A nil value is
// normalized to the empty value so "proposal present" is always
// distinguishable from "no proposal yet".
func (m *machine) adopt(i int64, s *instState, value []byte) {
	if value == nil {
		value = []byte{}
	}
	s.proposal = value
	s.digest = crypto.HashBytes(value)
	if !s.sent[phaseWrite] {
		m.cast(i, s, phaseWrite)
	}
	m.progress(i, s)
}

// cast signs this replica's vote for the slot's current (epoch, digest),
// records it locally and broadcasts it — unless it has campaigned past the
// slot's epoch.
func (m *machine) cast(i int64, s *instState, ph phase) {
	if m.stopped(s.epoch) {
		return
	}
	sig := m.cfg.Signer.MustSign(phaseWire[ph].ctx, voteMessage(i, s.epoch, s.digest))
	if sig == nil {
		return
	}
	s.sent[ph] = true
	vm := voteMsg{Instance: i, Epoch: s.epoch, Digest: s.digest, Voter: m.cfg.Self, Sig: sig}
	s.record(ph, vm)
	m.broadcast(phaseWire[ph].typ, vm.encode())
}

// progress checks quorum conditions after any vote lands.
func (m *machine) progress(i int64, s *instState) {
	if s.decided || s.proposal == nil {
		return
	}
	// WRITE quorum → assemble write certificate, vote ACCEPT.
	if s.sent[phaseWrite] && !s.sent[phaseAccept] && m.quorate(i, s, phaseWrite) {
		cert := &writeCert{Instance: i, Epoch: s.epoch, Digest: s.digest}
		for voter, sig := range s.votes[phaseWrite][s.epoch][s.digest] {
			cert.Sigs = append(cert.Sigs, crypto.Signature{Signer: voter, Sig: sig})
		}
		sortSigs(cert.Sigs)
		if s.myWriteCert == nil || cert.Epoch > s.myWriteCert.Epoch {
			s.myWriteCert = cert
			s.myCertValue = s.proposal
		}
		m.cast(i, s, phaseAccept)
	}
	// ACCEPT quorum → decide.
	if m.quorate(i, s, phaseAccept) {
		proof := crypto.Certificate{Digest: s.digest}
		for voter, sig := range s.votes[phaseAccept][s.epoch][s.digest] {
			proof.Add(crypto.Signature{Signer: voter, Sig: sig})
		}
		sortSigs(proof.Sigs)
		m.decide(i, s, s.epoch, s.proposal, proof)
	}
}

// quorate reports whether the checked votes of phase ph for the slot's
// (epoch, digest) reach the quorum. When they fall short but the held ones
// can complete it, the held ones are checked first, against the keys
// installed now, in voter order and in one batch equation; only a failed
// equation checks them one by one. Valid ones are recorded, and every one
// checked leaves the held set. Held votes that can no longer count — an
// epoch the slot has left, another digest than the adopted one — are
// dropped unchecked.
func (m *machine) quorate(i int64, s *instState, ph phase) bool {
	checked := len(s.votes[ph][s.epoch][s.digest])
	if checked >= m.quorum {
		return true
	}
	var voters []int32
	for voter, vm := range s.held[ph] {
		switch {
		case s.stale(vm):
			delete(s.held[ph], voter)
		case vm.Epoch == s.epoch && vm.Digest == s.digest:
			voters = append(voters, voter)
		}
	}
	if checked+len(voters) < m.quorum {
		return false
	}
	slices.Sort(voters)
	msg := voteMessage(i, s.epoch, s.digest)
	bv := crypto.NewBatchVerifier(len(voters))
	for _, voter := range voters {
		pub, _ := m.cfg.View.PublicKeyOf(voter) // members only are held; a nil key fails its check
		bv.Add(pub, phaseWire[ph].ctx, msg, s.held[ph][voter].Sig)
	}
	for k, ok := range bv.Verdicts(1) {
		if ok {
			s.record(ph, s.held[ph][voters[k]])
		}
		delete(s.held[ph], voters[k])
	}
	return len(s.votes[ph][s.epoch][s.digest]) >= m.quorum
}

// stale reports whether a held vote can no longer count in this slot: its
// epoch is behind the slot's, or it is for the slot's epoch and another
// digest than the adopted proposal's.
func (s *instState) stale(vm voteMsg) bool {
	return vm.Epoch < s.epoch || vm.Epoch == s.epoch && s.proposal != nil && vm.Digest != s.digest
}

// sortSigs puts a certificate's signatures in signer order: the votes sit
// in a map, and what a replica sends must be a function of the votes, not
// of how the map happens to iterate.
func sortSigs(sigs []crypto.Signature) {
	sort.Slice(sigs, func(a, b int) bool { return sigs[a].Signer < sigs[b].Signer })
}

// decide settles slot i on value, whose quorum proof (over proof.Digest)
// was formed in epoch: keep the evidence for EPOCH-STOP claims, feed the
// retransmission tail, stop the progress deadline and deliver the decision.
func (m *machine) decide(i int64, s *instState, epoch int64, value []byte, proof crypto.Certificate) {
	s.proposal, s.digest = value, proof.Digest
	s.decided, s.decidedEpoch, s.decisionProof = true, epoch, &proof
	s.deadline = time.Time{}
	m.decidedTail[i] = &decidedMsg{Instance: i, Epoch: epoch, Value: value, Proof: proof}
	m.out = append(m.out, effect{kind: fxDecide,
		decision: Decision{Instance: i, Epoch: epoch, Value: value, Proof: proof}})
}

// gcSettled slides the floor past every decided instance at the front of
// the window, releasing its state. Late messages for those instances are
// dropped (their quorums already formed everywhere that matters; stragglers
// either re-fetch the decision certificate from the retained tail or catch
// up via state transfer).
func (m *machine) gcSettled() {
	f := m.floor
	for ; f <= m.maxStarted; f++ {
		if s, ok := m.states[f]; !ok || !s.decided {
			break
		}
		delete(m.states, f)
		delete(m.buffered, f)
	}
	if f != m.floor {
		m.floor = f
		m.pruneDecidedTail()
	}
}

// advanceTo abandons every instance below i.
func (m *machine) advanceTo(i int64) {
	if i <= m.floor {
		return
	}
	for k := range m.states {
		if k < i {
			delete(m.states, k)
		}
	}
	for k := range m.buffered {
		if k < i {
			delete(m.buffered, k)
		}
	}
	m.floor = i
	if m.maxStarted < i-1 {
		m.maxStarted = i - 1
	}
	m.pruneDecidedTail()
}

// pruneDecidedTail drops retained decision certificates that have fallen
// decidedTailLen behind the floor.
func (m *machine) pruneDecidedTail() {
	for k := range m.decidedTail {
		if k < m.floor-decidedTailLen {
			delete(m.decidedTail, k)
		}
	}
}

// handleMsg routes one wire message: regency-wide messages to the
// synchronization phase, per-instance ones to their slot — answered from
// the decided tail below the floor, buffered within a bounded window above
// the highest started instance.
func (m *machine) handleMsg(ev event) {
	msg := ev.msg
	switch msg.Type {
	case MsgEpochStop:
		m.onEpochStop(msg)
		return
	case MsgEpochSync:
		m.onEpochSync(msg)
		return
	case MsgPropose, MsgWrite, MsgAccept, MsgDecided:
	default:
		return
	}
	// Every per-instance message leads with its instance number.
	if len(msg.Payload) < 8 {
		return
	}
	inst := int64(binary.BigEndian.Uint64(msg.Payload))
	if inst < m.floor {
		// Settled long ago. Consensus traffic this far behind means the
		// sender is stuck on an instance whose quorum dissolved here; if
		// the retained tail still covers it, answer with the decision
		// certificate so the sender can decide in place (rate-limited
		// per peer — one certificate unblocks the whole pipeline).
		if dm, ok := m.decidedTail[inst]; ok && msg.Type != MsgDecided &&
			m.now.Sub(m.decidedSentAt[msg.From]) >= m.cfg.Timeout/4 {
			//smartlint:allow verifyfirst rate-limit bookkeeping keyed on the authenticated transport sender; the answer is a self-certifying certificate
			m.decidedSentAt[msg.From] = m.now
			m.send(msg.From, MsgDecided, dm.encode())
		}
		return
	}
	if inst > m.maxStarted {
		if m.maxStarted >= 0 && inst > m.maxStarted+futureWindow {
			return
		}
		if len(m.buffered[inst]) < 8*m.cfg.View.N() {
			m.buffered[inst] = append(m.buffered[inst], ev)
		}
		return
	}
	s := m.st(inst)
	switch msg.Type {
	case MsgPropose:
		m.onPropose(ev, s, inst)
	case MsgDecided:
		m.onDecided(msg, s, inst)
	default:
		ph, _ := votePhase(msg.Type)
		m.onVote(ev, s, inst, ph)
	}
}

// onPropose validates and adopts a leader proposal: by the runtime's verdict
// when PreVerify vetted it, by Validate inline otherwise.
func (m *machine) onPropose(ev event, s *instState, inst int64) {
	msg := ev.msg
	pm, err := decodePropose(msg.Payload)
	if err != nil {
		return
	}
	if msg.From != m.cfg.View.Leader(pm.Epoch) {
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
	valid := ev.valid
	if !ev.vetted {
		valid = m.cfg.Validate == nil || m.cfg.Validate(inst, pm.Value)
	}
	if !valid {
		return
	}
	m.adopt(inst, s, pm.Value)
}

// onVote holds a WRITE or ACCEPT vote and re-checks the quorums, which check
// the held votes that complete them (quorate). Two votes are checked at once
// instead: one that arrives after its quorum formed here, which counts for
// nothing but the echo to a late joiner, and a second, different signature
// from a voter already held, which may be the honest vote a forged copy in
// its name tries to shadow.
func (m *machine) onVote(ev event, s *instState, inst int64, ph phase) {
	var vm voteMsg
	if ev.vote != nil {
		vm = *ev.vote
	} else {
		var err error
		if vm, err = decodeVote(ev.msg.Payload); err != nil {
			return
		}
	}
	if vm.Voter != ev.msg.From || !m.cfg.View.Contains(vm.Voter) || vm.Epoch < s.epoch || len(vm.Sig) != crypto.SignatureSize {
		return
	}
	// late: a WRITE matching the value this replica already moved past, in
	// a slot that went through a synchronization round — the sender is
	// running the epoch late (e.g. it joined through a stale-campaigner
	// resync). Only such slots can have late joiners, so the normal path
	// never pays for echoes. A decided but not yet settled slot records
	// nothing else.
	late := ph == phaseWrite && s.epoch > s.baseEpoch && vm.Epoch == s.epoch && vm.Digest == s.digest
	wasDecided := s.decided
	if wasDecided && !late {
		return
	}
	if _, dup := s.votes[ph][vm.Epoch][vm.Digest][vm.Voter]; dup {
		return // a replayed vote costs nothing
	}
	held, holding := s.held[ph][vm.Voter]
	if holding && s.stale(held) {
		delete(s.held[ph], vm.Voter)
		holding = false
	}
	same := holding && held.Epoch == vm.Epoch && held.Digest == vm.Digest
	if same && bytes.Equal(held.Sig, vm.Sig) {
		return
	}
	if holding || late && (wasDecided || s.sent[phaseAccept]) {
		if !m.validVote(inst, ph, &vm) {
			return
		}
		if same {
			delete(s.held[ph], vm.Voter)
		}
		s.record(ph, vm)
	} else {
		s.held[ph][vm.Voter] = vm
	}
	m.progress(inst, s)
	// Checked AFTER progress: the write that completes our quorum is often
	// the late joiner's own — it has ours recorded nowhere, and without the
	// echo both sides would hold a partial quorum forever. Only a checked
	// vote is answered.
	if _, counted := s.votes[ph][vm.Epoch][vm.Digest][vm.Voter]; counted && late && (wasDecided || s.sent[phaseAccept]) {
		m.echoVotes(vm.Voter, inst, s)
	}
}

// validVote checks one vote's signature against the key installed for its
// voter now.
func (m *machine) validVote(inst int64, ph phase, vm *voteMsg) bool {
	pub, ok := m.cfg.View.PublicKeyOf(vm.Voter)
	return ok && crypto.Verify(pub, phaseWire[ph].ctx, voteMessage(inst, vm.Epoch, vm.Digest), vm.Sig)
}

// stopped reports whether this replica sent an EPOCH-STOP for a regency
// above epoch. From that vote on it casts nothing in epoch: its stop carries
// the claims it held when it voted, and a WRITE or ACCEPT cast after it could
// complete a decision in epoch that the next leader's certificate, built from
// a quorum of such stops, does not carry — and re-proposes over.
func (m *machine) stopped(epoch int64) bool {
	for next, stops := range m.epochStops {
		if _, voted := stops[m.cfg.Self]; voted && next > epoch {
			return true
		}
	}
	return false
}

// echoVotes sends this replica's own WRITE (and ACCEPT, if cast) for
// (inst, s.epoch, s.digest) directly to one peer. Votes are broadcast
// exactly once, so a replica that joined the epoch late would assemble
// quorums everyone else already has only via another synchronization
// round; echoing on first contact lets it converge in place. Triggered only
// by newly recorded votes, so two replicas can never echo at each other
// indefinitely.
func (m *machine) echoVotes(to int32, inst int64, s *instState) {
	for ph := range s.votes {
		if sig, ok := s.votes[ph][s.epoch][s.digest][m.cfg.Self]; ok {
			vm := voteMsg{Instance: inst, Epoch: s.epoch, Digest: s.digest, Voter: m.cfg.Self, Sig: sig}
			m.send(to, phaseWire[ph].typ, vm.encode())
		}
	}
}

// onDecided adopts a retransmitted decision certificate: verify the quorum
// proof and decide in place, exactly as an ACCEPT quorum would. This is the
// only path that can close an empty-instance floor gap — the decided slots
// produced no blocks, so state transfer sees nothing to ship, and peers
// past the slots carry no EPOCH-STOP claims for them.
func (m *machine) onDecided(msg transport.Message, s *instState, inst int64) {
	dm, err := decodeDecided(msg.Payload)
	if err != nil || dm.Instance != inst || s.decided {
		return
	}
	if dm.Value == nil {
		dm.Value = []byte{}
	}
	if VerifyDecisionProof(m.cfg.View, inst, dm.Epoch, crypto.HashBytes(dm.Value), &dm.Proof, m.quorum) != nil {
		return
	}
	m.decide(inst, s, dm.Epoch, dm.Value, dm.Proof)
}
