package consensus

import (
	"sort"

	"smartchain/internal/crypto"
	"smartchain/internal/transport"
)

// The synchronization phase of the machine: ONE regency-wide round
// re-proposes the whole ordering window.

// startEpochChange broadcasts this replica's EPOCH-STOP for next: ONE
// signed message carrying its strongest claim (write certificate or
// decision proof) for every open slot of the window.
func (m *machine) startEpochChange(next int64) {
	if next <= m.regency {
		return
	}
	if sm, sent := m.epochStops[next][m.cfg.Self]; sent {
		// Re-broadcast the recorded vote instead of falling silent: a
		// campaigner whose STOP was lost (or whose peers installed the
		// epoch before hearing it) would otherwise never be noticed — the
		// re-broadcast is what lets the current leader detect a stale
		// campaigner and re-send the installed regency's SYNC certificate.
		m.broadcast(MsgEpochStop, sm.encode())
		return
	}
	sm := epochStopMsg{NextEpoch: next, Voter: m.cfg.Self, Floor: m.floor}
	insts := make([]int64, 0, len(m.states))
	for i := range m.states {
		insts = append(insts, i)
	}
	sort.Slice(insts, func(a, b int) bool { return insts[a] < insts[b] })
	for _, i := range insts {
		s := m.states[i]
		switch {
		case s.decided && s.decisionProof != nil:
			sm.Claims = append(sm.Claims, slotClaim{Instance: i, Kind: claimDecided,
				Epoch: s.decidedEpoch, Value: s.proposal, DProof: *s.decisionProof})
		case !s.decided && s.myWriteCert != nil:
			sm.Claims = append(sm.Claims, slotClaim{Instance: i, Kind: claimWrite,
				Epoch: s.myWriteCert.Epoch, Value: s.myCertValue, WCert: *s.myWriteCert})
		}
	}
	if sm.Sig = m.cfg.Signer.MustSign(ctxEpochStop, sm.signedPortion()); sm.Sig == nil {
		return
	}
	m.recordStop(sm)
	m.broadcast(MsgEpochStop, sm.encode())
	m.maybeInstall(next) // degenerate views where one vote is a quorum
}

func (m *machine) recordStop(sm epochStopMsg) {
	if m.epochStops[sm.NextEpoch] == nil {
		m.epochStops[sm.NextEpoch] = make(map[int32]epochStopMsg)
	}
	m.epochStops[sm.NextEpoch][sm.Voter] = sm
}

// installRegency moves every live undecided slot into epoch next in one
// step. Slots keep their write certificates (the evidence the next campaign
// would carry); proposals and votes reset for the new epoch.
func (m *machine) installRegency(next int64) {
	if next <= m.regency {
		return
	}
	if sm, voted := m.epochStops[next][m.cfg.Self]; voted {
		m.myStop = &sm
	}
	m.regency = next
	m.out = append(m.out, effect{kind: fxEpochInstalled, epoch: next})
	for _, s := range m.states {
		if s.decided || s.epoch >= next {
			continue
		}
		s.epoch = next
		s.sent = [2]bool{}
		s.proposal = nil
		s.digest = crypto.ZeroHash
		// Back off: the network may still be asynchronous. Capped, or a
		// slot surviving several rounds (each fault in a bursty run adds
		// one) ends up re-campaigning on a horizon longer than any outage.
		if s.timeout < 4*m.cfg.Timeout {
			s.timeout *= 2
		}
		s.deadline = m.now.Add(s.timeout)
	}
	for ep := range m.epochStops {
		if ep <= next {
			delete(m.epochStops, ep)
		}
	}
}

// applySlot adopts one re-proposed value from a SYNC certificate. The value
// was already vetted against the justification; Validate still screens
// batch well-formedness like any proposal. Slots further ahead than the
// bounded future window are dropped (same cap the ordinary message path
// applies): a lagging replica recovers those through state transfer, and a
// Byzantine leader cannot force unbounded state.
func (m *machine) applySlot(next, inst int64, value []byte) {
	if inst < m.floor || inst > max(m.maxStarted, m.floor)+futureWindow {
		return
	}
	// The SYNC may re-propose slots this replica's driver has not opened
	// yet (its commit floor lagged the claimants'): extend the live window.
	// Gap slots get fresh state at the current regency; the driver's later
	// StartInstance for them merges harmlessly.
	for j := m.maxStarted + 1; j <= inst; j++ {
		m.open(j)
		m.maxStarted = j
	}
	s := m.st(inst)
	if s.decided || s.epoch != next || s.proposal != nil {
		return
	}
	if m.cfg.Validate != nil && len(value) > 0 && !m.cfg.Validate(inst, value) {
		return
	}
	m.adopt(inst, s, value)
}

// maybeInstall fires when a campaign for next may have reached quorum:
// install the regency and, if this replica leads the new epoch, assemble
// the SYNC certificate and re-propose the whole window at once — the
// certified (or decided) value where one is provably locked, the empty
// batch elsewhere.
func (m *machine) maybeInstall(next int64) {
	stops := m.epochStops[next]
	if len(stops) < m.quorum || next <= m.regency {
		return
	}
	justif := make([]epochStopMsg, 0, len(stops))
	for _, sm := range stops {
		justif = append(justif, sm)
	}
	// In voter order: the certificate is a function of the votes, not of how
	// a map happens to iterate.
	sort.Slice(justif, func(a, b int) bool { return justif[a].Voter < justif[b].Voter })
	m.installRegency(next) // GCs epochStops[next]; justif captured above
	if m.cfg.View.Leader(next) != m.cfg.Self {
		return
	}
	best := bestClaims(justif)
	slotSet := make(map[int64]bool, len(m.states)+len(best))
	for i, s := range m.states {
		if !s.decided {
			slotSet[i] = true
		}
	}
	for i := range best {
		if i >= m.floor {
			slotSet[i] = true
		}
	}
	insts := make([]int64, 0, len(slotSet))
	for i := range slotSet {
		insts = append(insts, i)
	}
	sort.Slice(insts, func(a, b int) bool { return insts[a] < insts[b] })
	cert := epochSyncMsg{NextEpoch: next, Justif: justif}
	for _, i := range insts {
		var value []byte
		if c, ok := best[i]; ok {
			value = c.Value
		} else if attestedUnlocked(justif, i) >= m.quorum {
			// A quorum of live-on-i voters attests nothing is locked: the
			// slot is provably open and the new leader may propose fresh
			// work. The ordering driver leaves RequestValue nil, so the
			// node proposes the empty filler and pending work flows into
			// fresh slots instead.
			if m.cfg.RequestValue != nil {
				value = m.cfg.RequestValue(i)
			}
		} else {
			// No claim, but some quorum voters settled the slot: it may
			// have decided with a value this quorum cannot see. Leave it
			// out — a later campaign with the right electorate (or state
			// transfer) resolves it.
			continue
		}
		cert.Slots = append(cert.Slots, slotProposal{Instance: i, Value: value})
	}
	m.broadcast(MsgEpochSync, cert.encode())
	// Keep the certificate: it is self-certifying, so it can later be
	// re-sent verbatim to a stale campaigner that missed this round.
	m.lastSync = &cert
	for _, sp := range cert.Slots {
		m.applySlot(next, sp.Instance, sp.Value)
	}
}

// tailDue reports whether a peer whose commit floor is from should be
// offered retained decision certificates now (rate-limited per peer).
func (m *machine) tailDue(to int32, from int64) bool {
	return from < m.floor && m.now.Sub(m.decidedSentAt[to]) >= m.cfg.Timeout/2
}

// offerDecidedTail retransmits retained decision certificates for
// [from, floor) to one peer whose commit floor is behind ours. The trigger
// is an EPOCH-STOP carrying a low Floor: a replica stuck below the quorum's
// floor stops sending per-instance traffic — installRegency cleared its gap
// slots' proposals and the SYNC re-proposes only slots at or above the
// leader's floor — so its campaigns are the only signal left. When the gap
// instances held empty batches, nothing else can hand it the decisions
// (state transfer ships blocks, and our EPOCH-STOP claims below the floor
// are garbage-collected). One burst closes the whole gap: the receiver
// verifies each certificate and decides in place.
func (m *machine) offerDecidedTail(to int32, from int64) {
	if !m.tailDue(to, from) {
		return
	}
	sent := 0
	for i := from; i < m.floor && sent < decidedTailLen; i++ {
		if dm, ok := m.decidedTail[i]; ok {
			m.send(to, MsgDecided, dm.encode())
			sent++
		}
	}
	if sent > 0 {
		m.decidedSentAt[to] = m.now
	}
}

// onEpochStop records a regency-wide synchronization vote: join on f+1
// distinct campaigns (echo our own claims), install on quorum. Votes are
// bounded to a horizon of future epochs: correct replicas campaign at most
// a few epochs ahead of a laggard, and without the cap a single Byzantine
// member could park verified stops for arbitrarily many future epochs in
// memory (they are only GC'd when the regency passes them).
func (m *machine) onEpochStop(msg transport.Message) {
	sm, err := decodeEpochStop(msg.Payload)
	if err != nil || sm.Voter != msg.From || !m.cfg.View.Contains(sm.Voter) {
		return
	}
	if sm.NextEpoch <= m.regency {
		m.answerStaleCampaigner(&sm)
		return
	}
	if sm.NextEpoch > m.regency+maxEpochSkew {
		return
	}
	if _, dup := m.epochStops[sm.NextEpoch][sm.Voter]; dup {
		return
	}
	if err := sm.verify(m.cfg.View, m.quorum); err != nil {
		return
	}
	m.recordStop(sm)
	m.offerDecidedTail(sm.Voter, sm.Floor) // close a campaigner's floor gap
	if len(m.epochStops[sm.NextEpoch]) >= m.cfg.View.F()+1 {
		m.startEpochChange(sm.NextEpoch) // join the campaign
	}
	m.maybeInstall(sm.NextEpoch)
}

// answerStaleCampaigner handles an EPOCH-STOP for an epoch the view already
// installed: the vote can never gather a quorum, but it IS evidence the
// sender missed the installed regency. The message is signature-verified
// once, and only when a rate-limited answer is due, so a Byzantine member
// cannot turn us into a re-send amplifier.
func (m *machine) answerStaleCampaigner(sm *epochStopMsg) {
	leader := m.cfg.View.Leader(m.regency)
	rested := m.now.Sub(m.resyncAt[sm.Voter]) >= m.cfg.Timeout/2
	// We lead the current regency: re-send our retained self-certifying
	// SYNC certificate, so the campaigner installs the regency from it and
	// rejoins live ordering without waiting out the next synchronization
	// round.
	resendSync := rested && leader == m.cfg.Self && m.lastSync != nil && m.lastSync.NextEpoch == m.regency
	// The stale campaigner IS the installed regency's leader: it missed its
	// own election (the quorum campaigned precisely because it was
	// unreachable), no SYNC for this regency exists anywhere, and without
	// help the view waits out a full backoff while the leader's own
	// campaigns are dismissed as stale — a standing deadlock. Re-send our
	// retained EPOCH-STOP vote so it can assemble the quorum it missed and
	// lead; the vote is the original signed message, so the receiver
	// verifies it like any other.
	resendStop := rested && sm.NextEpoch == m.regency && sm.Voter == leader &&
		m.myStop != nil && m.myStop.NextEpoch == m.regency
	// Its floor is behind ours: it is stuck on instances we settled.
	offerTail := m.tailDue(sm.Voter, sm.Floor)
	if !(resendSync || resendStop || offerTail) || sm.verify(m.cfg.View, m.quorum) != nil {
		return
	}
	switch {
	case resendSync:
		m.resyncAt[sm.Voter] = m.now
		m.send(sm.Voter, MsgEpochSync, m.lastSync.encode())
	case resendStop:
		m.resyncAt[sm.Voter] = m.now
		m.send(sm.Voter, MsgEpochStop, m.myStop.encode())
	}
	m.offerDecidedTail(sm.Voter, sm.Floor) // a no-op unless offerTail
}

// onEpochSync validates a SYNC certificate from the new leader and adopts
// its whole-window re-proposal. The certificate is self-certifying, so a
// replica that missed the stop quorum still installs the regency here.
func (m *machine) onEpochSync(msg transport.Message) {
	cert, err := decodeEpochSync(msg.Payload)
	if err != nil || msg.From != m.cfg.View.Leader(cert.NextEpoch) || msg.From == m.cfg.Self {
		return
	}
	if cert.NextEpoch < m.regency {
		return // a newer regency is already installed
	}
	if _, ok := m.validEpochSync(&cert); !ok {
		return
	}
	m.installRegency(cert.NextEpoch) // no-op when already installed
	for _, sp := range cert.Slots {
		m.applySlot(cert.NextEpoch, sp.Instance, sp.Value)
	}
}

// validEpochSync checks an EPOCH-SYNC certificate: at least a quorum of
// distinct valid EPOCH-STOPs for its epoch, and every re-proposed value
// honoring the strongest claim among them — the decided or highest-epoch
// certified value where one exists, the empty batch where nothing is
// provably locked.
func (m *machine) validEpochSync(cert *epochSyncMsg) (map[int64]*slotClaim, bool) {
	voters := make(map[int32]bool, len(cert.Justif))
	for i := range cert.Justif {
		sm := &cert.Justif[i]
		if sm.NextEpoch != cert.NextEpoch || voters[sm.Voter] || !m.cfg.View.Contains(sm.Voter) {
			return nil, false
		}
		if err := sm.verify(m.cfg.View, m.quorum); err != nil {
			return nil, false
		}
		voters[sm.Voter] = true
	}
	if len(voters) < m.quorum {
		return nil, false
	}
	best := bestClaims(cert.Justif)
	seen := make(map[int64]bool, len(cert.Slots))
	for i := range cert.Slots {
		sp := &cert.Slots[i]
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
		if attestedUnlocked(cert.Justif, sp.Instance) < m.quorum {
			return nil, false
		}
	}
	return best, true
}
