package catchup

import (
	"errors"
	"fmt"
	"slices"
	"time"

	"smartchain/internal/blockchain"
	"smartchain/internal/crypto"
)

// event is one input to the machine: something the runtime saw happen
// outside it, or the passage of time.
type event struct {
	kind   eventKind
	peers  []int32  // evStart: the donors to ask
	height int64    // evStart: the local committed height
	resp   Response // evResponse
	peer   int32    // evSendRefused
	err    error    // evLocalDone: the Fetcher's verdict; evCancel: why
}

type eventKind uint8

const (
	evStart       eventKind = iota + 1 // a round begins
	evResponse                         // a donor reply arrived
	evSendRefused                      // the transport refused a request to peer
	evLocalDone                        // the runtime finished the local effect in flight
	evTick                             // time passed: the grace instant or a request deadline may be due
	evCancel                           // the caller gave up
)

// effect is one output of a step, performed by the runtime in order.
type effect struct {
	kind       effectKind
	peer       int32 // fxRequest: whom to ask for what: its envelope, chunk
	what       Kind  // index of the snapshot at height, or blocks from..to
	index      int
	height     int64 // of the snapshot; from, to: of the range
	from, to   int64
	env        *Envelope          // fxVerify, fxInstall
	blocks     []blockchain.Block // fxVerify, fxApply
	state      []byte             // fxInstall
	verified   bool               // fxApply: an fxVerify already covered blocks
	progressed bool               // fxFinish
	err        error              // fxFinish
}

type effectKind uint8

const (
	fxRequest effectKind = iota + 1 // one Fetcher.Request* call; a refusal comes back as evSendRefused
	fxVerify                        // Fetcher.VerifyBlocks(env, blocks), then step evLocalDone
	fxInstall                       // Fetcher.InstallSnapshot(env, state), then step evLocalDone
	fxApply                         // Fetcher.ReplayBlocks if verified, else ApplyBlocks; then evLocalDone
	fxFinish                        // the round is over: the runtime reports (progressed, err)
)

type phase uint8

const (
	phaseIdle     phase = iota // no round
	phaseDiscover              // collecting envelopes towards an f+1 quorum
	phaseFetch                 // fetching, verifying and applying the plan
)

// offer is one distinct envelope and the donors that sent it.
type offer struct {
	env  *Envelope
	fp   crypto.Hash
	tips []int64
	ids  []int32
}

type itemState uint8

const (
	itemPending itemState = iota
	itemInFlight
	itemDone    // payload accepted; a range still waits to be applied
	itemApplied // ranges only
)

// item is one height-keyed request: a snapshot chunk or a block range.
type item struct {
	kind     Kind  // KindChunk or KindRange
	key, to  int64 // the chunk index, or the range's first and last block
	state    itemState
	peer     int32 // the donor asked while in flight, the supplier once done
	deadline time.Time
	data     []byte             // accepted chunk payload
	blocks   []blockchain.Block // accepted range payload
	verified bool               // an fxVerify covered blocks
}

type donor struct {
	id       int32
	inflight int
	strikes  int // unanswered waves and empty answers in a row
	dropped  bool
}

// machine is the catch-up protocol as a deterministic state machine
// (DESIGN.md "Collaborative catch-up"), as pure as consensus.machine and
// core.window: smartlint's looptime holds all three to it.
type machine struct {
	cfg    Config
	now    time.Time      // the instant of the step in progress
	out    []effect       // effects of the step in progress; reused across steps
	banned map[int32]bool // outlives rounds, like stats
	stats  Stats
	round
}

// round is the state of the round in flight, zero while idle.
type round struct {
	phase   phase
	started time.Time
	have    int64 // local height when the round began
	need    int   // f+1 of the peers named
	asked   int   // envelope requests the transport accepted
	// Discovery.
	offers    []*offer // in arrival order
	responded map[int32]bool
	graceAt   time.Time // set once an offer reaches need
	// Fetch.
	env         *Envelope // the quorum envelope
	fp          crypto.Hash
	items       []*item  // chunks in index order, then ranges in chain order
	donors      []*donor // in enlistment order; next rotates over them
	next        int
	contributed map[int32]bool // peers whose payloads were accepted
	wantSnap    bool
	installed   bool
	cursor      int64      // last block applied
	bytes       int64      // accepted payload
	doing       effectKind // the local effect in flight,
	subject     *item      // and the range it concerns
}

// step applies one event at instant now. The returned effects alias a
// buffer the next step overwrites: perform them before stepping again. At
// most one is local (fxVerify, fxInstall, fxApply), always the last; the
// runtime answers it with evLocalDone before any other event.
func (m *machine) step(now time.Time, ev event) []effect {
	m.now = now
	clear(m.out) // drop the previous step's payload references
	m.out = m.out[:0]
	if m.phase == phaseIdle && ev.kind != evStart {
		return m.out
	}
	switch ev.kind {
	case evStart:
		m.start(ev.peers, ev.height)
	case evResponse:
		switch ev.resp.Kind {
		case KindEnvelope:
			m.onEnvelope(ev.resp)
		case KindChunk:
			m.onChunk(ev.resp)
		case KindRange:
			m.onRange(ev.resp)
		}
	case evSendRefused:
		m.refused(ev.peer)
	case evLocalDone:
		m.localDone(ev.err)
	case evTick:
		// The strike reclaims everything the donor holds: each is met once.
		for _, it := range m.items {
			if it.state == itemInFlight && !now.Before(it.deadline) {
				m.strike(m.donorByID(it.peer), true)
			}
		}
	case evCancel:
		m.finish(ev.err)
	}
	switch {
	case m.phase == phaseDiscover && m.asked == 0:
		m.finish(errors.New("catchup: no reachable donors"))
	case m.phase == phaseDiscover && !m.graceAt.IsZero() && (len(m.responded) >= m.asked || !now.Before(m.graceAt)):
		m.plan() // a quorum, and every answer in or the grace window out
	}
	if m.phase == phaseFetch {
		m.pump()
	}
	return m.out
}

// nextDeadline is the instant the machine needs an evTick by: the end of the
// grace window, or the earliest request deadline. Zero means none.
func (m *machine) nextDeadline() (next time.Time) {
	if m.phase == phaseDiscover {
		return m.graceAt
	}
	for _, it := range m.items {
		if it.state == itemInFlight && (next.IsZero() || it.deadline.Before(next)) {
			next = it.deadline
		}
	}
	return next
}

// start opens a round: every peer not banned is asked for its envelope.
func (m *machine) start(peers []int32, height int64) {
	m.round = round{
		phase: phaseDiscover, started: m.now, have: height, need: len(peers)/3 + 1,
		responded: make(map[int32]bool), contributed: make(map[int32]bool),
	}
	for _, peer := range peers {
		if !m.banned[peer] {
			m.asked++
			m.out = append(m.out, effect{kind: fxRequest, peer: peer, what: KindEnvelope})
		}
	}
}

// refused: an unreachable peer is no donor this round.
func (m *machine) refused(peer int32) {
	m.stats.SendFailures++
	if d := m.donorByID(peer); d != nil {
		d.dropped = true
		m.reclaim(d)
	} else if m.phase == phaseDiscover {
		m.asked--
	}
}

// onEnvelope counts one well-formed offer per unbanned peer per round; no
// single envelope can be verified, the f+1 quorum is what vouches.
func (m *machine) onEnvelope(resp Response) {
	if resp.Envelope == nil || m.banned[resp.Peer] || m.responded[resp.Peer] || resp.Envelope.Snap.Validate() != nil {
		return
	}
	m.responded[resp.Peer] = true
	fp := resp.Envelope.Fingerprint()
	i := slices.IndexFunc(m.offers, func(o *offer) bool { return o.fp == fp })
	if i < 0 {
		i = len(m.offers)
		m.offers = append(m.offers, &offer{env: resp.Envelope, fp: fp})
	}
	o := m.offers[i]
	o.tips = append(o.tips, resp.Envelope.Tip)
	o.ids = append(o.ids, resp.Peer)
	switch {
	case m.phase == phaseFetch && fp == m.fp:
		m.donors = append(m.donors, &donor{id: resp.Peer}) // its first offer: no donor yet
	case m.graceAt.IsZero() && len(o.ids) >= m.need:
		// Quorum alone does not end discovery: idle stale replicas answer
		// first, and two of them would certify each other as caught up.
		// Stragglers can raise the target, never past what f+1 donors claim.
		m.graceAt = m.now.Add(m.cfg.PeerTimeout / 4)
	}
}

// plan turns the winning offer into the work list and donor set, or ends the
// round when there is nothing to fetch or nothing that could be verified.
func (m *machine) plan() {
	won, target := m.best()
	env := won.env
	target = max(target, env.Snap.LastBlock)
	m.wantSnap = env.Snap.LastBlock > m.have
	switch {
	case !m.wantSnap && target <= m.have:
		m.finish(nil) // already caught up
		return
	case m.wantSnap && target == env.Snap.LastBlock && m.need < 2:
		// One donor, no block beyond the snapshot to check it against: refuse.
		m.finish(errors.New("catchup: unverifiable single-donor snapshot offer"))
		return
	}
	m.phase, m.env, m.fp = phaseFetch, env, won.fp
	m.cursor = max(m.have, env.Snap.LastBlock)
	if m.wantSnap {
		for i := range env.Snap.Chunks {
			m.items = append(m.items, &item{kind: KindChunk, key: int64(i)})
		}
	}
	step := int64(m.cfg.RangeBlocks)
	for from := m.cursor + 1; from <= target; from += step {
		m.items = append(m.items, &item{kind: KindRange, key: from, to: min(from+step-1, target)})
	}
	for _, id := range won.ids {
		m.donors = append(m.donors, &donor{id: id})
	}
}

// best picks the target: the need-th largest tip among an offer's donors. A
// correct donor claims it, so it is reachable; no smaller minority can
// stretch it. Of several quorums the highest such tip wins, then the earliest.
func (m *machine) best() (won *offer, target int64) {
	target = -1
	for _, o := range m.offers {
		if len(o.ids) < m.need {
			continue
		}
		tips := slices.Clone(o.tips)
		slices.Sort(tips)
		if t := tips[len(tips)-m.need]; t > target {
			won, target = o, t
		}
	}
	return won, target
}

// onChunk checks a chunk against the quorum-agreed digest on arrival; one of
// another snapshot, or that this peer does not owe, is ignored.
func (m *machine) onChunk(resp Response) {
	if m.phase != phaseFetch || resp.Height != m.env.Snap.LastBlock {
		return
	}
	it := m.itemAt(KindChunk, int64(resp.Index))
	if !owed(it, resp.Peer) {
		return
	}
	sound := m.env.Snap.VerifyChunk(resp.Index, resp.Data)
	switch {
	case len(resp.Data) == 0:
		// "Don't have it": pruned since it offered. A strike, not a crime.
		m.strike(m.donorByID(resp.Peer), false)
	case !sound:
		m.ban(resp.Peer) // proof of a faulty donor, not bad luck
	default:
		it.data = resp.Data
		m.accept(it, len(resp.Data))
		m.stats.ChunksFetched++
	}
}

// onRange checks a range's shape; its proofs are an fxVerify or fxApply away.
func (m *machine) onRange(resp Response) {
	it := m.itemAt(KindRange, resp.From)
	if !owed(it, resp.Peer) {
		return
	}
	if !validRange(it, resp.Blocks) {
		// Empty or malformed: the donor may simply have pruned the range.
		m.strike(m.donorByID(resp.Peer), false)
		return
	}
	it.blocks = resp.Blocks
	n := 0
	for i := range resp.Blocks {
		n += len(resp.Blocks[i].Body.BatchData)
	}
	m.accept(it, n)
}

func validRange(it *item, blocks []blockchain.Block) bool {
	for i := range blocks {
		if blocks[i].Header.Number != it.key+int64(i) {
			return false
		}
	}
	return int64(len(blocks)) == it.to-it.key+1
}

// owed: peer was sent this request and has not answered it.
func owed(it *item, peer int32) bool {
	return it != nil && it.state == itemInFlight && it.peer == peer
}

func (m *machine) accept(it *item, n int) {
	d := m.donorByID(it.peer)
	d.inflight--
	d.strikes = 0
	it.state = itemDone
	m.contributed[it.peer] = true
	m.bytes += int64(n)
	m.stats.BytesFetched += int64(n)
}

// strike is the one demotion path: a wave went unanswered (silent), or the
// donor answered that it has nothing. All its work returns to the pool, so one
// pause costs one strike; two in a row drop it for the round. But silence
// alone never removes the last live donor: a round lost in a degraded view may
// be impossible to restart. (Re-asking one that says "don't have it" would spin.)
func (m *machine) strike(d *donor, silent bool) {
	d.strikes++
	m.reclaim(d)
	if d.strikes >= 2 && (!silent || m.liveBesides(d)) {
		d.dropped = true
	}
}

// ban: caught serving a bad payload, dropped now and refused in later rounds.
func (m *machine) ban(id int32) {
	if !m.banned[id] {
		m.banned[id] = true
		m.stats.Banned++
	}
	if d := m.donorByID(id); d != nil {
		d.dropped = true
		m.reclaim(d)
	}
}

// reclaim returns every request d still owes to the pending pool.
func (m *machine) reclaim(d *donor) {
	for _, it := range m.items {
		if owed(it, d.id) {
			it.state = itemPending
			m.stats.Redos++
		}
	}
	d.inflight = 0
}

// localDone takes the runtime's verdict on the local effect in flight.
func (m *machine) localDone(err error) {
	kind, it := m.doing, m.subject
	m.doing, m.subject = 0, nil
	switch {
	case kind == fxInstall && err != nil:
		// Our own store or metadata failed, not a donor: fatal.
		m.finish(fmt.Errorf("catchup: install snapshot: %w", err))
	case kind == fxInstall:
		m.installed = true
		m.stats.Installs++
	case err != nil:
		// Well-shaped blocks with bad proofs: forged. Ban, fetch again.
		m.ban(it.peer)
		it.state, it.blocks, it.verified = itemPending, nil, false
		m.stats.Redos++
	case kind == fxVerify:
		it.verified = true
	case kind == fxApply:
		m.cursor = it.to
		m.stats.RangesFetched++
		m.stats.BlocksFetched += int64(len(it.blocks))
		it.state, it.blocks = itemApplied, nil
	}
}

// pump ends every fetch-phase step: requests for pending work, then the one
// local effect the round is ready for, or the end of the round.
func (m *machine) pump() {
	m.assign()
	switch {
	case m.nextLocal():
	case (m.installed || !m.wantSnap) && m.all(KindRange, itemApplied):
		m.finish(nil)
	case !m.liveBesides(nil):
		m.finish(errors.New("catchup: all donors failed or banned"))
	}
}

// assign hands pending items to live donors under their caps, round-robin;
// what is assigned in one step shares one deadline.
func (m *machine) assign() {
	for _, it := range m.items {
		if it.state != itemPending {
			continue
		}
		d := m.pickDonor()
		if d == nil {
			return // every live donor is at its cap
		}
		it.state, it.peer, it.deadline = itemInFlight, d.id, m.now.Add(m.cfg.PeerTimeout)
		d.inflight++
		m.out = append(m.out, effect{kind: fxRequest, peer: d.id, what: it.kind,
			height: m.env.Snap.LastBlock, index: int(it.key), from: it.key, to: it.to})
	}
}

func (m *machine) pickDonor() *donor {
	for i := range m.donors {
		d := m.donors[(m.next+i)%len(m.donors)]
		if !d.dropped && d.inflight < m.cfg.InFlightPerPeer {
			m.next = (m.next + i + 1) % len(m.donors)
			return d
		}
	}
	return nil
}

// nextLocal emits the local effect the round is ready for, if any: verify
// the binding range, install the snapshot, then apply range after range.
func (m *machine) nextLocal() bool {
	var fx effect
	if m.wantSnap && !m.installed {
		// Before Restore the first range past the snapshot must extend
		// the snapshot's block with valid proofs. (With no such range the envelope
		// quorum, need ≥ 2, is the binding: plan refuses anything less.)
		first := m.itemAt(KindRange, m.env.Snap.LastBlock+1)
		switch {
		case !m.all(KindChunk, itemDone), first != nil && first.state != itemDone:
			return false // wait for the last chunk, or the evidence range
		case first != nil && !first.verified:
			fx, m.subject = effect{kind: fxVerify, env: m.env, blocks: first.blocks}, first
		default:
			fx = effect{kind: fxInstall, env: m.env, state: make([]byte, 0, m.env.Snap.TotalBytes)}
			for _, it := range m.items[:len(m.env.Snap.Chunks)] {
				fx.state = append(fx.state, it.data...)
			}
		}
	} else {
		it := m.itemAt(KindRange, m.cursor+1)
		if it == nil || it.state != itemDone {
			return false
		}
		fx, m.subject = effect{kind: fxApply, blocks: it.blocks, verified: it.verified}, it
	}
	m.doing = fx.kind
	m.out = append(m.out, fx)
	return true
}

// finish ends the round. One that got as far as fetching counts in Stats.
func (m *machine) finish(err error) {
	progressed := m.installed || (!m.wantSnap && m.cursor > m.have)
	m.out = append(m.out, effect{kind: fxFinish, progressed: progressed, err: err})
	if m.phase == phaseFetch {
		m.stats.Rounds++
		m.stats.PeersUsed = int64(len(m.contributed))
		if el := m.now.Sub(m.started).Seconds(); el > 0 {
			m.stats.BytesPerSec = float64(m.bytes) / el
		}
	}
	m.round = round{}
}

func (m *machine) all(kind Kind, state itemState) bool {
	return !slices.ContainsFunc(m.items, func(it *item) bool { return it.kind == kind && it.state != state })
}

// liveBesides reports whether any donor other than d is still in the round.
func (m *machine) liveBesides(d *donor) bool {
	return slices.ContainsFunc(m.donors, func(o *donor) bool { return o != d && !o.dropped })
}

func (m *machine) itemAt(kind Kind, key int64) *item {
	if i := slices.IndexFunc(m.items, func(it *item) bool { return it.kind == kind && it.key == key }); i >= 0 {
		return m.items[i]
	}
	return nil
}

func (m *machine) donorByID(id int32) *donor {
	if i := slices.IndexFunc(m.donors, func(d *donor) bool { return d.id == id }); i >= 0 {
		return m.donors[i]
	}
	return nil
}
