package catchup

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"smartchain/internal/blockchain"
	"smartchain/internal/crypto"
)

// Pool is the collaborative catch-up protocol: a height-keyed request pool
// in the shape of Tendermint's blocksync. One Sync round discovers an
// envelope quorum, then round-robins chunk and block-range requests across
// every agreeing donor under per-peer in-flight caps. Donors that time out
// are demoted and eventually dropped for the round; donors whose payloads
// fail verification are banned outright. All their work is requeued to the
// survivors, so a single correct reachable donor suffices to finish.
type Pool struct {
	cfg Config

	mu     sync.Mutex
	ch     chan Response // non-nil while a round is active
	stats  Stats
	banned map[int32]bool // persists across rounds
}

// NewPool returns a Pool with the given tuning.
func NewPool(cfg Config) *Pool {
	return &Pool{cfg: cfg.withDefaults(), banned: make(map[int32]bool)}
}

// Deliver routes an incoming donor reply to the round in progress. Safe
// from any goroutine and never blocks: a full round buffer or an idle pool
// drops the reply (the pool re-requests on timeout anyway).
func (p *Pool) Deliver(r Response) {
	p.mu.Lock()
	ch := p.ch
	p.mu.Unlock()
	if ch == nil {
		return
	}
	select {
	case ch <- r:
	default:
	}
}

// Stats returns a snapshot of the pool's counters.
func (p *Pool) Stats() Stats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.stats
}

// itemState tracks one unit of work through the pool.
type itemState uint8

const (
	itemPending itemState = iota
	itemInFlight
	itemDone
)

// poolItem is one height-keyed request: a snapshot chunk or a block range.
type poolItem struct {
	kind     Kind // KindChunk or KindRange
	index    int  // chunk index
	from, to int64
	state    itemState
	peer     int32 // donor currently responsible (valid when in flight)
	deadline time.Time
	// results
	data     []byte             // accepted chunk payload
	blocks   []blockchain.Block // accepted range payload
	supplier int32              // donor whose payload was accepted
	verified bool               // proofs checked via VerifyBlocks (ranges)
	applied  bool
}

// donor tracks one peer's standing within a round.
type donor struct {
	id       int32
	inflight int
	strikes  int // consecutive timeouts; 2 drops the donor for the round
	dropped  bool
}

// poolRound is the mutable state of one Sync invocation.
type poolRound struct {
	p     *Pool
	f     Fetcher
	env   *Envelope
	items []*poolItem
	// donors in discovery order; round-robin rotates over the live ones.
	donors []*donor
	next   int // round-robin cursor
	// contributed records peers whose payloads were accepted this round.
	contributed map[int32]bool
	installed   bool
	wantSnap    bool
	applyCursor int64 // last block number applied
	baseCursor  int64 // applyCursor at round start (progress baseline)
	bytes       int64
}

// Sync drives one collaborative catch-up round against peers and reports
// whether any state was installed or applied. Rounds do not overlap: a
// Sync while another is in progress fails.
func (p *Pool) Sync(ctx context.Context, f Fetcher, peers []int32) (bool, error) {
	if len(peers) == 0 {
		return false, nil
	}
	ch := make(chan Response, 4*len(peers)*p.cfg.InFlightPerPeer+64)
	p.mu.Lock()
	if p.ch != nil {
		p.mu.Unlock()
		return false, errors.New("catchup: sync already in progress")
	}
	p.ch = ch
	banned := make(map[int32]bool, len(p.banned))
	for id := range p.banned {
		banned[id] = true
	}
	p.mu.Unlock()
	defer func() {
		p.mu.Lock()
		p.ch = nil
		p.mu.Unlock()
	}()

	start := time.Now()
	r, err := p.discover(ctx, f, peers, ch, banned)
	if r == nil || err != nil {
		return false, err
	}
	progressed, err := r.run(ctx, ch)

	p.mu.Lock()
	p.stats.Rounds++
	p.stats.PeersUsed = int64(len(r.contributed))
	p.stats.BytesFetched += r.bytes
	if el := time.Since(start).Seconds(); el > 0 {
		p.stats.BytesPerSec = float64(r.bytes) / el
	}
	p.mu.Unlock()
	return progressed, err
}

// ban records a donor caught serving bad payloads: dropped for this round
// and refused in future rounds.
func (p *Pool) ban(r *poolRound, id int32) {
	for _, d := range r.donors {
		if d.id == id {
			d.dropped = true
		}
	}
	p.mu.Lock()
	if !p.banned[id] {
		p.banned[id] = true
		p.stats.Banned++
	}
	p.mu.Unlock()
}

func (p *Pool) addRedo(n int64) {
	p.mu.Lock()
	p.stats.Redos += n
	p.mu.Unlock()
}

func (p *Pool) addSendFailure() {
	p.mu.Lock()
	p.stats.SendFailures++
	p.mu.Unlock()
}

// discover broadcasts envelope requests and waits for f+1 byte-identical
// envelopes (excluding each donor's tip claim). The agreeing donors become
// the round's donor set; the sync target is the (f+1)-th largest tip they
// claim, so no minority can inflate the goal. Returns (nil, nil) when the
// cluster has nothing newer than we do.
func (p *Pool) discover(ctx context.Context, f Fetcher, peers []int32, ch chan Response, banned map[int32]bool) (*poolRound, error) {
	asked := 0
	for _, peer := range peers {
		if banned[peer] {
			continue
		}
		if err := f.RequestEnvelope(peer); err == nil {
			asked++
		} else {
			p.addSendFailure()
		}
	}
	if asked == 0 {
		return nil, errors.New("catchup: no reachable donors")
	}
	need := len(peers)/3 + 1

	type offer struct {
		env  *Envelope
		tips []int64
		ids  []int32
	}
	// Quorum alone does not end discovery: the first f+1 matching envelopes
	// may come from the laggards (an idle stale replica answers faster than
	// a busy live donor), and a target computed from that subset can equal
	// our own height — two mutually-stale replicas would then certify each
	// other as "caught up" forever. After the quorum lands, keep draining
	// replies for a grace window (or until every asked peer answered):
	// stragglers can only raise the need-th-largest tip, never stretch it
	// beyond what f+1 donors claim.
	offers := make(map[crypto.Hash]*offer)
	responded := make(map[int32]bool)
	var won *offer
	var grace <-chan time.Time
	for won == nil || (grace != nil && len(responded) < asked) {
		select {
		case <-ctx.Done():
			if won != nil {
				grace = nil
				continue
			}
			return nil, ctx.Err()
		case <-grace:
			grace = nil
		case resp := <-ch:
			if resp.Kind != KindEnvelope || resp.Envelope == nil || banned[resp.Peer] || responded[resp.Peer] {
				continue
			}
			responded[resp.Peer] = true
			fp := resp.Envelope.Fingerprint()
			o := offers[fp]
			if o == nil {
				o = &offer{env: resp.Envelope}
				offers[fp] = o
			}
			o.tips = append(o.tips, resp.Envelope.Tip)
			o.ids = append(o.ids, resp.Peer)
			if won == nil && len(o.ids) >= need {
				won = o
				grace = time.After(p.cfg.PeerTimeout / 4)
			}
		}
	}

	// Target: the need-th largest tip among the winning group — at least
	// one correct donor claims it, so it is reachable; no smaller minority
	// can stretch it. Several envelopes may have reached quorum by now
	// (e.g. a stale quorum answered first, the live one during the grace
	// window): take the offer whose quorum-backed tip is highest.
	target := int64(-1)
	for _, o := range offers {
		if len(o.ids) < need {
			continue
		}
		tips := append([]int64(nil), o.tips...)
		for i := 1; i < len(tips); i++ {
			for j := i; j > 0 && tips[j] > tips[j-1]; j-- {
				tips[j], tips[j-1] = tips[j-1], tips[j]
			}
		}
		if t := tips[need-1]; t > target {
			target = t
			won = o
		}
	}
	env := won.env
	have := f.Height()
	if target < env.Height {
		target = env.Height
	}
	wantSnap := env.Height > have
	if !wantSnap && target <= have {
		return nil, nil // already caught up
	}
	if wantSnap && target == env.Height && need < 2 {
		// A single donor offering only a snapshot (no blocks beyond it to
		// verify against) cannot be checked; refuse rather than trust it.
		return nil, errors.New("catchup: unverifiable single-donor snapshot offer")
	}

	r := &poolRound{
		p:           p,
		f:           f,
		env:         env,
		contributed: make(map[int32]bool),
		wantSnap:    wantSnap,
		applyCursor: env.Height,
	}
	if !wantSnap {
		r.applyCursor = have
	}
	r.baseCursor = r.applyCursor
	for _, id := range won.ids {
		r.donors = append(r.donors, &donor{id: id})
	}
	if wantSnap {
		for i := range env.Snap.Chunks {
			r.items = append(r.items, &poolItem{kind: KindChunk, index: i})
		}
	}
	for from := r.applyCursor + 1; from <= target; from += int64(p.cfg.RangeBlocks) {
		to := from + int64(p.cfg.RangeBlocks) - 1
		if to > target {
			to = target
		}
		r.items = append(r.items, &poolItem{kind: KindRange, from: from, to: to})
	}
	return r, nil
}

// run drives the fetch loop until every item is applied or no donors
// remain.
func (r *poolRound) run(ctx context.Context, ch chan Response) (bool, error) {
	tick := r.p.cfg.PeerTimeout / 4
	if tick < 5*time.Millisecond {
		tick = 5 * time.Millisecond
	}
	ticker := time.NewTicker(tick)
	defer ticker.Stop()

	for {
		if err := r.advance(); err != nil {
			return r.progressed(), err
		}
		if r.done() {
			return r.progressed(), nil
		}
		r.assign()
		if r.liveDonors() == 0 {
			return r.progressed(), errors.New("catchup: all donors failed or banned")
		}
		select {
		case <-ctx.Done():
			return r.progressed(), ctx.Err()
		case resp := <-ch:
			r.handle(resp)
		case <-ticker.C:
			r.expire()
		}
	}
}

func (r *poolRound) progressed() bool {
	return r.installed || (r.installedOrNoSnap() && r.applyCursor > r.baseCursor)
}

func (r *poolRound) installedOrNoSnap() bool { return r.installed || !r.wantSnap }

func (r *poolRound) done() bool {
	for _, it := range r.items {
		if it.kind == KindChunk && it.state != itemDone {
			return false
		}
		if it.kind == KindRange && !it.applied {
			return false
		}
	}
	return r.installedOrNoSnap()
}

func (r *poolRound) liveDonors() int {
	n := 0
	for _, d := range r.donors {
		if !d.dropped {
			n++
		}
	}
	return n
}

// assign hands every pending item to the next live donor with spare
// in-flight budget, round-robin.
func (r *poolRound) assign() {
	for _, it := range r.items {
		if it.state != itemPending {
			continue
		}
		d := r.pickDonor()
		if d == nil {
			return // every live donor is at its cap
		}
		var err error
		switch it.kind {
		case KindChunk:
			err = r.f.RequestChunk(d.id, r.env.Height, it.index)
		case KindRange:
			err = r.f.RequestRange(d.id, it.from, it.to)
		}
		if err != nil {
			// Unreachable donor: drop it for the round, leave the item
			// pending for the next pick.
			d.dropped = true
			r.p.addSendFailure()
			continue
		}
		it.state = itemInFlight
		it.peer = d.id
		it.deadline = time.Now().Add(r.p.cfg.PeerTimeout)
		d.inflight++
	}
}

func (r *poolRound) pickDonor() *donor {
	for i := 0; i < len(r.donors); i++ {
		d := r.donors[(r.next+i)%len(r.donors)]
		if !d.dropped && d.inflight < r.p.cfg.InFlightPerPeer {
			r.next = (r.next + i + 1) % len(r.donors)
			return d
		}
	}
	return nil
}

func (r *poolRound) donorByID(id int32) *donor {
	for _, d := range r.donors {
		if d.id == id {
			return d
		}
	}
	return nil
}

// requeuePeer returns every in-flight item assigned to id to the pending
// pool.
func (r *poolRound) requeuePeer(id int32) {
	n := int64(0)
	for _, it := range r.items {
		if it.state == itemInFlight && it.peer == id {
			it.state = itemPending
			n++
		}
	}
	if d := r.donorByID(id); d != nil {
		d.inflight = 0
	}
	r.p.addRedo(n)
}

// expire requeues timed-out requests and demotes their donors: a strike
// per sweep with expired work, two consecutive strikes drops the donor for
// the round.
func (r *poolRound) expire() {
	now := time.Now()
	struck := make(map[int32]bool)
	for _, it := range r.items {
		if it.state != itemInFlight || now.Before(it.deadline) {
			continue
		}
		it.state = itemPending
		struck[it.peer] = true
		if d := r.donorByID(it.peer); d != nil && d.inflight > 0 {
			d.inflight--
		}
		r.p.addRedo(1)
	}
	for _, d := range r.donors {
		if d.dropped {
			continue
		}
		if struck[d.id] {
			d.strikes++
			if d.strikes >= 2 {
				d.dropped = true
			}
		} else if d.inflight == 0 {
			d.strikes = 0
		}
	}
}

// handle routes one donor reply into the round.
func (r *poolRound) handle(resp Response) {
	switch resp.Kind {
	case KindEnvelope:
		// A late envelope matching the winning fingerprint enlists another
		// donor mid-round.
		if resp.Envelope == nil || resp.Envelope.Fingerprint() != r.env.Fingerprint() {
			return
		}
		if r.donorByID(resp.Peer) == nil && !r.p.isBanned(resp.Peer) {
			r.donors = append(r.donors, &donor{id: resp.Peer})
		}
	case KindChunk:
		if resp.Height != r.env.Height {
			return // stale round
		}
		it := r.findInFlight(func(it *poolItem) bool {
			return it.kind == KindChunk && it.index == resp.Index && it.peer == resp.Peer
		})
		if it == nil {
			return
		}
		d := r.donorByID(resp.Peer)
		if d != nil && d.inflight > 0 {
			d.inflight--
		}
		if len(resp.Data) == 0 {
			// An explicit "don't have it": the donor agreed on the envelope
			// but has since pruned the snapshot. A strike, not a crime.
			it.state = itemPending
			if d != nil {
				d.strikes++
				if d.strikes >= 2 {
					d.dropped = true
				}
			}
			r.p.addRedo(1)
			return
		}
		if !r.env.Snap.VerifyChunk(resp.Index, resp.Data) {
			// A corrupt chunk is proof of a faulty donor, not bad luck:
			// ban it outright and reassign everything it holds (this item
			// is still marked in flight, so requeuePeer reclaims it too).
			r.p.ban(r, resp.Peer)
			r.requeuePeer(resp.Peer)
			return
		}
		it.data = resp.Data
		it.state = itemDone
		it.supplier = resp.Peer
		if d != nil {
			d.strikes = 0
		}
		r.contributed[resp.Peer] = true
		r.bytes += int64(len(resp.Data))
		r.p.mu.Lock()
		r.p.stats.ChunksFetched++
		r.p.mu.Unlock()
	case KindRange:
		it := r.findInFlight(func(it *poolItem) bool {
			return it.kind == KindRange && it.from == resp.From && it.peer == resp.Peer
		})
		if it == nil {
			return
		}
		d := r.donorByID(resp.Peer)
		if d != nil && d.inflight > 0 {
			d.inflight--
		}
		if !rangeShapeOK(it, resp.Blocks) {
			// Empty or malformed: the donor may simply have pruned the
			// range; strike it and try elsewhere.
			it.state = itemPending
			if d != nil {
				d.strikes++
				if d.strikes >= 2 {
					d.dropped = true
				}
			}
			r.p.addRedo(1)
			return
		}
		it.blocks = resp.Blocks
		it.state = itemDone
		it.supplier = resp.Peer
		if d != nil {
			d.strikes = 0
		}
		r.contributed[resp.Peer] = true
		for i := range resp.Blocks {
			r.bytes += int64(len(resp.Blocks[i].Body.BatchData))
		}
	}
}

func (r *poolRound) findInFlight(match func(*poolItem) bool) *poolItem {
	for _, it := range r.items {
		if it.state == itemInFlight && match(it) {
			return it
		}
	}
	return nil
}

// rangeShapeOK checks the cheap structural invariants of a range reply;
// proofs are verified at apply time.
func rangeShapeOK(it *poolItem, blocks []blockchain.Block) bool {
	if int64(len(blocks)) != it.to-it.from+1 {
		return false
	}
	for i := range blocks {
		if blocks[i].Header.Number != it.from+int64(i) {
			return false
		}
	}
	return true
}

// advance installs the snapshot once every chunk landed and its binding to
// the committed chain is established, then applies every contiguous
// verified range past the cursor. Failed verification bans the supplier
// and requeues its work.
func (r *poolRound) advance() error {
	if r.wantSnap && !r.installed {
		if !r.chunksDone() {
			return nil
		}
		// Bind the envelope to a committed block before Restore: the first
		// range past the snapshot must extend env.BlockHash with valid
		// decision proofs. (When no range exists the f+1 envelope quorum
		// with need ≥ 2 is the binding — enforced at discovery.)
		first := r.rangeAt(r.env.Height + 1)
		if first != nil {
			if first.state != itemDone {
				return nil // wait for the evidence range
			}
			if !first.verified {
				if err := r.f.VerifyBlocks(r.env, first.blocks); err != nil {
					r.rejectRange(first)
					return nil
				}
				first.verified = true
			}
		}
		state := make([]byte, 0, r.env.Snap.TotalBytes)
		for _, it := range r.items {
			if it.kind == KindChunk {
				state = append(state, it.data...)
			}
		}
		if err := r.f.InstallSnapshot(r.env, state); err != nil {
			// Our own store or metadata failed, not a donor: fatal.
			return fmt.Errorf("catchup: install snapshot: %w", err)
		}
		r.installed = true
		r.p.mu.Lock()
		r.p.stats.Installs++
		r.p.mu.Unlock()
	}
	if !r.installedOrNoSnap() {
		return nil
	}
	for {
		it := r.rangeAt(r.applyCursor + 1)
		if it == nil || it.state != itemDone {
			return nil
		}
		var err error
		if it.verified {
			err = r.f.ReplayBlocks(it.blocks)
		} else {
			err = r.f.ApplyBlocks(it.blocks)
		}
		if err != nil {
			// Structurally sound blocks with bad proofs: the supplier
			// forged them. Ban it and refetch from the survivors.
			r.rejectRange(it)
			return nil
		}
		it.applied = true
		r.applyCursor = it.to
		r.p.mu.Lock()
		r.p.stats.RangesFetched++
		r.p.stats.BlocksFetched += int64(len(it.blocks))
		r.p.mu.Unlock()
	}
}

// rejectRange bans the donor that supplied a range failing proof
// verification and requeues the range.
func (r *poolRound) rejectRange(it *poolItem) {
	r.p.ban(r, it.supplier)
	r.requeuePeer(it.supplier)
	it.state = itemPending
	it.blocks = nil
	it.verified = false
	r.p.addRedo(1)
}

func (r *poolRound) chunksDone() bool {
	for _, it := range r.items {
		if it.kind == KindChunk && it.state != itemDone {
			return false
		}
	}
	return true
}

func (r *poolRound) rangeAt(from int64) *poolItem {
	for _, it := range r.items {
		if it.kind == KindRange && it.from == from {
			return it
		}
	}
	return nil
}

func (p *Pool) isBanned(id int32) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.banned[id]
}
