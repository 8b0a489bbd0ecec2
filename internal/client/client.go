// Package client implements the SMARTCHAIN client proxy (paper §II-B): it
// signs operations, broadcasts them to the current view, and waits for
// matching replies from a dissemination Byzantine quorum ⌈(n+f+1)/2⌉ —
// the condition under which the operation is externally durable and its
// result trustworthy despite up to f Byzantine replicas.
//
// One Proxy multiplexes any number of concurrent invocations over a single
// endpoint: a demultiplexing receive loop routes each reply to its
// in-flight call by sequence number, so open-loop load generators and
// pipelined applications do not need one proxy (or one connection) per
// outstanding request. Three invocation shapes are offered:
//
//   - Invoke: ordered through consensus, blocking, context-aware.
//   - InvokeAsync: ordered, returns a Future immediately.
//   - InvokeUnordered: read-only, served directly from replica state
//     without consuming a consensus instance; the reply quorum alone
//     makes the result trustworthy (BFT-SMaRt's unordered requests).
//
// The proxy is self-healing: every reply piggybacks a view tag
// (view ID, epoch, membership hash, executed height), and when a quorum of
// tags disagrees with the proxy's membership it fetches the installed view
// with a view-query message, adopts it, and re-targets every in-flight
// call — reconfigurations need no manual SetMembers call. Unordered reads
// are session-consistent: the proxy tracks its highest reply-observed
// height as a read floor, replicas park a read until they reach it, and the
// moment a quorum of matching replies can no longer form — replicas answered
// from different block boundaries, or too many are behind the floor — the
// proxy falls back to an ordered read.
//
// Context deadlines are authoritative: a deadline on ctx bounds the call
// exactly; when ctx carries none, the proxy's WithTimeout default applies.
package client

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"smartchain/internal/crypto"
	"smartchain/internal/smr"
	"smartchain/internal/transport"
	"smartchain/internal/view"
)

// Errors returned by invocations.
var (
	ErrTimeout = errors.New("client: quorum of matching replies not reached")
	ErrClosed  = errors.New("client: proxy closed")
	// ErrReadBehind reports that an unordered read can no longer gather a
	// quorum of matching replies: the replicas answered from different block
	// boundaries, or could not reach the session read floor within their
	// park window. InvokeUnordered handles it internally by falling back to
	// an ordered read.
	ErrReadBehind = errors.New("client: read floor not reached at a quorum")
)

// Proxy is one client identity bound to a transport endpoint. It is safe
// for concurrent use: many goroutines may invoke through one Proxy, and
// each call is matched to its replies by sequence number. The Proxy owns
// the endpoint; Close releases both.
type Proxy struct {
	id      int64
	key     *crypto.KeyPair
	ep      transport.Endpoint
	timeout time.Duration
	retry   time.Duration

	mu        sync.Mutex
	members   []int32
	memberSet map[int32]bool
	f         int
	quorum    int
	// viewID is the highest view this proxy has confirmed (-1 until the
	// first reply tag or view adoption teaches it one).
	viewID int64
	// readFloor is the highest executed height observed in the view tags of
	// completed calls — the session floor attached to unordered reads.
	readFloor int64
	// mismatch tracks members whose reply tags hash differently from our
	// membership; f+1 distinct reporters trigger a view query (fewer could
	// be pure Byzantine noise).
	mismatch map[int32]bool
	// viewVotes collects MsgViewInfo responses: responder → membership
	// hash of the reported view (agreement is counted by hash alone).
	viewVotes map[int32]crypto.Hash
	lastQuery time.Time
	// hashCache memoizes MembershipHash(hashCacheID, members) — in steady
	// state every reply tag carries the same view ID, and recomputing the
	// hash per reply under p.mu would serialize high-rate reply streams.
	hashCacheID  int64
	hashCacheVal crypto.Hash
	hashCacheOK  bool
	seq          uint64 // ordered sequence space
	useq         uint64 // unordered sequence space (UnorderedSeqBit added)
	calls        map[uint64]*call
	closed       bool

	stop      chan struct{} // closes the retransmit loop
	recvDone  chan struct{}
	stopOnce  sync.Once
	closeOnce sync.Once
}

// call is one in-flight invocation awaiting its reply quorum.
type call struct {
	seq       uint64
	payload   []byte      // encoded signed request, for (re)transmission
	digest    crypto.Hash // of the signed request; replies must echo it
	unordered bool
	quorum    int
	// sent is when the payload last went out (register, a retransmit tick,
	// a re-targeting at a new membership); the tick re-sends only calls
	// that have waited a full retry interval since.
	sent time.Time
	// votes holds ONE vote per replica, its latest word: a replica that
	// re-answers (a retransmitted read served from a newer block, a behind
	// report after a park expired) moves its vote, so it can never count
	// toward two candidate quorums at once.
	votes map[int32]vote

	// result/err are written once, under Proxy.mu, before done closes.
	done   chan struct{}
	result []byte
	err    error
}

// vote is one replica's latest reply to a call.
type vote struct {
	behind bool   // a read-floor miss: heard from, but no result to count
	result string // result bytes
	height int64  // executed height from the reply's view tag
}

// tally returns the result with the most votes and its vote count.
func (c *call) tally() (best string, n int) {
	counts := make(map[string]int, 1)
	for _, v := range c.votes {
		if v.behind {
			continue
		}
		counts[v.result]++
		if counts[v.result] > n {
			best, n = v.result, counts[v.result]
		}
	}
	return best, n
}

// Option configures a Proxy.
type Option func(*Proxy)

// WithTimeout sets the per-invocation deadline applied when the caller's
// context has none (default 10 s). A context deadline always wins.
func WithTimeout(d time.Duration) Option {
	return func(p *Proxy) { p.timeout = d }
}

// WithRetry sets the retransmission interval (default 1 s).
func WithRetry(d time.Duration) Option {
	return func(p *Proxy) { p.retry = d }
}

// New creates a proxy and starts its receive demultiplexer. The endpoint's
// ID doubles as the client ID; members is the current view membership (a
// bootstrap hint — the proxy tracks reconfigurations on its own from reply
// view tags). The proxy takes ownership of the endpoint — Close the proxy
// to release it.
func New(ep transport.Endpoint, key *crypto.KeyPair, members []int32, opts ...Option) *Proxy {
	p := &Proxy{
		id:        int64(ep.ID()),
		key:       key,
		ep:        ep,
		timeout:   10 * time.Second,
		retry:     time.Second,
		viewID:    -1,
		mismatch:  make(map[int32]bool),
		viewVotes: make(map[int32]crypto.Hash),
		calls:     make(map[uint64]*call),
		stop:      make(chan struct{}),
		recvDone:  make(chan struct{}),
	}
	p.SetMembers(members)
	for _, o := range opts {
		o(p)
	}
	go p.receiveLoop()
	go p.retransmitLoop()
	return p
}

// SetMembers installs a view membership hint. Since the proxy discovers
// reconfigurations on its own from reply view tags, calling it after a
// reconfiguration is no longer required; it remains exported for tests and
// for bootstrapping a proxy onto a different deployment. In-flight calls
// are re-targeted at the new membership exactly as with a discovered view.
func (p *Proxy) SetMembers(members []int32) {
	p.mu.Lock()
	payloads := p.installMembersLocked(-1, members)
	targets := append([]int32(nil), p.members...)
	p.mu.Unlock()
	p.resend(payloads, targets)
}

// installMembersLocked replaces the membership (and, when id ≥ 0, records
// the confirmed view ID) and re-targets every in-flight call at the new
// view: the new quorum is installed, counted replies from processes the
// new view does not contain are pruned (a quorum must consist of CURRENT
// members only), calls the pruned counts already satisfy complete, and the
// payloads of the rest are returned for retransmission to the new members
// — so a call started before a reconfiguration can neither hang on an
// unreachable old quorum (e.g. 4 matching replies wanted when the view
// shrank to a state only 3 replicas will ever re-answer from) nor keep
// broadcasting to dead replicas. Unordered calls restart their counts
// entirely: their replies are only meaningful against one fixed
// membership. Caller holds p.mu.
func (p *Proxy) installMembersLocked(id int64, members []int32) [][]byte {
	// Canonicalize (sort + dedup) before deriving anything: MembershipHash
	// dedup-sorts internally, so a Byzantine view-info vote listing members
	// twice would hash-match the honest votes — installing its RAW list
	// would inflate n (and thus the quorum) past what the distinct replicas
	// can ever satisfy, wedging the proxy.
	ms := make([]int32, len(members))
	copy(ms, members)
	sort.Slice(ms, func(i, j int) bool { return ms[i] < ms[j] })
	dedup := ms[:0]
	for i, m := range ms {
		if i == 0 || m != ms[i-1] {
			dedup = append(dedup, m)
		}
	}
	ms = dedup
	n := len(ms)
	f := view.FaultTolerance(n)
	p.members = ms
	p.memberSet = make(map[int32]bool, n)
	for _, m := range ms {
		p.memberSet[m] = true
	}
	p.f = f
	p.quorum = view.ByzantineQuorum(n, f)
	p.viewID = id
	p.mismatch = make(map[int32]bool)
	p.viewVotes = make(map[int32]crypto.Hash)
	p.hashCacheOK = false

	now := time.Now()
	payloads := make([][]byte, 0, len(p.calls))
	for _, c := range p.calls {
		c.quorum = p.quorum
		if c.unordered {
			c.votes = make(map[int32]vote)
			c.sent = now
			payloads = append(payloads, c.payload)
			continue
		}
		// Pruning a vote prunes its height too: the floor's (f+1)-th-highest
		// Byzantine bound holds per view, and an ex-member's retained height
		// would let Byzantine entries from two views stack up inside the top
		// f+1.
		for voter := range c.votes {
			if !p.memberSet[voter] {
				delete(c.votes, voter)
			}
		}
		if best, n := c.tally(); n >= c.quorum {
			p.completeLocked(c, best)
		} else {
			c.sent = now
			payloads = append(payloads, c.payload)
		}
	}
	return payloads
}

// completeLocked finishes a call with the winning result key. Caller holds
// p.mu.
func (p *Proxy) completeLocked(c *call, k string) {
	delete(p.calls, c.seq)
	c.result = []byte(k)
	// The (f+1)-th highest tag height among the completing quorum becomes
	// the session read floor: at least one HONEST quorum member reported a
	// height at or above it, so a state at the floor includes this call's
	// effects (read-your-writes) and everything read so far (monotonic
	// reads) — while the ≤ f Byzantine members of the quorum, who can
	// occupy at most f of the top f+1 heights, cannot inflate it to an
	// unreachable value that would park every future session read into the
	// ordered fallback.
	hs := make([]int64, 0, len(c.votes))
	for _, v := range c.votes {
		if !v.behind && v.result == k {
			hs = append(hs, v.height)
		}
	}
	sort.Slice(hs, func(i, j int) bool { return hs[i] > hs[j] })
	if len(hs) > p.f {
		if floor := hs[p.f]; floor > p.readFloor {
			p.readFloor = floor
		}
	}
	close(c.done)
}

// resend retransmits call payloads to the given members (no-op on empty
// inputs). Called WITHOUT p.mu held.
func (p *Proxy) resend(payloads [][]byte, members []int32) {
	for _, payload := range payloads {
		for _, m := range members {
			_ = p.ep.Send(m, smr.MsgRequest, payload) //smartlint:allow errdrop retransmission path; the next tick retries unreachable members
		}
	}
}

// ID returns the client's process ID.
//
//smartlint:allow structure test hook: core's cluster tests key their client signing keys by proxy ID
func (p *Proxy) ID() int64 { return p.id }

// Members returns the membership the proxy currently targets.
//
//smartlint:allow structure test hook: the self-healing tests in client and core assert the view the proxy discovered
func (p *Proxy) Members() []int32 {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]int32, len(p.members))
	copy(out, p.members)
	return out
}

// ViewID returns the view number the proxy has confirmed (-1 before any
// reply taught it one).
//
//smartlint:allow structure core's self-healing test asserts the view the proxy adopted
func (p *Proxy) ViewID() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.viewID
}

// ReadFloor returns the current session read floor (the highest executed
// height observed in reply view tags).
//
//smartlint:allow structure core's read-your-writes test asserts the floor a write's replies taught
func (p *Proxy) ReadFloor() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.readFloor
}

// Close detaches the proxy: pending and future invocations fail with
// ErrClosed, the receive and retransmit loops exit, and the endpoint is
// closed. Safe to call multiple times.
func (p *Proxy) Close() {
	p.closeOnce.Do(func() {
		p.signalStop()
		_ = p.ep.Close() // unblocks the receive loop, which fails the calls
		<-p.recvDone
	})
}

// signalStop ends the retransmit loop (idempotent). It fires from Close
// and from the receive loop's exit path, so an endpoint closed underneath
// the proxy (network teardown, dropped connection) cannot leak the ticker
// goroutine.
func (p *Proxy) signalStop() {
	p.stopOnce.Do(func() { close(p.stop) })
}

// receiveLoop is the demultiplexer: every inbound reply is routed to the
// in-flight call with its sequence number, and a call completes the moment
// some result value accumulates a quorum of distinct replicas. View-query
// answers feed the self-healing membership tracker.
func (p *Proxy) receiveLoop() {
	defer close(p.recvDone)
	for m := range p.ep.Receive() {
		switch m.Type {
		case smr.MsgReply:
			p.onReply(m)
		case smr.MsgViewInfo:
			p.onViewInfo(m)
		}
	}
	// Endpoint closed: fail everything still in flight and stop the
	// retransmit loop (the endpoint may have been closed underneath us,
	// without Proxy.Close).
	p.signalStop()
	p.mu.Lock()
	p.closed = true
	for seq, c := range p.calls {
		delete(p.calls, seq)
		c.err = ErrClosed
		close(c.done)
	}
	p.mu.Unlock()
}

// onReply routes one reply to its call and folds its view tag into the
// membership tracker.
func (p *Proxy) onReply(m transport.Message) {
	rep, err := smr.DecodeReply(m.Payload)
	if err != nil || rep.ClientID != p.id || rep.ReplicaID != m.From {
		return
	}
	var query []int32
	p.mu.Lock()
	if !p.memberSet[m.From] {
		// Only current members may answer: a replica a completed
		// reconfiguration removed (possibly compromised since) cannot
		// contribute to any quorum.
		p.mu.Unlock()
		return
	}
	c := p.calls[rep.Seq]
	if c == nil || rep.Digest != c.digest {
		// No such call, or the reply answers a request this proxy
		// never signed (a third party reusing our ClientID/Seq):
		// only replies echoing OUR request's digest may count.
		p.mu.Unlock()
		return
	}

	// View tracking: does the replier's membership hash ours? Tags whose
	// hash equals MembershipHash(tag view, our members) come from a view
	// with our exact membership — adopt a greater view ID silently. A
	// foreign hash means the group reconfigured (or the replier is stale);
	// f+1 distinct reporters make it worth a view query.
	// A zero tag marks a sender that does not implement view piggybacking
	// (the baseline replicas): it feeds no view tracking — recording it as
	// a mismatch would have the proxy broadcasting view queries forever —
	// and, lacking a membership attestation, it can never count toward an
	// unordered read quorum.
	same := false
	if !rep.Tag.MemberHash.IsZero() {
		if !p.hashCacheOK || p.hashCacheID != rep.Tag.ViewID {
			p.hashCacheID = rep.Tag.ViewID
			p.hashCacheVal = view.MembershipHash(rep.Tag.ViewID, p.members)
			p.hashCacheOK = true
		}
		same = rep.Tag.MemberHash == p.hashCacheVal
		if same {
			if rep.Tag.ViewID > p.viewID {
				p.viewID = rep.Tag.ViewID
			}
			delete(p.mismatch, m.From)
		} else {
			p.mismatch[m.From] = true
			if len(p.mismatch) > p.f {
				query = p.queryTargetsLocked()
			}
		}
	}

	// A behind report (read-floor miss) only means something for an
	// unordered call, and unordered calls only hear replies tagged with our
	// exact membership: the read quorum must be a quorum of the CURRENT
	// view, not of whatever configuration the replier last saw. (Ordered
	// calls keep counting — their result was committed by consensus; the tag
	// mismatch already armed the view refresh above.)
	behind := rep.Flags&smr.ReplyFlagBehind != 0
	if (c.unordered && !same) || (behind && !c.unordered) {
		p.mu.Unlock()
		p.sendViewQuery(query)
		return
	}

	c.votes[m.From] = vote{behind: behind, result: string(rep.Result), height: rep.Tag.Height}
	best, n := c.tally()
	switch {
	case n >= c.quorum:
		p.completeLocked(c, best)
	case c.unordered && n+len(p.members)-len(c.votes) < c.quorum:
		// Even if every member not yet heard from sided with the largest
		// group, no quorum of matching replies would form: the replicas
		// answered from different block boundaries (or are behind the
		// floor). Waiting cannot help — fail the call now so
		// InvokeUnordered re-issues the read as an ordered request. With
		// one vote per replica, f liars cannot force this while 2f+1
		// correct replies can still match.
		delete(p.calls, c.seq)
		c.err = ErrReadBehind
		close(c.done)
	}
	p.mu.Unlock()
	p.sendViewQuery(query)
}

// queryTargetsLocked decides whether a view query should fire now
// (rate-limited to one per half retry interval) and returns its targets.
// Caller holds p.mu.
func (p *Proxy) queryTargetsLocked() []int32 {
	now := time.Now()
	if now.Sub(p.lastQuery) < p.retry/2 {
		return nil
	}
	p.lastQuery = now
	out := make([]int32, len(p.members))
	copy(out, p.members)
	return out
}

// sendViewQuery broadcasts a view query to the given members (nil = no-op).
// Called WITHOUT p.mu held.
func (p *Proxy) sendViewQuery(members []int32) {
	for _, m := range members {
		_ = p.ep.Send(m, smr.MsgViewQuery, nil) //smartlint:allow errdrop best-effort view probe; re-sent on the retransmit ticker
	}
}

// onViewInfo records one member's answer to a view query and adopts the
// reported view once f+1 current members agree on a newer (ID, members)
// pair: at least one of them is correct, and a correct member reports its
// installed view faithfully — even a member the new view removed (it
// installs the view that retires it before stepping back).
func (p *Proxy) onViewInfo(m transport.Message) {
	vi, err := smr.DecodeViewInfo(m.Payload)
	if err != nil {
		return
	}
	var payloads [][]byte
	var targets []int32
	p.mu.Lock()
	if !p.memberSet[m.From] || vi.ViewID <= p.viewID {
		p.mu.Unlock()
		return
	}
	h := view.MembershipHash(vi.ViewID, vi.Members)
	p.viewVotes[m.From] = h
	agree := 0
	for _, vh := range p.viewVotes {
		if vh == h {
			agree++
		}
	}
	if agree >= p.f+1 {
		payloads = p.installMembersLocked(vi.ViewID, vi.Members)
		targets = append([]int32(nil), p.members...)
	}
	p.mu.Unlock()
	p.resend(payloads, targets)
}

// retransmitLoop periodically rebroadcasts every in-flight request that has
// gone a full retry interval without a send — one shared ticker, not one
// timer per call, so thousands of outstanding invocations cost one
// goroutine. A call sent just before a tick waits for the next one: every
// copy costs each replica two signature checks before it is dropped as a
// duplicate. Targets are re-read from the live membership every tick, so
// calls follow the proxy across reconfigurations. The tick also re-issues the view query while mismatch
// evidence is outstanding: the reply-driven trigger is edge-triggered and
// its rate limiter can swallow the edge — and replicas never re-reply to
// an executed request, so without this level-triggered retry a call whose
// replies all arrived inside one rate-limit window would never learn the
// new view. The tick is for lost messages and silent members only: an
// unordered read whose replies diverged does not wait for it (onReply fails
// it into the ordered fallback as soon as a quorum is out of reach).
func (p *Proxy) retransmitLoop() {
	t := time.NewTicker(p.retry)
	defer t.Stop()
	for {
		select {
		case <-p.stop:
			return
		case <-t.C:
			p.retransmit(time.Now())
		}
	}
}

// retransmit is one tick of retransmitLoop at time now.
func (p *Proxy) retransmit(now time.Time) {
	p.mu.Lock()
	members := p.members
	var payloads [][]byte
	for _, c := range p.calls {
		if now.Sub(c.sent) >= p.retry {
			c.sent = now
			payloads = append(payloads, c.payload)
		}
	}
	var query []int32
	if len(p.mismatch) > p.f {
		p.lastQuery = now
		query = append([]int32(nil), members...)
	}
	p.mu.Unlock()
	for _, payload := range payloads {
		for _, m := range members {
			_ = p.ep.Send(m, smr.MsgRequest, payload) //smartlint:allow errdrop retransmit tick; continued silence triggers another tick
		}
	}
	p.sendViewQuery(query)
}

// register signs a request and enters it into the demux table.
func (p *Proxy) register(op []byte, unordered bool) (*call, error) {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil, ErrClosed
	}
	var seq uint64
	var req smr.Request
	var err error
	if unordered {
		p.useq++
		useq := p.useq
		seq = useq | smr.UnorderedSeqBit
		floor := p.readFloor
		p.mu.Unlock()
		req, err = smr.NewSignedUnordered(p.id, useq, floor, op, p.key)
	} else {
		p.seq++
		seq = p.seq
		p.mu.Unlock()
		req, err = smr.NewSignedRequest(p.id, seq, op, p.key)
	}
	if err != nil {
		return nil, fmt.Errorf("client: sign: %w", err)
	}
	c := &call{
		seq:       seq,
		payload:   req.Encode(),
		digest:    req.Digest(),
		unordered: unordered,
		done:      make(chan struct{}),
		votes:     make(map[int32]vote),
	}
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil, ErrClosed
	}
	c.quorum = p.quorum
	c.sent = time.Now()
	p.calls[seq] = c
	members := p.members
	p.mu.Unlock()
	for _, m := range members {
		_ = p.ep.Send(m, smr.MsgRequest, c.payload) //smartlint:allow errdrop initial broadcast; the retransmit ticker recovers losses
	}
	return c, nil
}

// abandon removes a call whose caller gave up (deadline, cancellation).
func (p *Proxy) abandon(c *call) {
	p.mu.Lock()
	delete(p.calls, c.seq)
	p.mu.Unlock()
}

// callContext applies the deadline policy: the caller's deadline is
// authoritative; without one, the proxy's configured timeout bounds the
// call so an unreachable view can never block forever.
func (p *Proxy) callContext(ctx context.Context) (context.Context, context.CancelFunc) {
	if _, ok := ctx.Deadline(); ok {
		return ctx, func() {}
	}
	return context.WithTimeout(ctx, p.timeout)
}

// Future is the handle to one asynchronous invocation.
type Future struct {
	done   chan struct{}
	result []byte
	err    error
}

// Result blocks until the invocation completes and returns its outcome.
func (f *Future) Result() ([]byte, error) {
	<-f.done
	return f.result, f.err
}

// invokeAsync is the common open-loop path for ordered and unordered ops.
func (p *Proxy) invokeAsync(ctx context.Context, op []byte, unordered bool) *Future {
	f := &Future{done: make(chan struct{})}
	cctx, cancel := p.callContext(ctx)
	if err := cctx.Err(); err != nil {
		// Already cancelled/expired: fail before signing or broadcasting,
		// so "returned ctx.Err()" reliably implies "was never submitted".
		cancel()
		f.err = err
		close(f.done)
		return f
	}
	c, err := p.register(op, unordered)
	if err != nil {
		cancel()
		f.err = err
		close(f.done)
		return f
	}
	go func() {
		defer cancel()
		select {
		case <-c.done:
			f.result, f.err = c.result, c.err
		case <-cctx.Done():
			p.abandon(c)
			select {
			case <-c.done:
				// Both were ready and select picked the deadline: the
				// quorum result arrived — deliver it, don't discard it.
				f.result, f.err = c.result, c.err
			default:
				// The proxy's fallback deadline (no caller deadline, no
				// cancellation) keeps reporting the classic quorum
				// timeout; a caller-imposed deadline or cancellation
				// surfaces as the context error so the caller can tell
				// its own bound fired.
				if ctx.Err() != nil {
					f.err = ctx.Err()
				} else {
					f.err = ErrTimeout
				}
			}
		}
		close(f.done)
	}()
	return f
}

// Invoke submits one ordered operation and blocks until a Byzantine quorum
// of replicas return the same result, retransmitting periodically. The
// returned bytes are that matching result.
func (p *Proxy) Invoke(ctx context.Context, op []byte) ([]byte, error) {
	return p.invokeAsync(ctx, op, false).Result()
}

// InvokeAsync submits one ordered operation without blocking; the returned
// Future completes when the reply quorum (or the deadline) is reached. Any
// number of futures may be in flight on one proxy.
func (p *Proxy) InvokeAsync(ctx context.Context, op []byte) *Future {
	return p.invokeAsync(ctx, op, false)
}

// InvokeUnordered submits a read-only operation that skips consensus:
// replicas execute it directly against their current state and the call
// completes when a Byzantine quorum return the same result. The request
// carries the proxy's session read floor, so the result reflects every
// write this proxy has seen acknowledged (read-your-writes) — a replica
// behind the floor parks the read until it catches up, and if a quorum
// reports it cannot, the proxy transparently falls back to an ordered read
// (which consumes a consensus instance, exactly like BFT-SMaRt's
// ordered-fallback hierarchical reads).
func (p *Proxy) InvokeUnordered(ctx context.Context, op []byte) ([]byte, error) {
	return p.InvokeUnorderedAsync(ctx, op).Result()
}

// InvokeUnorderedAsync is InvokeUnordered returning a Future.
func (p *Proxy) InvokeUnorderedAsync(ctx context.Context, op []byte) *Future {
	inner := p.invokeAsync(ctx, op, true)
	f := &Future{done: make(chan struct{})}
	go func() {
		res, err := inner.Result()
		if errors.Is(err, ErrReadBehind) {
			res, err = p.invokeAsync(ctx, op, false).Result()
		}
		f.result, f.err = res, err
		close(f.done)
	}()
	return f
}
