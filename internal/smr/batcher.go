package smr

import (
	"sort"
	"sync"

	"smartchain/internal/crypto"
)

// Batcher accumulates verified client requests and hands out batches of at
// most maxBatch for the next consensus instance (paper §II-C1: "a leader
// replica proposing a batch of client operations"). It deduplicates by
// (client, seq), tracks which sequence numbers each client has executed so
// replayed or duplicate requests are never ordered twice, and exposes a
// readiness channel so a driver can select on "work available" alongside
// other events.
//
// A pipelined driver (ordering window W > 1) calls Next up to W times
// before any of the handed-out batches executes; handed-out requests stay
// in the dedupe set until MarkDelivered (committed) or Requeue (the
// instance was abandoned), so no request can appear in two concurrent
// batches. Outstanding reports how many requests are in that handed-out
// state.
//
// The executed record per client is a low watermark plus a sparse set of
// executed sequence numbers above it, NOT a plain high watermark: an
// asynchronous client keeps many invocations in flight on one identity,
// and with W concurrent instances seq 6 can commit before seq 5. A high
// watermark would then misclassify seq 5 as a replay forever; the sparse
// set keeps the gap open until seq 5 really executes. The state remains a
// pure function of the committed prefix (plus the restored checkpoint), so
// every replica judges freshness identically.
type Batcher struct {
	mu       sync.Mutex
	pending  []Request
	inFlight map[dedupeKey]bool
	handed   map[dedupeKey]bool       // handed out in a batch, not yet delivered
	executed map[int64]*executedMarks // sender ident → executed-seq record
	maxBatch int
	// gcHorizon is the session GC horizon in blocks: an executed record
	// untouched for more than this many committed blocks is evicted (its
	// client's "session" expired). 0 disables eviction. Eviction is driven
	// exclusively by committed block heights (MarkDeliveredAt), never by
	// wall time, so every replica evicts identically.
	gcHorizon int64
	closed    bool
	ready     chan struct{}
}

type dedupeKey struct {
	ident int64 // Request.Ident(): fingerprint of (ClientID, PubKey)
	seq   uint64
}

// seqWindowSpan bounds how far the sparse executed set may trail behind a
// client's newest executed sequence number. A sequence the client abandoned
// (cancelled context, crash) would otherwise leave a hole that pins the low
// watermark forever; once it falls this far behind it is deterministically
// declared stale — the same closure BFT-SMaRt's request watermarks apply.
const seqWindowSpan = 1 << 16

// executedMarks is one client's executed record: every seq ≤ low has
// executed or is permanently stale; above contains the executed seqs > low.
// lastSeen is the height of the last committed block that touched the
// record — a pure function of the committed prefix, so the session GC
// evicts the same records at the same heights on every replica.
type executedMarks struct {
	low      uint64
	max      uint64
	above    map[uint64]struct{}
	lastSeen int64
}

func (m *executedMarks) contains(seq uint64) bool {
	if seq <= m.low {
		return true
	}
	_, ok := m.above[seq]
	return ok
}

// mark records seq as executed and advances the contiguous low watermark,
// then closes the window: holes older than seqWindowSpan behind max become
// stale. Deterministic given the same mark sequence.
func (m *executedMarks) mark(seq uint64) {
	if m.contains(seq) {
		return
	}
	m.above[seq] = struct{}{}
	if seq > m.max {
		m.max = seq
	}
	for {
		if _, ok := m.above[m.low+1]; !ok {
			break
		}
		m.low++
		delete(m.above, m.low)
	}
	if m.max > seqWindowSpan && m.low < m.max-seqWindowSpan {
		m.low = m.max - seqWindowSpan
		for s := range m.above {
			if s <= m.low {
				delete(m.above, s)
			}
		}
	}
}

// Watermark is the serializable form of one client's executed record,
// shipped inside checkpoints and state transfer.
type Watermark struct {
	// Low is the contiguous watermark: every seq ≤ Low is executed/stale.
	Low uint64
	// Executed lists the executed seqs above Low, sorted ascending.
	Executed []uint64
	// LastSeen is the height of the last committed block that touched the
	// record; the session GC measures idleness from it. Serialized through
	// the checkpoint envelope so a replica restoring from a snapshot evicts
	// exactly as the replicas that executed those blocks live did.
	LastSeen int64
}

// NewBatcher creates a batcher with the given maximum batch size (the
// paper's experiments use 512).
func NewBatcher(maxBatch int) *Batcher {
	if maxBatch <= 0 {
		maxBatch = 512
	}
	return &Batcher{
		inFlight: make(map[dedupeKey]bool),
		handed:   make(map[dedupeKey]bool),
		executed: make(map[int64]*executedMarks),
		maxBatch: maxBatch,
		ready:    make(chan struct{}, 1),
	}
}

// marksFor returns (creating on demand) the executed record for a sender
// identity (Request.Ident()).
func (b *Batcher) marksFor(ident int64) *executedMarks {
	m := b.executed[ident]
	if m == nil {
		m = &executedMarks{above: make(map[uint64]struct{})}
		b.executed[ident] = m
	}
	return m
}

// executedLocked reports whether (ident, seq) has already executed.
func (b *Batcher) executedLocked(ident int64, seq uint64) bool {
	m := b.executed[ident]
	return m != nil && m.contains(seq)
}

// Add queues a verified request. Duplicates — same (client, seq) already
// pending, or a sequence number the client has already executed — are
// dropped. Returns whether it was queued.
func (b *Batcher) Add(req Request) bool {
	if !req.Orderable() {
		return false // unordered requests never enter the ordering queue
	}
	k := dedupeKey{req.Ident(), req.Seq}
	b.mu.Lock()
	if b.closed || b.inFlight[k] || b.executedLocked(k.ident, req.Seq) {
		b.mu.Unlock()
		return false
	}
	b.inFlight[k] = true
	b.pending = append(b.pending, req)
	b.mu.Unlock()
	b.signalReady()
	return true
}

func (b *Batcher) signalReady() {
	select {
	case b.ready <- struct{}{}:
	default:
	}
}

// Ready returns a channel that receives a token when requests may be
// pending. Consumers re-check with TryNext; spurious wakeups are possible.
func (b *Batcher) Ready() <-chan struct{} { return b.ready }

// TryNext returns a batch if any requests are pending, without blocking.
func (b *Batcher) TryNext() (Batch, bool) { return b.Next(false) }

// Next is TryNext, except that with full set it hands out only a batch of
// the maximum size and otherwise leaves the queue to grow.
func (b *Batcher) Next(full bool) (Batch, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed || len(b.pending) == 0 || full && len(b.pending) < b.maxBatch {
		return Batch{}, false
	}
	n := min(len(b.pending), b.maxBatch)
	batch := Batch{Requests: make([]Request, n)} // whoever proposes it stamps it
	copy(batch.Requests, b.pending[:n])
	for i := 0; i < n; i++ {
		b.handed[dedupeKey{batch.Requests[i].Ident(), batch.Requests[i].Seq}] = true
	}
	rest := copy(b.pending, b.pending[n:])
	// Zero the moved-from tail so the GC can reclaim request payloads.
	for i := rest; i < len(b.pending); i++ {
		b.pending[i] = Request{}
	}
	b.pending = b.pending[:rest]
	if rest > 0 {
		b.signalReady()
	}
	return batch, true
}

// MarkDelivered records that the given requests were ordered and executed:
// their dedupe slots are released, the per-client executed record absorbs
// their sequence numbers, and any pending copies (queued locally but
// ordered via another replica's proposal) are purged so they are never
// proposed again.
func (b *Batcher) MarkDelivered(reqs []Request) {
	b.MarkDeliveredAt(0, reqs)
}

// MarkDeliveredAt is MarkDelivered with the committing block's height: the
// touched executed records stamp it as their lastSeen, and records idle for
// more than the session GC horizon are evicted. Height 0 (the plain
// MarkDelivered path, used by the baselines) never advances lastSeen and
// never evicts.
func (b *Batcher) MarkDeliveredAt(height int64, reqs []Request) {
	if len(reqs) == 0 {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	delivered := make(map[dedupeKey]bool, len(reqs))
	for i := range reqs {
		if !reqs[i].Orderable() {
			// Only a Byzantine leader's decided value can carry an
			// unordered request; its UnorderedSeqBit sequence number must
			// never reach the executed record (whose staleness closure it
			// would weaponize against the signer's ordered sequence space).
			continue
		}
		k := dedupeKey{reqs[i].Ident(), reqs[i].Seq}
		delivered[k] = true
		delete(b.inFlight, k)
		delete(b.handed, k)
		m := b.marksFor(k.ident)
		m.mark(reqs[i].Seq)
		if height > m.lastSeen {
			m.lastSeen = height
		}
	}
	kept := b.pending[:0]
	for _, p := range b.pending {
		if !delivered[dedupeKey{p.Ident(), p.Seq}] {
			kept = append(kept, p)
		}
	}
	for i := len(kept); i < len(b.pending); i++ {
		b.pending[i] = Request{}
	}
	b.pending = kept
	b.gcExecutedLocked(height)
}

// Discard releases the dedupe slots of ordered requests that did not execute
// because their signature failed (VerifySequential checks it inside
// execution) and drops their queued copies. Unlike MarkDelivered it leaves
// the executed record alone: the request a forgery copied — same sender
// identity, same sequence number, another operation — can still be ordered.
// A slot an honest queued copy holds stays taken.
func (b *Batcher) Discard(reqs []Request) {
	if len(reqs) == 0 {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	forged := make(map[crypto.Hash]bool, len(reqs))
	for i := range reqs {
		forged[reqs[i].Digest()] = true
		delete(b.handed, dedupeKey{reqs[i].Ident(), reqs[i].Seq})
	}
	queued := make(map[dedupeKey]bool, len(b.pending))
	kept := b.pending[:0]
	for _, p := range b.pending {
		if !forged[p.Digest()] {
			kept = append(kept, p)
			queued[dedupeKey{p.Ident(), p.Seq}] = true
		}
	}
	for i := len(kept); i < len(b.pending); i++ {
		b.pending[i] = Request{}
	}
	b.pending = kept
	for i := range reqs {
		if k := (dedupeKey{reqs[i].Ident(), reqs[i].Seq}); !queued[k] {
			delete(b.inFlight, k)
		}
	}
}

// SetSessionGC configures the per-client session GC horizon in blocks
// (0 disables). Must be identical on every replica of a deployment: the
// horizon is part of what makes the executed records a deterministic
// function of the committed prefix.
func (b *Batcher) SetSessionGC(blocks int64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if blocks < 0 {
		blocks = 0
	}
	b.gcHorizon = blocks
}

// gcExecutedLocked evicts executed records idle past the horizon. A very
// long-lived deployment otherwise accumulates one record per client
// identity forever (ROADMAP follow-up from PR 3). An evicted client that
// reuses an ancient sequence number is no longer filtered — the horizon is
// the operator's replay-window-vs-memory trade, exactly as in BFT-SMaRt's
// session eviction.
func (b *Batcher) gcExecutedLocked(height int64) {
	if b.gcHorizon <= 0 || height <= b.gcHorizon {
		return
	}
	for ident, m := range b.executed {
		if height-m.lastSeen > b.gcHorizon {
			delete(b.executed, ident)
		}
	}
}

// Requeue returns requests to the front of the pending queue. Used when a
// proposed batch was not decided (leader change decided a different value):
// the requests are still valid and must eventually be ordered (liveness).
// Requests already executed are dropped.
func (b *Batcher) Requeue(reqs []Request) {
	if len(reqs) == 0 {
		return
	}
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return
	}
	merged := make([]Request, 0, len(reqs)+len(b.pending))
	for i := range reqs {
		delete(b.handed, dedupeKey{reqs[i].Ident(), reqs[i].Seq})
		if reqs[i].Orderable() && !b.executedLocked(reqs[i].Ident(), reqs[i].Seq) {
			merged = append(merged, reqs[i])
		}
	}
	merged = append(merged, b.pending...)
	b.pending = merged
	b.mu.Unlock()
	b.signalReady()
}

// Pending returns the number of queued requests.
func (b *Batcher) Pending() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.pending)
}

// Outstanding returns the number of requests handed out in batches and not
// yet delivered or requeued — with a pipelined driver, the requests inside
// the up-to-W concurrently ordered batches.
func (b *Batcher) Outstanding() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.handed)
}

// Fresh reports, for each request of an ordered batch, whether it executes
// for the first time: its (client, seq) is not in the client's executed
// record and did not appear earlier in the same batch. The commit path
// calls it BEFORE MarkDelivered absorbs the batch. The result is
// deterministic across replicas because the executed record is a pure
// function of the committed chain prefix (plus the restored checkpoint):
// with a pipelined window a request can be ordered twice — once in a
// leader-change re-proposal and once in a fresh slot — and every replica
// must skip the same second execution.
func (b *Batcher) Fresh(reqs []Request) []bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make([]bool, len(reqs))
	inBatch := make(map[dedupeKey]bool, len(reqs))
	for i := range reqs {
		if !reqs[i].Orderable() {
			continue // never fresh: must not execute via the ordered path
		}
		k := dedupeKey{reqs[i].Ident(), reqs[i].Seq}
		if inBatch[k] || b.executedLocked(k.ident, k.seq) {
			continue
		}
		out[i] = true
		inBatch[k] = true
	}
	return out
}

// Watermarks snapshots the per-client executed records for a checkpoint.
func (b *Batcher) Watermarks() map[int64]Watermark {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make(map[int64]Watermark, len(b.executed))
	for c, m := range b.executed {
		w := Watermark{Low: m.low, LastSeen: m.lastSeen, Executed: make([]uint64, 0, len(m.above))}
		for s := range m.above {
			w.Executed = append(w.Executed, s)
		}
		sort.Slice(w.Executed, func(i, j int) bool { return w.Executed[i] < w.Executed[j] })
		out[c] = w
	}
	return out
}

// RestoreWatermarks replaces the executed records when installing a
// checkpoint: replay after the snapshot must judge freshness exactly as the
// replicas that executed those blocks live did.
func (b *Batcher) RestoreWatermarks(w map[int64]Watermark) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.executed = make(map[int64]*executedMarks, len(w))
	for c, wm := range w {
		m := &executedMarks{low: wm.Low, max: wm.Low, lastSeen: wm.LastSeen,
			above: make(map[uint64]struct{}, len(wm.Executed))}
		for _, s := range wm.Executed {
			if s > m.low {
				m.above[s] = struct{}{}
				if s > m.max {
					m.max = s
				}
			}
		}
		b.executed[c] = m
	}
}

// Close rejects further adds and hand-outs and wakes whoever waits on Ready.
func (b *Batcher) Close() {
	b.mu.Lock()
	b.closed = true
	b.mu.Unlock()
	b.signalReady()
}
