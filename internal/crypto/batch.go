package crypto

import (
	"runtime"
	"sync"
	"sync/atomic"

	"smartchain/internal/crypto/internal/edwards25519"
)

// minChunk is the fewest signatures one batch equation is given when a batch
// is split across workers: below about 16 the shared doublings no longer pay
// for a goroutine.
const minChunk = 16

// batchItem is one deferred verification.
type batchItem struct {
	pub     PublicKey
	context string
	msg     []byte
	sig     []byte
}

// BatchVerifier accumulates signature checks and verifies them together, in
// the style of ed25519consensus's VerifyBatch: Verify decides the whole batch
// by one cofactored batch equation per chunk (edwards25519.BatchEquation, in
// which the signatures of one key share one term, so a chunk costs less the
// fewer keys signed it), VerifyEach is the per-item fallback that isolates
// bad signatures when a batch fails. Both decide by Verify's rule, so a
// signature's verdict never depends on whether it was checked alone or
// beside others.
//
// A BatchVerifier is not safe for concurrent Add; verify methods are
// internally parallel.
type BatchVerifier struct {
	items []batchItem
}

// NewBatchVerifier creates a verifier expecting about capacity items.
func NewBatchVerifier(capacity int) *BatchVerifier {
	if capacity < 0 {
		capacity = 0
	}
	return &BatchVerifier{items: make([]batchItem, 0, capacity)}
}

// Add defers one signature check. Slices are retained, not copied — callers
// must not mutate them before verification.
func (b *BatchVerifier) Add(pub PublicKey, context string, msg, sig []byte) {
	b.items = append(b.items, batchItem{pub: pub, context: context, msg: msg, sig: sig})
}

// Reset empties the verifier, retaining capacity.
func (b *BatchVerifier) Reset() { b.items = b.items[:0] }

// Verify checks every deferred signature. The items are split into chunks of
// at least minChunk across up to workers goroutines (0 = GOMAXPROCS), one
// batch equation per chunk. It is all-or-nothing: false means at least one
// signature is invalid; use VerifyEach to find out which.
func (b *BatchVerifier) Verify(workers int) bool {
	n := len(b.items)
	switch n {
	case 0:
		return true
	case 1:
		return verifyItem(&b.items[0])
	}
	chunks := clampWorkers(workers, n/minChunk)
	size := (n + chunks - 1) / chunks
	var failed atomic.Bool
	var wg sync.WaitGroup
	for lo := size; lo < n; lo += size {
		wg.Add(1)
		go func(items []batchItem) {
			defer wg.Done()
			if !verifyChunk(items) {
				failed.Store(true)
			}
		}(b.items[lo:min(lo+size, n)])
	}
	ok := verifyChunk(b.items[:size])
	wg.Wait()
	return ok && !failed.Load()
}

// verifyChunk decides items by one batch equation. Items are grouped by the
// key's 32 bytes, so each distinct encoding is decoded once and is one term
// of the equation; two encodings of one point stay two terms, which decides
// the same. An item that does not decode fails the chunk, as it fails Verify.
func verifyChunk(items []batchItem) bool {
	n := len(items)
	A, owner := make([]edwards25519.Point, 0, n), make([]int, n)
	keys := make(map[[PublicKeySize]byte]int, n)
	R := make([]edwards25519.Point, n)
	s, k := make([]edwards25519.Scalar, n), make([]edwards25519.Scalar, n)
	for i := range items {
		it := &items[i]
		if !sigScalars(it.pub, it.context, it.msg, it.sig, &s[i], &k[i]) {
			return false
		}
		key := [PublicKeySize]byte(it.pub) // sigScalars checked the length
		j, seen := keys[key]
		if !seen {
			j = len(A)
			A = A[:j+1]
			if _, err := A[j].SetBytes(it.pub); err != nil {
				return false
			}
			keys[key] = j
		}
		owner[i] = j
		if _, err := R[i].SetBytes(it.sig[:32]); err != nil {
			return false
		}
	}
	ok, err := edwards25519.BatchEquation(A, owner, R, s, k)
	if err != nil { // no randomness to batch with: one at a time
		for i := range items {
			if !verifyItem(&items[i]) {
				return false
			}
		}
		return true
	}
	return ok
}

// Verdicts decides every deferred signature: true for all of them when Verify
// passes, the per-item VerifyEach only when it fails. A quorum's votes and a
// certificate's signatures are checked this way, so a signature costs its
// share of one equation unless a bad one is among them.
func (b *BatchVerifier) Verdicts(workers int) []bool {
	if !b.Verify(workers) {
		return b.VerifyEach(workers)
	}
	out := make([]bool, len(b.items))
	for i := range out {
		out[i] = true
	}
	return out
}

// VerifyEach checks every deferred signature and reports per-item results
// (no early abort). This is the fallback path after a failed Verify: one
// rotten signature in a request batch must not discard its honest siblings.
func (b *BatchVerifier) VerifyEach(workers int) []bool {
	n := len(b.items)
	out := make([]bool, n)
	if n == 0 {
		return out
	}
	workers = clampWorkers(workers, n)
	if workers == 1 {
		for i := range b.items {
			out[i] = verifyItem(&b.items[i])
		}
		return out
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				out[i] = verifyItem(&b.items[i])
			}
		}()
	}
	wg.Wait()
	return out
}

func verifyItem(it *batchItem) bool {
	return Verify(it.pub, it.context, it.msg, it.sig)
}

func clampWorkers(workers, n int) int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	return workers
}

// VerifyPool is a replica's one pool of verification workers, the mechanism
// that takes signature checks off the dispatch goroutine and the consensus
// event loop. It runs two kinds of job: one signature check (Submit — a
// request envelope) and one whole job (Go, TryGo — a proposal's vetting, a
// read). A worker takes one job and whatever else is queued, up to maxDrain,
// decides every signature among them in one batch equation, gives each its
// own verdict, then runs the whole jobs. TryGo never blocks: when the pool is
// saturated (or closed) it reports false and the caller runs the job inline,
// so correctness never depends on the pool keeping up.
type VerifyPool struct {
	jobs chan poolJob
	wg   sync.WaitGroup

	// mu orders a send against Close's channel close: a send holds the read
	// lock, Close takes the write lock before closing.
	mu     sync.RWMutex
	closed bool
}

// poolJob is a signature check (done set) or a whole job (run set).
type poolJob struct {
	item batchItem
	done func(ok bool)
	run  func()
}

// maxDrain is the most jobs one worker takes at once, so the most signatures
// in one batch equation.
const maxDrain = 64

// NewVerifyPool starts workers goroutines (0 = GOMAXPROCS) draining a queue
// of queueDepth jobs (0 = a default sized for a burst of every client's
// window).
func NewVerifyPool(workers, queueDepth int) *VerifyPool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if queueDepth <= 0 {
		queueDepth = 1024
	}
	p := &VerifyPool{jobs: make(chan poolJob, queueDepth)}
	p.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go p.worker()
	}
	return p
}

// worker takes one job, then whatever else is queued without waiting, and
// decides the signatures among them in one equation before it runs the rest.
func (p *VerifyPool) worker() {
	defer p.wg.Done()
	bv := NewBatchVerifier(maxDrain)
	done := make([]func(bool), 0, maxDrain)
	var runs []func()
	for job := range p.jobs {
		for taken := 1; ; taken++ {
			if job.run != nil {
				runs = append(runs, job.run)
			} else {
				bv.items = append(bv.items, job.item)
				done = append(done, job.done)
			}
			if taken == maxDrain || !p.poll(&job) {
				break
			}
		}
		for i, ok := range bv.Verdicts(1) {
			done[i](ok)
		}
		for _, run := range runs {
			run()
		}
		clear(bv.items) // drop the messages and callbacks until the next burst
		clear(done)
		clear(runs)
		bv.Reset()
		done, runs = done[:0], runs[:0]
	}
}

// poll takes a queued job into job without waiting.
func (p *VerifyPool) poll(job *poolJob) bool {
	select {
	case j, ok := <-p.jobs:
		*job = j
		return ok
	default:
		return false
	}
}

// Submit queues one verification; done runs on a pool worker with the
// result. A full queue blocks until a worker takes a job. Returns false (and
// does not run done) when the pool is closed.
func (p *VerifyPool) Submit(pub PublicKey, context string, msg, sig []byte, done func(ok bool)) bool {
	return p.send(poolJob{item: batchItem{pub: pub, context: context, msg: msg, sig: sig}, done: done}, true)
}

// Go queues job to run on a pool worker, waiting for room. Returns false
// (and does not run job) when the pool is closed.
func (p *VerifyPool) Go(job func()) bool {
	return p.send(poolJob{run: job}, true)
}

// TryGo is Go that never blocks: it also reports false when the pool is
// saturated.
func (p *VerifyPool) TryGo(job func()) bool {
	return p.send(poolJob{run: job}, false)
}

// send queues job, waiting for room if wait is set. The workers keep
// draining while Close waits for such a send.
func (p *VerifyPool) send(job poolJob, wait bool) bool {
	if p == nil {
		return false
	}
	p.mu.RLock()
	defer p.mu.RUnlock()
	if p.closed {
		return false
	}
	if wait {
		p.jobs <- job
		return true
	}
	select {
	case p.jobs <- job:
		return true
	default:
		return false
	}
}

// Close drains the pool; queued jobs still complete.
func (p *VerifyPool) Close() {
	if p == nil {
		return
	}
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	p.mu.Unlock()
	close(p.jobs)
	p.wg.Wait()
}
