package smr

import (
	"runtime"
	"sync"

	"smartchain/internal/crypto"
)

// VerifyMode selects the transaction-signature verification strategy of
// Table I. Where verification happens determines whether it serializes with
// execution (sequential, inside the state machine) or exploits multiple
// cores (parallel, in a verification pool before ordering — BFT-SMaRt's
// "message verification pool of threads").
type VerifyMode int

const (
	// VerifyParallel verifies request signatures in a worker pool before
	// the request enters the pending queue — at the leader; a follower
	// checks a proposal's requests in one batch before it votes. The
	// default.
	VerifyParallel VerifyMode = iota + 1
	// VerifySequential verifies inside the execution path, one request at
	// a time (the naive strategy of Table I's left half).
	VerifySequential
	// VerifyNone skips signature verification (the "N"/"Sy" configurations
	// of Fig. 6).
	VerifyNone
)

// String implements fmt.Stringer for experiment labels.
func (m VerifyMode) String() string {
	switch m {
	case VerifyParallel:
		return "parallel"
	case VerifySequential:
		return "sequential"
	case VerifyNone:
		return "none"
	default:
		return "unknown"
	}
}

// VerifierPool verifies request signatures on a configurable number of
// workers. In parallel mode the pool has ~GOMAXPROCS workers; sequential
// mode is modeled as a pool of one worker, which preserves ordering
// semantics while serializing the CPU cost exactly like verifying inside
// the state machine would.
type VerifierPool struct {
	mode    VerifyMode
	workers int
	jobs    chan verifyJob
	wg      sync.WaitGroup

	// mu orders Submit's channel send against Close's channel close: a send
	// holds the read lock, Close takes the write lock before closing.
	mu     sync.RWMutex
	closed bool
}

type verifyJob struct {
	req Request
	out func(Request, bool)
}

// maxDrain is the most jobs one worker takes into one batch equation.
const maxDrain = 64

// NewVerifierPool starts a pool for the given mode. workers ≤ 0 picks a
// default based on the mode. Close must be called to release the workers.
func NewVerifierPool(mode VerifyMode, workers int) *VerifierPool {
	if mode == VerifySequential {
		// Sequential mode is the serialized-CPU baseline; extra workers
		// would change what it measures.
		workers = 1
	} else if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	p := &VerifierPool{
		mode:    mode,
		workers: workers,
		// Room for a burst of every client's window: a full queue blocks the
		// dispatch goroutine that submits.
		jobs: make(chan verifyJob, 1024),
	}
	for i := 0; i < workers; i++ {
		p.wg.Add(1)
		go p.worker()
	}
	return p
}

// worker takes one job, then whatever else is queued without waiting (up to
// maxDrain jobs), and decides them all in one batch equation.
func (p *VerifierPool) worker() {
	defer p.wg.Done()
	jobs := make([]verifyJob, 0, maxDrain)
	reqs := make([]Request, 0, maxDrain)
	for job := range p.jobs {
		jobs = append(jobs[:0], job)
	drain:
		for len(jobs) < maxDrain {
			select {
			case j, ok := <-p.jobs:
				if !ok {
					break drain
				}
				jobs = append(jobs, j)
			default:
				break drain
			}
		}
		reqs = reqs[:0]
		for i := range jobs {
			reqs = append(reqs, jobs[i].req)
		}
		for i, ok := range p.verify(reqs, 1) {
			jobs[i].out(jobs[i].req, ok)
		}
		clear(jobs) // drop the callbacks and requests until the next burst
		clear(reqs)
	}
}

// Submit queues req for verification; out is called with the verdict from a
// worker goroutine. Returns false if the pool is closed. A full queue blocks
// until a worker takes a job; the workers keep draining while Close waits
// for such a send.
func (p *VerifierPool) Submit(req Request, out func(Request, bool)) bool {
	p.mu.RLock()
	defer p.mu.RUnlock()
	if p.closed {
		return false
	}
	p.jobs <- verifyJob{req: req, out: out}
	return true
}

// VerifyBatch synchronously verifies the signatures of reqs according to the
// mode, returning per-request verdicts, by the path the workers take: one
// batch equation per chunk, spread over the pool's worker count. A replica
// checks a proposal's requests and flushes the ones it held unverified
// through it.
func (p *VerifierPool) VerifyBatch(reqs []Request) []bool {
	return p.verify(reqs, p.workers)
}

// verify decides reqs through a crypto.BatchVerifier on up to workers
// goroutines: the all-or-nothing Verify covers the common all-honest batch,
// and a failed batch falls back to per-item VerifyEach so one rotten
// signature cannot discard its honest siblings. VerifyNone passes everything.
func (p *VerifierPool) verify(reqs []Request, workers int) []bool {
	verdicts := make([]bool, len(reqs))
	if p.mode != VerifyNone {
		bv := crypto.NewBatchVerifier(len(reqs))
		for i := range reqs {
			bv.Add(reqs[i].PubKey, ContextRequest, reqs[i].signedPortion(), reqs[i].Sig)
		}
		if !bv.Verify(workers) {
			return bv.VerifyEach(workers)
		}
	}
	for i := range verdicts {
		verdicts[i] = true
	}
	return verdicts
}

// Mode returns the pool's verification mode.
func (p *VerifierPool) Mode() VerifyMode { return p.mode }

// Close stops the workers. Pending jobs are completed first.
func (p *VerifierPool) Close() {
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
