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
	// the request enters the pending queue. The default.
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
	stopped chan struct{}
}

type verifyJob struct {
	req Request
	out func(Request, bool)
}

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
		jobs:    make(chan verifyJob, workers*4),
		stopped: make(chan struct{}),
	}
	for i := 0; i < workers; i++ {
		p.wg.Add(1)
		go p.worker()
	}
	return p
}

func (p *VerifierPool) worker() {
	defer p.wg.Done()
	for job := range p.jobs {
		ok := p.mode == VerifyNone || job.req.VerifySig() == nil
		job.out(job.req, ok)
	}
}

// Submit queues req for verification; out is called with the verdict from a
// worker goroutine. Returns false if the pool is closed.
func (p *VerifierPool) Submit(req Request, out func(Request, bool)) bool {
	select {
	case <-p.stopped:
		return false
	default:
	}
	select {
	case p.jobs <- verifyJob{req: req, out: out}:
		return true
	case <-p.stopped:
		return false
	}
}

// VerifyBatch synchronously verifies all requests of a batch according to
// the mode, returning per-request verdicts. No replica calls it: a follower
// does not yet check the requests inside a proposal, and the benchmark's smr
// probe (bench/probes.go) is its only caller. The checks are aggregated
// through a crypto.BatchVerifier: the all-or-nothing Verify fast path covers
// the common all-honest batch, and a failed batch falls back to per-item
// VerifyEach so one rotten signature cannot discard its honest siblings.
func (p *VerifierPool) VerifyBatch(reqs []Request) []bool {
	verdicts := make([]bool, len(reqs))
	if p.mode == VerifyNone {
		for i := range verdicts {
			verdicts[i] = true
		}
		return verdicts
	}
	workers := p.workers
	if p.mode == VerifySequential {
		workers = 1
	}
	bv := crypto.NewBatchVerifier(len(reqs))
	for i := range reqs {
		bv.Add(reqs[i].PubKey, ContextRequest, reqs[i].signedPortion(), reqs[i].Sig)
	}
	if bv.Verify(workers) {
		for i := range verdicts {
			verdicts[i] = true
		}
		return verdicts
	}
	return bv.VerifyEach(workers)
}

// Mode returns the pool's verification mode.
func (p *VerifierPool) Mode() VerifyMode { return p.mode }

// Close stops the workers. Pending jobs are completed first.
func (p *VerifierPool) Close() {
	select {
	case <-p.stopped:
		return
	default:
	}
	close(p.stopped)
	close(p.jobs)
	p.wg.Wait()
}
