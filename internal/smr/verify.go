package smr

import "smartchain/internal/crypto"

// VerifyMode selects the transaction-signature verification strategy of
// Table I. Where verification happens determines whether it serializes with
// execution (sequential, inside the state machine) or exploits multiple
// cores (parallel, before ordering — BFT-SMaRt's "message verification pool
// of threads", here batch equations split across the cores).
type VerifyMode int

const (
	// VerifyParallel verifies request signatures before ordering, in
	// batch equations split across the cores: a leader checks the requests
	// it cuts into a proposal, a follower a proposal's requests before it
	// votes. The default.
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

// VerifierPool applies a verification mode to a crypto.VerifyPool, the
// replica's one pool of verification workers: request envelopes and reads
// queue there and drain into one batch equation. In every mode a Submit
// leaves the submitting goroutine; only the check differs (VerifyNone
// passes).
type VerifierPool struct {
	mode    VerifyMode
	workers int
	pool    *crypto.VerifyPool // nil until Start
}

// NewVerifierPool returns the verifier for the given mode. It starts no
// goroutine: VerifyBatch runs on the caller's, and Submit needs the workers
// Start launches.
func NewVerifierPool(mode VerifyMode, workers int) *VerifierPool {
	return &VerifierPool{mode: mode, workers: workers}
}

// Start launches the pool's workers goroutines (≤ 0: GOMAXPROCS). Close must
// be called to release them.
func (p *VerifierPool) Start() { p.pool = crypto.NewVerifyPool(p.workers, 0) }

// Submit queues req for verification; out is called with the verdict from a
// worker goroutine. Returns false if the pool is not started or closed. A
// full queue blocks until a worker takes a job; the workers keep draining
// while Close waits for such a send.
func (p *VerifierPool) Submit(req Request, out func(Request, bool)) bool {
	if p.mode == VerifyNone {
		return p.pool.Go(func() { out(req, true) })
	}
	return p.pool.Submit(req.PubKey, ContextRequest, req.signedPortion(), req.Sig, func(ok bool) { out(req, ok) })
}

// VerifyBatch synchronously verifies the signatures of reqs according to the
// mode, returning per-request verdicts: one batch equation per chunk on up to
// GOMAXPROCS goroutines, the all-or-nothing Verify covering the common
// all-honest batch, and a failed batch falling back to per-item VerifyEach
// so one rotten signature cannot discard its honest siblings. VerifyNone
// passes everything. A replica checks a proposal's requests and flushes the
// ones it held unverified through it.
func (p *VerifierPool) VerifyBatch(reqs []Request) []bool {
	if p.mode == VerifyNone {
		verdicts := make([]bool, len(reqs))
		for i := range verdicts {
			verdicts[i] = true
		}
		return verdicts
	}
	bv := crypto.NewBatchVerifier(len(reqs))
	for i := range reqs {
		bv.Add(reqs[i].PubKey, ContextRequest, reqs[i].signedPortion(), reqs[i].Sig)
	}
	return bv.Verdicts(0)
}

// Pool is the crypto pool underneath (nil until Start), for the replica's
// other off-loop work: proposal vetting.
func (p *VerifierPool) Pool() *crypto.VerifyPool { return p.pool }

// Close stops the workers, if started. Pending jobs are completed first.
func (p *VerifierPool) Close() { p.pool.Close() }
