package core

import (
	"bytes"
	"cmp"
	"slices"
	"sync"

	"smartchain/internal/crypto"
	"smartchain/internal/smr"
)

// unverifiedSet holds the ordered requests a replica has received under
// VerifyParallel and not verified, keyed by digest and never more than max:
// the batcher holds verified requests only (DESIGN.md "Who verifies an
// ordered request"). Each request leaves in exactly one of these ways: a
// proposal that passes names it (claim: into the batcher), it commits
// (drop), or a flush takes everything — the set reaches max (hold), the
// leader cuts a batch (take, in the window's next), a progress deadline asks
// for pending work (take). A flush verifies on the ordering driver and queues
// what holds. The set is not the batcher's queue: that one keeps one request
// per (client, sequence), so a forged copy under a victim's identity would
// shadow the honest request, where two digests are two entries here.
type unverifiedSet struct {
	mu    sync.Mutex
	max   int
	reqs  map[crypto.Hash]smr.Request
	ready chan struct{} // one coalesced wake per hold: the leader has work to cut
}

func newUnverifiedSet(max int) *unverifiedSet {
	return &unverifiedSet{max: max, reqs: make(map[crypto.Hash]smr.Request), ready: make(chan struct{}, 1)}
}

// hold keeps req and wakes the ordering driver. When the set reaches max it
// hands everything back as full, to be flushed.
func (u *unverifiedSet) hold(req smr.Request) (full []smr.Request) {
	u.mu.Lock()
	defer u.mu.Unlock()
	u.reqs[req.Digest()] = req
	if len(u.reqs) >= u.max {
		full = u.takeLocked()
	}
	select {
	case u.ready <- struct{}{}:
	default:
	}
	return full
}

// take empties the set, for a flush.
func (u *unverifiedSet) take() []smr.Request {
	u.mu.Lock()
	defer u.mu.Unlock()
	return u.takeLocked()
}

func (u *unverifiedSet) takeLocked() []smr.Request {
	if len(u.reqs) == 0 {
		return nil
	}
	out := make([]smr.Request, 0, len(u.reqs))
	for _, r := range u.reqs {
		out = append(out, r)
	}
	clear(u.reqs)
	// In client and sequence order (digest on a tie): the batch a flush
	// feeds is a function of the requests held, not of how the map iterates.
	slices.SortFunc(out, func(a, b smr.Request) int {
		if c := cmp.Or(cmp.Compare(a.ClientID, b.ClientID), cmp.Compare(a.Seq, b.Seq)); c != 0 {
			return c
		}
		da, db := a.Digest(), b.Digest()
		return bytes.Compare(da[:], db[:])
	})
	return out
}

// claim removes the requests of a proposal that passed and reports those it
// held: they are verified now.
func (u *unverifiedSet) claim(reqs []smr.Request) []smr.Request {
	u.mu.Lock()
	defer u.mu.Unlock()
	var out []smr.Request
	for i := 0; i < len(reqs) && len(u.reqs) > 0; i++ {
		d := reqs[i].Digest()
		if _, ok := u.reqs[d]; ok {
			delete(u.reqs, d)
			out = append(out, reqs[i])
		}
	}
	return out
}

// drop forgets the requests of a committed block.
func (u *unverifiedSet) drop(reqs []smr.Request) {
	u.mu.Lock()
	defer u.mu.Unlock()
	for i := 0; i < len(reqs) && len(u.reqs) > 0; i++ {
		delete(u.reqs, reqs[i].Digest())
	}
}

// size is how many requests the set holds.
func (u *unverifiedSet) size() int {
	u.mu.Lock()
	defer u.mu.Unlock()
	return len(u.reqs)
}

// admissible is the application's admission check on an ordered request
// whose signature holds: Application.VerifyOp for an application operation.
func (n *Node) admissible(r *smr.Request) bool {
	if len(r.Op) == 0 || r.Op[0] != OpApp {
		return true
	}
	unwrapped := *r
	unwrapped.Op = r.Op[1:]
	return n.app.VerifyOp(&unwrapped)
}

// admit verifies requests that waited unverified and queues the ones that
// hold: a flush, run on the ordering driver. The leader runs one before each
// cut (beginOrdering's next): its proposal passes the check its followers make.
func (n *Node) admit(reqs []smr.Request) {
	if len(reqs) == 0 {
		return
	}
	for i, ok := range n.verifier.VerifyBatch(reqs) {
		if ok && n.admissible(&reqs[i]) {
			n.batcher.Add(reqs[i])
		}
	}
}

// validProposal is the consensus Validate hook, run on a verification-pool worker
// for a PROPOSE (consensus.PreVerify) and inline otherwise: the value must
// decode as a batch of orderable requests, so a batch smuggling an unordered
// request never gathers an honest vote quorum. Under VerifyParallel, where
// no replica verified them on arrival, every request envelope must also
// hold — all of them in one batch equation — and every application
// operation pass Application.VerifyOp: a leader that orders a forged request
// gets no WRITE quorum and is deposed by the progress timeout. The requests
// of a proposal that passes are verified, and the ones held unverified move
// to the batcher, so a follower that later leads proposes them without a
// second check.
func (n *Node) validProposal(_ int64, value []byte) bool {
	if len(value) == 0 {
		return true
	}
	if n.cfg.Verify != smr.VerifyParallel {
		return smr.ValidBatchValue(value)
	}
	batch, err := smr.DecodeBatch(value)
	if err != nil {
		return false
	}
	for i := range batch.Requests {
		if !batch.Requests[i].Orderable() || !n.admissible(&batch.Requests[i]) {
			return false
		}
	}
	for _, ok := range n.verifier.VerifyBatch(batch.Requests) {
		if !ok {
			return false
		}
	}
	for _, r := range n.unverified.claim(batch.Requests) {
		n.batcher.Add(r)
	}
	return true
}
