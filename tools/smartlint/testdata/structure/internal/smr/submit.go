package smr

// VerifierPool queues request envelopes on the replica's pool.
type VerifierPool struct{ queued int }

// Submit queues one request for verification.
func (p *VerifierPool) Submit(req []byte) { p.queued += len(req) }
