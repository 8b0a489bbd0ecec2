package blockchain

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"smartchain/internal/consensus"
	"smartchain/internal/crypto"
	"smartchain/internal/view"
)

// RangeAnchor pins the committed chain point a fetched block range must
// extend: the header hash and back-links of the last trusted block, plus
// the view and permanent keys in force after it. Catch-up starts from an
// anchor it already trusts (its own tip, or a quorum-agreed snapshot
// envelope) and rolls the anchor forward across each verified range; an
// auditor starts from GenesisAnchor.
type RangeAnchor struct {
	Number         int64
	Hash           crypto.Hash
	LastReconfig   int64
	LastCheckpoint int64
	View           view.View
	Permanent      map[int32]crypto.PublicKey
}

// GenesisAnchor parses a genesis block into the anchor the rest of its
// chain extends: view 0 and the genesis permanent keys.
func GenesisAnchor(b *Block) (RangeAnchor, error) {
	g, err := ParseGenesisBlock(b)
	if err != nil {
		return RangeAnchor{}, err
	}
	return RangeAnchor{
		Hash:           b.Hash(),
		LastCheckpoint: -1,
		View:           g.InitialView(),
		Permanent:      g.PermanentKeys(),
	}, nil
}

// VerifyRange checks that blocks form a valid continuation of the anchor:
// hash linkage, back-links, commitment roots, consensus decision proofs
// under the view in force at each block, and view updates across
// reconfigurations. Certificates are not looked at: fetched tails
// legitimately lack PERSIST quorums (VerifyChain checks the ones present).
//
// On success the returned anchor describes the chain point after the last
// block; the input anchor (including its Permanent map) is not mutated.
func VerifyRange(a RangeAnchor, blocks []Block) (RangeAnchor, error) {
	out, _, _, err := walk(a, blocks)
	return out, err
}

// walk is VerifyRange. It also returns, for VerifyChain, the view each
// block was created in (whose keys sign its proof and certificate) and the
// number of transactions in the range. On error it returns a unchanged.
func walk(a RangeAnchor, blocks []Block) (RangeAnchor, []view.View, int, error) {
	out := a
	out.Permanent = make(map[int32]crypto.PublicKey, len(a.Permanent))
	for id, k := range a.Permanent {
		out.Permanent[id] = k
	}
	created := make([]view.View, len(blocks))
	txs := 0

	// Sequential pass: structure, linkage, roots, and view tracking. These
	// are cheap; only the signature checks are worth fanning out.
	for i := range blocks {
		b := &blocks[i]
		n := b.Header.Number
		if n != out.Number+1 || b.Header.PrevHash != out.Hash {
			return a, nil, 0, fmt.Errorf("%w: block %d does not extend %d", ErrVerifyLinkage, n, out.Number)
		}
		if b.Header.LastReconfig != out.LastReconfig || b.Header.LastCheckpoint > n {
			return a, nil, 0, fmt.Errorf("%w: block %d back-links", ErrVerifyLinkage, n)
		}
		if b.Header.LastCheckpoint < out.LastCheckpoint {
			return a, nil, 0, fmt.Errorf("%w: block %d checkpoint link regressed", ErrVerifyLinkage, n)
		}
		out.LastCheckpoint = b.Header.LastCheckpoint

		batch, err := b.Body.Batch()
		if err != nil {
			return a, nil, 0, fmt.Errorf("%w: block %d: %v", ErrVerifyRoots, n, err)
		}
		if b.Header.TxRoot != TxRootOf(&batch) || b.Header.ResultsRoot != ResultsRootOf(b.Body.Results) {
			return a, nil, 0, fmt.Errorf("%w: block %d", ErrVerifyRoots, n)
		}
		txs += len(batch.Requests)
		created[i] = out.View

		if b.Body.Kind == KindReconfig {
			if b.Body.Update == nil {
				return a, nil, 0, fmt.Errorf("%w: block %d missing update", ErrVerifyUpdate, n)
			}
			next, err := applyViewUpdate(out.View, out.Permanent, b.Body.Update)
			if err != nil {
				return a, nil, 0, fmt.Errorf("%w: block %d: %v", ErrVerifyUpdate, n, err)
			}
			out.View = next
			out.LastReconfig = n
		}
		out.Number = n
		out.Hash = b.Header.Hash()
	}

	// Decision proofs — the dominant cost, a quorum of Ed25519
	// verifications per block — on up to GOMAXPROCS goroutines, the
	// caller's among them, each taking the next unchecked block. Workers
	// stop taking blocks after any failure, but every block below a failed
	// one was taken before it and is finished, so the error returned is the
	// lowest failing block's on any schedule.
	errs := make([]error, len(blocks))
	var next atomic.Int64
	var failed atomic.Bool
	check := func() {
		for !failed.Load() {
			i := int(next.Add(1)) - 1
			if i >= len(blocks) {
				return
			}
			b, v := &blocks[i], created[i]
			digest := crypto.HashBytes(b.Body.BatchData)
			if err := consensus.VerifyDecisionProof(v, b.Body.ConsensusID, b.Body.Epoch, digest, &b.Body.Proof, v.Quorum()); err != nil {
				errs[i] = fmt.Errorf("%w: block %d: %v", ErrVerifyProof, b.Header.Number, err)
				failed.Store(true)
			}
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < min(runtime.GOMAXPROCS(0), len(blocks)); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			check()
		}()
	}
	check()
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return a, nil, 0, err
		}
	}
	return out, created, txs, nil
}
