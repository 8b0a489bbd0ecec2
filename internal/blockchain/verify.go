package blockchain

import (
	"errors"
	"fmt"

	"smartchain/internal/crypto"
	"smartchain/internal/view"
)

// Verification errors.
var (
	ErrVerifyLinkage   = errors.New("blockchain: hash chain broken")
	ErrVerifyRoots     = errors.New("blockchain: commitment roots mismatch")
	ErrVerifyProof     = errors.New("blockchain: consensus proof invalid")
	ErrVerifyCert      = errors.New("blockchain: block certificate invalid")
	ErrVerifyUpdate    = errors.New("blockchain: view update invalid")
	ErrVerifyUncertifd = errors.New("blockchain: block missing required certificate")
)

// VerifyOptions controls chain verification.
type VerifyOptions struct {
	// RequireCerts demands a valid certificate on every block (strong
	// variant, 0-Persistence). Genesis is exempt: it is the trust anchor.
	RequireCerts bool
	// AllowUncertifiedTail permits the last N blocks to lack certificates
	// even when RequireCerts is set: the PERSIST round of the newest block
	// is asynchronous, so a correct replica's live chain legitimately has
	// an uncertified tip.
	AllowUncertifiedTail int
}

// Summary reports what a successful verification established.
type Summary struct {
	// Height is the number of the last verified block.
	Height int64
	// Blocks is the total number of verified blocks (including genesis).
	Blocks int
	// Transactions counts transactions across all verified blocks.
	Transactions int
	// ViewChanges counts reconfiguration blocks.
	ViewChanges int
	// Certified counts blocks carrying a valid certificate.
	Certified int
	// FinalView is the view in force after the last block.
	FinalView view.View
}

// VerifyChain performs full third-party verification of a chain, the log
// self-verifiability the paper's Observation 2 calls for: VerifyRange's
// walk from the genesis anchor — hash linkage, commitment roots, consensus
// decision proofs and view updates, tracking the consortium's key material
// across reconfiguration blocks starting from nothing but the genesis block
// — and then every block certificate present, under the view its block was
// created in.
func VerifyChain(blocks []Block, opts VerifyOptions) (Summary, error) {
	if len(blocks) == 0 {
		return Summary{}, ErrEmptyChain
	}
	a, err := GenesisAnchor(&blocks[0])
	if err != nil {
		return Summary{}, err
	}
	tail := blocks[1:]
	if opts.RequireCerts {
		for i := 0; i < len(tail)-opts.AllowUncertifiedTail; i++ {
			if tail[i].Cert.Count() == 0 {
				return Summary{}, fmt.Errorf("%w: block %d", ErrVerifyUncertifd, tail[i].Header.Number)
			}
		}
	}
	out, created, txs, err := walk(a, tail)
	if err != nil {
		return Summary{}, err
	}

	sum := Summary{Height: out.Number, Blocks: len(blocks), Transactions: txs, FinalView: out.View}
	for i := range tail {
		b := &tail[i]
		if b.Body.Kind == KindReconfig {
			sum.ViewChanges++
		}
		if b.Cert.Count() == 0 {
			continue
		}
		// The block certificate (PERSIST quorum). Counting is tolerant of
		// signatures the verifier cannot check (announced-not-recorded
		// keys); the quorum must be met by valid ones.
		hh := b.Header.Hash()
		if b.Cert.CountValid(created[i], ContextPersist, hh, PersistDigest(hh)) < created[i].CertQuorum() {
			return Summary{}, fmt.Errorf("%w: block %d", ErrVerifyCert, b.Header.Number)
		}
		sum.Certified++
	}
	return sum, nil
}

// applyViewUpdate validates a reconfiguration against the current view and
// the known permanent keys, returning the next view. It enforces the
// paper's §V-D rules: the update carries at least newN − newF consensus
// keys, each certified by the permanent key of a member of the new view,
// and all certified for exactly the new view ID (fresh keys — the
// forgetting protocol means old-view keys are useless here).
func applyViewUpdate(cur view.View, permanent map[int32]crypto.PublicKey, u *ViewUpdate) (view.View, error) {
	if u.NewViewID != cur.ID+1 {
		return view.View{}, fmt.Errorf("view id %d does not follow %d", u.NewViewID, cur.ID)
	}
	// Register joining replicas' permanent keys (first seen here).
	for i := range u.Joining {
		j := &u.Joining[i]
		if existing, ok := permanent[j.ID]; ok && !existing.Equal(j.PermanentPub) {
			return view.View{}, fmt.Errorf("replica %d permanent key conflict", j.ID)
		}
		permanent[j.ID] = j.PermanentPub
	}
	next := view.New(u.NewViewID, u.Members, nil)
	if next.N() == 0 {
		return view.View{}, fmt.Errorf("empty membership")
	}
	keys := make(map[int32]crypto.PublicKey, len(u.Keys))
	for _, ck := range u.Keys {
		if ck.ViewID != u.NewViewID {
			return view.View{}, fmt.Errorf("key of %d certified for view %d, want %d", ck.Signer, ck.ViewID, u.NewViewID)
		}
		if !next.Contains(ck.Signer) {
			return view.View{}, fmt.Errorf("key signer %d not in new view", ck.Signer)
		}
		if _, dup := keys[ck.Signer]; dup {
			return view.View{}, fmt.Errorf("duplicate key for %d", ck.Signer)
		}
		pp, ok := permanent[ck.Signer]
		if !ok {
			return view.View{}, fmt.Errorf("no permanent key for %d", ck.Signer)
		}
		if err := ck.Verify(pp); err != nil {
			return view.View{}, err
		}
		keys[ck.Signer] = ck.ConsensusPub
	}
	if len(keys) < next.JoinQuorum() {
		return view.View{}, fmt.Errorf("only %d certified keys, need %d", len(keys), next.JoinQuorum())
	}
	return view.New(u.NewViewID, u.Members, keys), nil
}
