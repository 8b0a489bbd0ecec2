package reconfig

import (
	"fmt"
	"sync"

	"smartchain/internal/crypto"
)

// KeyStore manages a replica's consensus keys across views, implementing
// the forgetting protocol (paper §V-D): one fresh key pair per view,
// certified by the permanent key, with the previous view's private key
// erased the moment the new view is installed. After erasure the replica —
// and any adversary that compromises it later — cannot sign anything on
// behalf of a past view.
type KeyStore struct {
	self      int32
	permanent *crypto.KeyPair
	generate  func() (*crypto.KeyPair, error)

	mu       sync.Mutex
	viewID   int64
	current  *crypto.KeyPair
	prepared map[int64]*crypto.KeyPair // pre-generated keys for future views
}

// NewKeyStore creates a key store whose current consensus key is `initial`
// for view `viewID` (for view 0 this is the key registered in the genesis
// block). The generator defaults to crypto.GenerateKeyPair; tests inject a
// deterministic one.
func NewKeyStore(self int32, permanent *crypto.KeyPair, viewID int64, initial *crypto.KeyPair, generate func() (*crypto.KeyPair, error)) *KeyStore {
	if generate == nil {
		generate = crypto.GenerateKeyPair
	}
	return &KeyStore{
		self:      self,
		permanent: permanent,
		generate:  generate,
		viewID:    viewID,
		current:   initial,
		prepared:  make(map[int64]*crypto.KeyPair),
	}
}

// Current returns the consensus key for the installed view and that view's
// ID.
func (k *KeyStore) Current() (*crypto.KeyPair, int64) {
	k.mu.Lock()
	defer k.mu.Unlock()
	return k.current, k.viewID
}

// PrepareFor returns a certified consensus public key for a future view,
// generating the pair on first call for that view. The private half stays
// inside the store until Install promotes it (or a later Install for a
// different view discards it).
func (k *KeyStore) PrepareFor(viewID int64) (crypto.CertifiedKey, error) {
	k.mu.Lock()
	defer k.mu.Unlock()
	if viewID <= k.viewID {
		return crypto.CertifiedKey{}, fmt.Errorf("reconfig: view %d already installed (at %d)", viewID, k.viewID)
	}
	kp, ok := k.prepared[viewID]
	if !ok {
		fresh, err := k.generate()
		if err != nil {
			return crypto.CertifiedKey{}, fmt.Errorf("generate consensus key: %w", err)
		}
		kp = fresh
		k.prepared[viewID] = kp
	}
	return crypto.CertifyConsensusKey(k.permanent, k.self, viewID, kp.Public())
}

// Install promotes the prepared key for viewID to current, erasing the
// previous current key and every other prepared key. If no key was prepared
// for viewID (the replica was not in the reconfiguration quorum), a fresh
// one is generated — the replica announces it in its first messages of the
// new view (paper §V-D).
func (k *KeyStore) Install(viewID int64) (*crypto.KeyPair, error) {
	k.mu.Lock()
	defer k.mu.Unlock()
	if viewID <= k.viewID {
		return nil, fmt.Errorf("reconfig: cannot install view %d over %d", viewID, k.viewID)
	}
	next, ok := k.prepared[viewID]
	if !ok {
		fresh, err := k.generate()
		if err != nil {
			return nil, fmt.Errorf("generate consensus key: %w", err)
		}
		next = fresh
	}
	// Forget: the old key and all stale prepared keys are destroyed.
	if k.current != nil {
		k.current.Erase()
	}
	for id, kp := range k.prepared {
		if kp != next {
			kp.Erase()
		}
		delete(k.prepared, id)
	}
	k.current = next
	k.viewID = viewID
	return next, nil
}

// CertifyCurrent certifies the current consensus key (used by members whose
// key was not in the reconfiguration block to announce themselves).
func (k *KeyStore) CertifyCurrent() (crypto.CertifiedKey, error) {
	k.mu.Lock()
	defer k.mu.Unlock()
	return crypto.CertifyConsensusKey(k.permanent, k.self, k.viewID, k.current.Public())
}
