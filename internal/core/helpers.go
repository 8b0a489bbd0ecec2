package core

import (
	"smartchain/internal/blockchain"
	"smartchain/internal/crypto"
	"smartchain/internal/reconfig"
	"smartchain/internal/view"
)

// viewFromUpdate builds the installed view a reconfiguration block
// describes.
func viewFromUpdate(u *blockchain.ViewUpdate, keys map[int32]crypto.PublicKey) view.View {
	return view.New(u.NewViewID, u.Members, keys)
}

// newRecoveredKeyStore rebuilds a key store around a consensus key loaded
// from local storage after a recoverable crash.
func newRecoveredKeyStore(self int32, permanent *crypto.KeyPair, viewID int64, key *crypto.KeyPair) *reconfig.KeyStore {
	return reconfig.NewKeyStore(self, permanent, viewID, key, nil)
}
