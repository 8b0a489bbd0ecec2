// Package crypto provides the cryptographic primitives used throughout
// SMARTCHAIN: SHA-256 hashing, Ed25519 permanent and per-view consensus
// key pairs, protocol signatures with domain separation, Byzantine quorum
// certificates, and Merkle trees for transaction/result commitments.
package crypto

import (
	"crypto/sha256"
	"encoding/hex"
)

// HashSize is the size of a Hash in bytes.
const HashSize = sha256.Size

// Hash is a SHA-256 digest used for block, batch, and transaction identity.
type Hash [HashSize]byte

// ZeroHash is the all-zero hash, used as the previous-hash of the genesis
// block and as a sentinel for "no hash".
var ZeroHash Hash

// HashBytes hashes the concatenation of the given byte slices.
func HashBytes(chunks ...[]byte) Hash {
	h := sha256.New()
	for _, c := range chunks {
		h.Write(c)
	}
	var out Hash
	h.Sum(out[:0])
	return out
}

// IsZero reports whether h is the zero hash.
func (h Hash) IsZero() bool {
	return h == ZeroHash
}

// String returns the full lowercase-hex encoding of the hash.
func (h Hash) String() string {
	return hex.EncodeToString(h[:])
}

// HashFromBytes copies b into a Hash. It returns the zero hash if b does not
// have exactly HashSize bytes.
func HashFromBytes(b []byte) Hash {
	var out Hash
	if len(b) != HashSize {
		return out
	}
	copy(out[:], b)
	return out
}
