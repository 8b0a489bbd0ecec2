package crypto

import (
	"bytes"
	"crypto/ed25519"
	"crypto/rand"
	"crypto/sha512"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"

	"smartchain/internal/crypto/internal/edwards25519"
)

// Signature and key sizes, fixed by Ed25519.
const (
	PublicKeySize  = ed25519.PublicKeySize
	SignatureSize  = ed25519.SignatureSize
	PrivateKeySize = ed25519.PrivateKeySize
	SeedSize       = ed25519.SeedSize
)

// Errors returned by key certification and signing.
var (
	ErrBadSignature = errors.New("invalid signature")
	ErrKeyErased    = errors.New("private key has been erased")
)

// PublicKey is an Ed25519 public key identifying a process or a per-view
// consensus identity.
type PublicKey []byte

// Equal reports whether two public keys are the same key.
func (p PublicKey) Equal(o PublicKey) bool {
	return bytes.Equal(p, o)
}

// KeyPair is an Ed25519 key pair. The private half is kept unexported so it
// can only be used through Sign, and so Erase can destroy it (the
// "forgetting" protocol of the reconfiguration layer, paper §V-D).
type KeyPair struct {
	pub  ed25519.PublicKey
	priv ed25519.PrivateKey

	mu     sync.Mutex
	erased bool
}

// GenerateKeyPair creates a fresh random key pair.
func GenerateKeyPair() (*KeyPair, error) {
	pub, priv, err := ed25519.GenerateKey(rand.Reader)
	if err != nil {
		return nil, fmt.Errorf("generate ed25519 key: %w", err)
	}
	return &KeyPair{pub: pub, priv: priv}, nil
}

// KeyPairFromSeed derives a key pair deterministically from a 32-byte seed.
// Intended for tests and reproducible experiments.
func KeyPairFromSeed(seed []byte) *KeyPair {
	s := make([]byte, SeedSize)
	copy(s, seed)
	priv := ed25519.NewKeyFromSeed(s)
	pub := make([]byte, PublicKeySize)
	copy(pub, priv[SeedSize:])
	return &KeyPair{pub: pub, priv: priv}
}

// SeededKeyPair derives a key pair from a (label, id) pair. Convenient for
// giving every replica and client in a simulated deployment a distinct,
// reproducible identity.
func SeededKeyPair(label string, id int64) *KeyPair {
	var idb [8]byte
	binary.BigEndian.PutUint64(idb[:], uint64(id))
	seed := HashBytes([]byte(label), idb[:])
	return KeyPairFromSeed(seed[:])
}

// Public returns the public half of the key pair.
func (k *KeyPair) Public() PublicKey {
	return PublicKey(k.pub)
}

// Sign signs msg under the given domain-separation context. It returns an
// error if the private key has been erased.
func (k *KeyPair) Sign(context string, msg []byte) ([]byte, error) {
	k.mu.Lock()
	defer k.mu.Unlock()
	if k.erased {
		return nil, ErrKeyErased
	}
	return ed25519.Sign(k.priv, sealed(context, msg)), nil
}

// MustSign is Sign for contexts where the key is known to be live (e.g. a
// node signing with its own current key). It returns nil if the key was
// erased; callers treat a nil signature as a signing failure.
func (k *KeyPair) MustSign(context string, msg []byte) []byte {
	sig, err := k.Sign(context, msg)
	if err != nil {
		return nil
	}
	return sig
}

// Erase destroys the private key material in place. After Erase, Sign fails.
// This implements the forgetting protocol: a replica that discards its old
// consensus key cannot later be coerced into signing blocks for past views.
func (k *KeyPair) Erase() {
	k.mu.Lock()
	defer k.mu.Unlock()
	for i := range k.priv {
		k.priv[i] = 0
	}
	k.erased = true
}

// Erased reports whether the private key has been destroyed.
func (k *KeyPair) Erased() bool {
	k.mu.Lock()
	defer k.mu.Unlock()
	return k.erased
}

// PrivateBytes exports the raw private key for *local* persistence (a
// replica's own key file, so the current view's consensus key survives a
// recoverable crash). It must never be transmitted or included in state
// transfer. Fails if the key was erased.
func (k *KeyPair) PrivateBytes() ([]byte, error) {
	k.mu.Lock()
	defer k.mu.Unlock()
	if k.erased {
		return nil, ErrKeyErased
	}
	out := make([]byte, len(k.priv))
	copy(out, k.priv)
	return out, nil
}

// KeyPairFromPrivate reconstructs a key pair from PrivateBytes output.
func KeyPairFromPrivate(b []byte) (*KeyPair, error) {
	if len(b) != PrivateKeySize {
		return nil, fmt.Errorf("crypto: bad private key length %d", len(b))
	}
	priv := make(ed25519.PrivateKey, PrivateKeySize)
	copy(priv, b)
	pub := make([]byte, PublicKeySize)
	copy(pub, priv[SeedSize:])
	return &KeyPair{pub: pub, priv: priv}, nil
}

// Verify checks sig over msg under the domain-separation context against pub
// by the cofactored (ZIP-215) rule, the one BatchVerifier's batch equation
// decides: s < ℓ, A and R decode (non-canonical encodings included), and
// [8]([s]B − R − [k]A) = 0. It first computes R' = [s]B − [k]A, as stdlib
// does, and accepts at once if R' encodes to the signature's R bytes; that
// equation implies the cofactored one, so an honest signature costs what
// stdlib's check costs. Only on a mismatch is R decoded and [8](R' − R) = 0
// decided.
func Verify(pub PublicKey, context string, msg, sig []byte) bool {
	var A edwards25519.Point
	var s, k edwards25519.Scalar
	if !decodeSig(pub, context, msg, sig, &A, &s, &k) {
		return false
	}
	var R edwards25519.Point
	R.Negate(&A)
	R.VarTimeDoubleScalarBaseMult(&k, &R, &s)
	if bytes.Equal(R.Bytes(), sig[:32]) {
		return true
	}
	var sigR edwards25519.Point
	if _, err := sigR.SetBytes(sig[:32]); err != nil {
		return false
	}
	R.Subtract(&R, &sigR)
	R.Add(&R, &R)
	R.Add(&R, &R)
	R.Add(&R, &R)
	return R.Equal(edwards25519.NewIdentityPoint()) == 1
}

// decodeSig reads what a single check needs from one signature: the key A
// and sigScalars' s and k.
func decodeSig(pub PublicKey, context string, msg, sig []byte, A *edwards25519.Point, s, k *edwards25519.Scalar) bool {
	if !sigScalars(pub, context, msg, sig, s, k) {
		return false
	}
	_, err := A.SetBytes(pub)
	return err == nil
}

// sigScalars reads the per-signature part of a check, all of it but decoding
// the key: the scalar s (refused unless s < ℓ) and k = SHA-512(R ‖ A ‖ M) mod
// ℓ over the sealed message. A batch decodes each key once for all the
// signatures it made.
func sigScalars(pub PublicKey, context string, msg, sig []byte, s, k *edwards25519.Scalar) bool {
	if len(pub) != PublicKeySize || len(sig) != SignatureSize {
		return false
	}
	if _, err := s.SetCanonicalBytes(sig[32:]); err != nil {
		return false
	}
	h := sha512.New()
	h.Write(sig[:32])
	h.Write(pub)
	h.Write(append([]byte{byte(len(context))}, context...)) // sealed(context, msg), without copying msg
	h.Write(msg)
	var digest [sha512.Size]byte
	_, err := k.SetUniformBytes(h.Sum(digest[:0]))
	return err == nil
}

// sealed prefixes msg with a length-delimited context string so signatures
// from one protocol phase can never be replayed in another.
func sealed(context string, msg []byte) []byte {
	out := make([]byte, 0, 1+len(context)+len(msg))
	out = append(out, byte(len(context)))
	out = append(out, context...)
	out = append(out, msg...)
	return out
}
