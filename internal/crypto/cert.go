package crypto

import (
	"fmt"

	"smartchain/internal/codec"
)

// Signature is a protocol signature attributed to a process ID. The ID refers
// to a member of the view the signature was produced in; the resolver used
// during verification maps IDs to the correct per-view public keys.
type Signature struct {
	Signer int32
	Sig    []byte
}

// KeyResolver maps process IDs to public keys. A View is the usual resolver:
// it resolves to per-view consensus keys.
type KeyResolver interface {
	PublicKeyOf(id int32) (PublicKey, bool)
}

// Certificate is a set of signatures from distinct signers over the same
// digest, under the same domain-separation context. With a Byzantine quorum
// of signatures it proves agreement: no conflicting value can gather a
// second quorum in the same view.
type Certificate struct {
	Digest Hash
	Sigs   []Signature
}

// Add inserts sig, returning false if the signer is already present.
func (c *Certificate) Add(sig Signature) bool {
	for _, s := range c.Sigs {
		if s.Signer == sig.Signer {
			return false
		}
	}
	c.Sigs = append(c.Sigs, sig)
	return true
}

// Count returns the number of distinct signatures collected.
func (c *Certificate) Count() int {
	return len(c.Sigs)
}

// CountValid counts distinct signers whose signatures over msg verify under
// keys and context, or returns 0 if the certificate is not for digest.
// msg is what the certificate's kind signs for digest: the digest itself for
// a block certificate, the (instance, epoch, digest) vote for a decision
// proof. Unknown signers, duplicates and invalid signatures are skipped,
// not rejected: a certificate needs a quorum of *valid* signatures, and
// extra garbage cannot help an adversary. (Replicas that announced fresh
// keys after a reconfiguration may contribute signatures a third-party
// verifier cannot check; those are simply not counted — the paper's n−f
// recorded keys guarantee a verifiable quorum exists.) Every signature of a
// known signer goes into one batch equation; only a failed equation checks
// them one by one, so the count is the per-signature count either way.
func (c *Certificate) CountValid(keys KeyResolver, context string, digest Hash, msg []byte) int {
	if c.Digest != digest {
		return 0
	}
	bv := NewBatchVerifier(len(c.Sigs))
	signers := make([]int32, 0, len(c.Sigs))
	for _, s := range c.Sigs {
		if pub, ok := keys.PublicKeyOf(s.Signer); ok {
			bv.Add(pub, context, msg, s.Sig)
			signers = append(signers, s.Signer)
		}
	}
	seen := make(map[int32]bool, len(signers))
	for i, ok := range bv.Verdicts(1) {
		if ok {
			seen[signers[i]] = true
		}
	}
	return len(seen)
}

// EncodeInto serializes the certificate (digest, then signer/signature
// pairs) into e. The format is shared by all certificate-bearing wire
// messages; DecodeCertificateFrom is the inverse.
func (c *Certificate) EncodeInto(e *codec.Encoder) {
	e.Bytes32(c.Digest)
	e.Uint32(uint32(len(c.Sigs)))
	for _, s := range c.Sigs {
		e.Int32(s.Signer)
		e.WriteBytes(s.Sig)
	}
}

// DecodeCertificateFrom reads a certificate written by EncodeInto.
func DecodeCertificateFrom(d *codec.Decoder) (Certificate, error) {
	var c Certificate
	c.Digest = d.Bytes32()
	c.Sigs = codec.List(d, 4+4, func(d *codec.Decoder) Signature {
		return Signature{Signer: d.Int32(), Sig: d.ReadBytesCopy()}
	})
	if err := d.Err(); err != nil {
		return Certificate{}, fmt.Errorf("crypto: decode certificate: %w", err)
	}
	return c, nil
}
