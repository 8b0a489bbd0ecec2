package crypto

import (
	"bytes"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestHashBytesDeterministic(t *testing.T) {
	a := HashBytes([]byte("hello"), []byte("world"))
	b := HashBytes([]byte("helloworld"))
	if a != b {
		t.Fatalf("concatenation should hash identically: %s vs %s", a, b)
	}
	if a.IsZero() {
		t.Fatal("hash of data must not be zero")
	}
	if !ZeroHash.IsZero() {
		t.Fatal("ZeroHash must report IsZero")
	}
}

func TestHashFromBytes(t *testing.T) {
	h := HashBytes([]byte("x"))
	got := HashFromBytes(h[:])
	if got != h {
		t.Fatalf("round trip mismatch: %s vs %s", got, h)
	}
	if !HashFromBytes([]byte("short")).IsZero() {
		t.Fatal("wrong-size input must yield zero hash")
	}
}

func TestSignVerifyRoundTrip(t *testing.T) {
	kp := SeededKeyPair("test", 1)
	msg := []byte("the quick brown fox")
	sig, err := kp.Sign("ctx", msg)
	if err != nil {
		t.Fatalf("sign: %v", err)
	}
	if !Verify(kp.Public(), "ctx", msg, sig) {
		t.Fatal("signature must verify under same context")
	}
	if Verify(kp.Public(), "other", msg, sig) {
		t.Fatal("signature must not verify under different context (domain separation)")
	}
	if Verify(kp.Public(), "ctx", []byte("tampered"), sig) {
		t.Fatal("signature must not verify for different message")
	}
	other := SeededKeyPair("test", 2)
	if Verify(other.Public(), "ctx", msg, sig) {
		t.Fatal("signature must not verify under different key")
	}
}

func TestVerifyRejectsMalformedInputs(t *testing.T) {
	kp := SeededKeyPair("test", 3)
	sig, _ := kp.Sign("c", []byte("m"))
	if Verify(nil, "c", []byte("m"), sig) {
		t.Fatal("nil public key must not verify")
	}
	if Verify(kp.Public(), "c", []byte("m"), sig[:10]) {
		t.Fatal("short signature must not verify")
	}
	if Verify(kp.Public()[:10], "c", []byte("m"), sig) {
		t.Fatal("short public key must not verify")
	}
}

func TestSeededKeyPairDeterministic(t *testing.T) {
	a := SeededKeyPair("replica", 7)
	b := SeededKeyPair("replica", 7)
	c := SeededKeyPair("replica", 8)
	if !a.Public().Equal(b.Public()) {
		t.Fatal("same seed must give same key")
	}
	if a.Public().Equal(c.Public()) {
		t.Fatal("different seed must give different key")
	}
}

func TestGenerateKeyPair(t *testing.T) {
	a, err := GenerateKeyPair()
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	b, err := GenerateKeyPair()
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	if a.Public().Equal(b.Public()) {
		t.Fatal("two random key pairs must differ")
	}
}

func TestEraseForgetsKey(t *testing.T) {
	kp := SeededKeyPair("erase", 1)
	msg := []byte("before")
	sig, err := kp.Sign("c", msg)
	if err != nil {
		t.Fatalf("sign before erase: %v", err)
	}
	kp.Erase()
	if !kp.Erased() {
		t.Fatal("Erased must report true after Erase")
	}
	if _, err := kp.Sign("c", msg); err == nil {
		t.Fatal("sign after erase must fail")
	}
	if kp.MustSign("c", msg) != nil {
		t.Fatal("MustSign after erase must return nil")
	}
	// Old signatures stay valid: erasure protects the future, not the past.
	if !Verify(kp.Public(), "c", msg, sig) {
		t.Fatal("pre-erase signature must still verify")
	}
}

func TestCertificateQuorum(t *testing.T) {
	const n, quorum = 4, 3
	keys := make(map[int32]PublicKey, n)
	pairs := make([]*KeyPair, n)
	for i := range pairs {
		pairs[i] = SeededKeyPair("cert", int64(i))
		keys[int32(i)] = pairs[i].Public()
	}
	ring := NewKeyRing(keys)
	digest := HashBytes([]byte("block-1"))

	cert := Certificate{Digest: digest}
	for i := 0; i < quorum; i++ {
		sig, err := pairs[i].Sign("persist", digest[:])
		if err != nil {
			t.Fatalf("sign: %v", err)
		}
		if !cert.Add(Signature{Signer: int32(i), Sig: sig}) {
			t.Fatalf("add signer %d rejected", i)
		}
	}
	if got := cert.CountValid(ring, "persist", digest, digest[:]); got != quorum {
		t.Fatalf("a quorum certificate counts %d, want %d", got, quorum)
	}
	if got := cert.CountValid(ring, "write", digest, digest[:]); got != 0 {
		t.Fatalf("under the wrong context it counts %d, want 0", got)
	}
	other := HashBytes([]byte("block-2"))
	if got := cert.CountValid(ring, "persist", other, other[:]); got != 0 {
		t.Fatalf("for another digest it counts %d, want 0", got)
	}
	if got := cert.CountValid(ring, "persist", digest, other[:]); got != 0 {
		t.Fatalf("over another message it counts %d, want 0", got)
	}
}

func TestCertificateRejectsDuplicatesAndForgeries(t *testing.T) {
	kp := SeededKeyPair("dup", 0)
	ring := NewKeyRing(map[int32]PublicKey{0: kp.Public(), 1: kp.Public()})
	digest := HashBytes([]byte("d"))
	sig, _ := kp.Sign("c", digest[:])

	cert := Certificate{Digest: digest}
	if !cert.Add(Signature{Signer: 0, Sig: sig}) {
		t.Fatal("first add must succeed")
	}
	if cert.Add(Signature{Signer: 0, Sig: sig}) {
		t.Fatal("duplicate signer must be rejected by Add")
	}
	// Force a duplicate past Add: it counts once.
	cert.Sigs = append(cert.Sigs, Signature{Signer: 0, Sig: sig})
	if got := cert.CountValid(ring, "c", digest, digest[:]); got != 1 {
		t.Fatalf("a signer listed twice counts %d, want 1", got)
	}

	forged := Certificate{Digest: digest}
	forged.Add(Signature{Signer: 1, Sig: make([]byte, SignatureSize)})
	if got := forged.CountValid(ring, "c", digest, digest[:]); got != 0 {
		t.Fatalf("a forged signature counts %d, want 0", got)
	}

	unknown := Certificate{Digest: digest}
	unknown.Add(Signature{Signer: 99, Sig: sig})
	if got := unknown.CountValid(ring, "c", digest, digest[:]); got != 0 {
		t.Fatalf("an unknown signer counts %d, want 0", got)
	}
}

// countSingly is CountValid's rule one signature at a time: the reference
// the batched count must agree with.
func countSingly(c *Certificate, keys KeyResolver, context string, digest Hash, msg []byte) int {
	if c.Digest != digest {
		return 0
	}
	seen := make(map[int32]bool, len(c.Sigs))
	for _, s := range c.Sigs {
		if pub, ok := keys.PublicKeyOf(s.Signer); ok && !seen[s.Signer] && Verify(pub, context, msg, s.Sig) {
			seen[s.Signer] = true
		}
	}
	return len(seen)
}

// CountValid decides by one batch equation and checks singly only when it
// fails; on certificates with duplicates, unknown signers, a wrong digest and
// zero to two bad signatures it counts what the single checks count.
func TestCountValidAgreesWithSingleChecks(t *testing.T) {
	keys := make(map[int32]PublicKey, 4)
	pairs := make([]*KeyPair, 4)
	for i := range pairs {
		pairs[i] = SeededKeyPair("count-valid", int64(i))
		keys[int32(i)] = pairs[i].Public()
	}
	ring := NewKeyRing(keys)
	digest := HashBytes([]byte("block"))
	good := func(i int32) Signature { return Signature{Signer: i, Sig: pairs[i].MustSign("persist", digest[:])} }
	bad := func(i int32) Signature {
		s := good(i)
		s.Sig[0] ^= 1
		return s
	}
	stranger := Signature{Signer: 99, Sig: pairs[0].MustSign("persist", digest[:])}
	borrowed := Signature{Signer: 1, Sig: good(2).Sig} // 1 claims 2's signature
	short := Signature{Signer: 3, Sig: good(3).Sig[:10]}
	cases := []struct {
		name string
		sigs []Signature
		want int
	}{
		{"empty", nil, 0},
		{"quorum", []Signature{good(0), good(1), good(2)}, 3},
		{"all four", []Signature{good(3), good(1), good(0), good(2)}, 4},
		{"one bad", []Signature{good(0), bad(1), good(2), good(3)}, 3},
		{"two bad", []Signature{bad(0), good(1), bad(2), good(3)}, 2},
		{"all bad", []Signature{bad(0), bad(1), bad(2)}, 0},
		{"duplicate", []Signature{good(0), good(0), good(1)}, 2},
		{"bad then good of one signer", []Signature{bad(0), good(0), good(1)}, 2},
		{"good then bad of one signer", []Signature{good(0), bad(0), good(1)}, 2},
		{"unknown signer", []Signature{good(0), stranger, good(1)}, 2},
		{"borrowed signature", []Signature{good(0), borrowed, good(2)}, 2},
		{"short signature", []Signature{good(0), short, good(1)}, 2},
	}
	for _, tc := range cases {
		cert := Certificate{Digest: digest, Sigs: tc.sigs}
		if got, ref := cert.CountValid(ring, "persist", digest, digest[:]), countSingly(&cert, ring, "persist", digest, digest[:]); got != tc.want || ref != tc.want {
			t.Fatalf("%s: CountValid %d, single checks %d, want %d", tc.name, got, ref, tc.want)
		}
		other := HashBytes([]byte("another block"))
		if got := cert.CountValid(ring, "persist", other, other[:]); got != 0 {
			t.Fatalf("%s: for a wrong digest CountValid %d, want 0", tc.name, got)
		}
	}
	// Seeded mixes of every kind above, up to two bad signatures each.
	rng := rand.New(rand.NewSource(1))
	for round := 0; round < 200; round++ {
		var cert Certificate
		cert.Digest = digest
		nbad := 0
		for k := rng.Intn(7); k >= 0; k-- {
			i := int32(rng.Intn(4))
			switch r := rng.Intn(6); {
			case r == 0 && nbad < 2:
				cert.Sigs = append(cert.Sigs, bad(i))
				nbad++
			case r == 1:
				cert.Sigs = append(cert.Sigs, stranger)
			case r == 2 && nbad < 2:
				cert.Sigs = append(cert.Sigs, borrowed)
				nbad++
			default:
				cert.Sigs = append(cert.Sigs, good(i))
			}
		}
		if got, ref := cert.CountValid(ring, "persist", digest, digest[:]), countSingly(&cert, ring, "persist", digest, digest[:]); got != ref {
			t.Fatalf("round %d: CountValid %d, single checks %d, certificate %+v", round, got, ref, cert.Sigs)
		}
	}
}

func TestCertificateSigners(t *testing.T) {
	cert := Certificate{}
	cert.Add(Signature{Signer: 3})
	cert.Add(Signature{Signer: 1})
	cert.Add(Signature{Signer: 2})
	got := cert.Signers()
	want := []int32{1, 2, 3}
	if len(got) != len(want) {
		t.Fatalf("signers: got %v want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("signers: got %v want %v", got, want)
		}
	}
	if cert.Count() != 3 {
		t.Fatalf("count: got %d want 3", cert.Count())
	}
}

func TestCertifiedKeyRoundTrip(t *testing.T) {
	permanent := SeededKeyPair("perm", 5)
	consensus := SeededKeyPair("cons", 5)
	ck, err := CertifyConsensusKey(permanent, 5, 9, consensus.Public())
	if err != nil {
		t.Fatalf("certify: %v", err)
	}
	if err := ck.Verify(permanent.Public()); err != nil {
		t.Fatalf("verify: %v", err)
	}
	// Any field tamper must break it.
	tampered := ck
	tampered.ViewID = 10
	if err := tampered.Verify(permanent.Public()); err == nil {
		t.Fatal("tampered view id must not verify")
	}
	tampered = ck
	tampered.Signer = 6
	if err := tampered.Verify(permanent.Public()); err == nil {
		t.Fatal("tampered signer must not verify")
	}
	other := SeededKeyPair("perm", 6)
	if err := ck.Verify(other.Public()); err == nil {
		t.Fatal("wrong permanent key must not verify")
	}
}

func TestCertifyWithErasedKeyFails(t *testing.T) {
	permanent := SeededKeyPair("perm", 1)
	permanent.Erase()
	if _, err := CertifyConsensusKey(permanent, 1, 1, SeededKeyPair("c", 1).Public()); err == nil {
		t.Fatal("certifying with erased key must fail")
	}
}

func TestMerkleRootProperties(t *testing.T) {
	empty := MerkleRoot(nil)
	if empty.IsZero() {
		t.Fatal("empty root must be a defined non-zero commitment")
	}
	one := MerkleRoot([][]byte{[]byte("a")})
	if one == empty {
		t.Fatal("single leaf must differ from empty")
	}
	ab := MerkleRoot([][]byte{[]byte("a"), []byte("b")})
	ba := MerkleRoot([][]byte{[]byte("b"), []byte("a")})
	if ab == ba {
		t.Fatal("leaf order must matter")
	}
}

func TestMerkleSecondPreimageResistance(t *testing.T) {
	// The classic attack: the concatenation of two leaf hashes used as a
	// single leaf must not reproduce the parent. Domain separation between
	// leaf and node hashing prevents it.
	a, b := []byte("a"), []byte("b")
	root := MerkleRoot([][]byte{a, b})
	la := HashBytes(merkleLeafPrefix, a)
	lb := HashBytes(merkleLeafPrefix, b)
	forgedLeaf := append(append([]byte{}, la[:]...), lb[:]...)
	if MerkleRoot([][]byte{forgedLeaf}) == root {
		t.Fatal("interior node reinterpreted as leaf must not match root")
	}
}

func TestMerkleProveVerify(t *testing.T) {
	sizes := []int{1, 2, 3, 4, 5, 7, 8, 9, 16, 33}
	for _, n := range sizes {
		leaves := make([][]byte, n)
		for i := range leaves {
			leaves[i] = []byte{byte(i), byte(n)}
		}
		root := MerkleRoot(leaves)
		for i := 0; i < n; i++ {
			proof, err := MerkleProve(leaves, i)
			if err != nil {
				t.Fatalf("n=%d prove(%d): %v", n, i, err)
			}
			if !MerkleVerify(root, leaves[i], proof) {
				t.Fatalf("n=%d proof for leaf %d must verify", n, i)
			}
			if MerkleVerify(root, []byte("evil"), proof) {
				t.Fatalf("n=%d proof must not verify foreign leaf", n)
			}
			if i+1 < n && MerkleVerify(root, leaves[i+1], proof) {
				t.Fatalf("n=%d proof for leaf %d must not verify leaf %d", n, i, i+1)
			}
		}
	}
}

func TestMerkleProveOutOfRange(t *testing.T) {
	if _, err := MerkleProve([][]byte{[]byte("a")}, 1); err == nil {
		t.Fatal("out-of-range index must error")
	}
	if _, err := MerkleProve(nil, 0); err == nil {
		t.Fatal("empty leaves must error")
	}
}

func TestMerklePropertyRandomized(t *testing.T) {
	// Property: for random leaf sets, every leaf's proof verifies and a
	// mutated root rejects it.
	f := func(raw [][]byte, idx uint8) bool {
		if len(raw) == 0 {
			return true
		}
		i := int(idx) % len(raw)
		root := MerkleRoot(raw)
		proof, err := MerkleProve(raw, i)
		if err != nil {
			return false
		}
		if !MerkleVerify(root, raw[i], proof) {
			return false
		}
		var bad Hash
		copy(bad[:], root[:])
		bad[0] ^= 0xff
		return !MerkleVerify(bad, raw[i], proof)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSealedContextFraming(t *testing.T) {
	// "a"+"bc" and "ab"+"c" must seal differently: the length byte is part
	// of the framing.
	if bytes.Equal(sealed("a", []byte("bc")), sealed("ab", []byte("c"))) {
		t.Fatal("sealed framing must be unambiguous")
	}
}

func TestKeyRing(t *testing.T) {
	var r KeyRing
	if _, ok := r.PublicKeyOf(1); ok {
		t.Fatal("empty ring must resolve nothing")
	}
	kp := SeededKeyPair("ring", 1)
	r.Set(1, kp.Public())
	got, ok := r.PublicKeyOf(1)
	if !ok || !got.Equal(kp.Public()) {
		t.Fatal("ring must resolve stored key")
	}
	if r.Len() != 1 {
		t.Fatalf("len: got %d want 1", r.Len())
	}
}

// Signers returns the sorted list of signer IDs.
func (c *Certificate) Signers() []int32 {
	ids := make([]int32, 0, len(c.Sigs))
	for _, s := range c.Sigs {
		ids = append(ids, s.Signer)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// KeyRing is a map-backed KeyResolver for the certificate tests.
type KeyRing struct {
	keys map[int32]PublicKey
}

// NewKeyRing builds a resolver from the given ID→key mapping. The map is
// copied.
func NewKeyRing(keys map[int32]PublicKey) *KeyRing {
	m := make(map[int32]PublicKey, len(keys))
	for id, k := range keys {
		m[id] = k
	}
	return &KeyRing{keys: m}
}

// PublicKeyOf implements KeyResolver.
func (r *KeyRing) PublicKeyOf(id int32) (PublicKey, bool) {
	k, ok := r.keys[id]
	return k, ok
}

// Set associates id with key. Not safe for use concurrent with resolution.
func (r *KeyRing) Set(id int32, key PublicKey) {
	if r.keys == nil {
		r.keys = make(map[int32]PublicKey)
	}
	r.keys[id] = key
}

// Len returns the number of keys in the ring.
func (r *KeyRing) Len() int { return len(r.keys) }

var _ KeyResolver = (*KeyRing)(nil)
