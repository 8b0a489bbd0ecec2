package crypto

import (
	"crypto/ed25519"
	"encoding/hex"
	"fmt"
	"testing"
)

// smallOrder are the encodings of the eight points of order dividing 8.
var smallOrder = []string{
	"0100000000000000000000000000000000000000000000000000000000000000",
	"ecffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f",
	"0000000000000000000000000000000000000000000000000000000000000000",
	"0000000000000000000000000000000000000000000000000000000000000080",
	"c7176a703d4dd84fba3c0b760d10670f2a2053fa2c39ccc64ec7fd7792ac037a",
	"c7176a703d4dd84fba3c0b760d10670f2a2053fa2c39ccc64ec7fd7792ac03fa",
	"26e8958fc2b227b045c3f489f2ef98f0d5dfac05d3c63339b13802886d53fc05",
	"26e8958fc2b227b045c3f489f2ef98f0d5dfac05d3c63339b13802886d53fc85",
}

// nonCanonical are encodings whose y is at or above p = 2²⁵⁵ − 19, with and
// without the sign bit.
var nonCanonical = []string{
	"edffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f", // y = p ≡ 0
	"eeffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f", // y = p + 1 ≡ 1
	"edffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff",
	"eeffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff",
	"0100000000000000000000000000000000000000000000000000000000000080", // identity, x = 0 with the sign bit
}

// orderBytes are ℓ and ℓ + 1, little-endian: s values that must be refused.
var orderBytes = []string{
	"edd3f55c1a631258d69cf7a2def9de1400000000000000000000000000000010",
	"eed3f55c1a631258d69cf7a2def9de1400000000000000000000000000000010",
}

func unhex(t testing.TB, s string) []byte {
	t.Helper()
	b, err := hex.DecodeString(s)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// batchVerdicts is what BatchVerifier decides about (pub, msg, sig): alone
// in a batch equation of its own, and among honest siblings. The siblings
// include a signature by the fuzz seed key, and the item is there twice, so
// a key the item shares with one of them goes through a merged term.
func batchVerdicts(t testing.TB, pub, msg, sig []byte) (alone, among bool) {
	t.Helper()
	alone = verifyChunk([]batchItem{{pub: pub, context: "ctx", msg: msg, sig: sig}})
	bv := NewBatchVerifier(6)
	for i := int64(0); i < 3; i++ {
		kp := SeededKeyPair("sibling", i)
		m := []byte(fmt.Sprintf("sibling-%d", i))
		bv.Add(kp.Public(), "ctx", m, kp.MustSign("ctx", m))
	}
	seed := SeededKeyPair("fuzz", 1)
	m := []byte("fuzz sibling")
	bv.Add(seed.Public(), "ctx", m, seed.MustSign("ctx", m))
	bv.Add(pub, "ctx", msg, sig)
	bv.Add(pub, "ctx", msg, sig)
	return alone, bv.Verify(1)
}

// TestVerifyDifferential: every signature stdlib makes is accepted by Verify
// and by the batch equation, and one flipped bit in the message, R, s or A
// is refused by both.
func TestVerifyDifferential(t *testing.T) {
	for i := int64(0); i < 64; i++ {
		kp := SeededKeyPair("differential", i)
		msg := []byte(fmt.Sprintf("message %d", i))
		sig := kp.MustSign("ctx", msg)
		pub := kp.Public()
		if !ed25519.Verify(ed25519.PublicKey(pub), sealed("ctx", msg), sig) {
			t.Fatal("stdlib refuses its own signature")
		}
		if !Verify(pub, "ctx", msg, sig) {
			t.Fatalf("Verify refuses stdlib signature %d", i)
		}
		if alone, among := batchVerdicts(t, pub, msg, sig); !alone || !among {
			t.Fatalf("batch refuses stdlib signature %d (alone %v, among siblings %v)", i, alone, among)
		}
		bit := uint(i) * 37
		flip := func(b []byte) []byte {
			c := append([]byte(nil), b...)
			c[(bit/8)%uint(len(c))] ^= 1 << (bit % 8)
			return c
		}
		sR, sS := append([]byte(nil), sig...), append([]byte(nil), sig...)
		copy(sR[:32], flip(sig[:32]))
		copy(sS[32:], flip(sig[32:]))
		for name, c := range map[string]struct{ pub, msg, sig []byte }{
			"message": {pub, flip(msg), sig},
			"R":       {pub, msg, sR},
			"s":       {pub, msg, sS},
			"A":       {flip(pub), msg, sig},
		} {
			if Verify(c.pub, "ctx", c.msg, c.sig) {
				t.Fatalf("signature %d: Verify accepts a flipped bit in %s", i, name)
			}
			if alone, among := batchVerdicts(t, c.pub, c.msg, c.sig); alone || among {
				t.Fatalf("signature %d: batch accepts a flipped bit in %s (alone %v, among siblings %v)", i, name, alone, among)
			}
		}
	}
}

// TestVerifyCofactoredRule pins the rule's edges: a signature by a
// small-order key with a small-order R and s = 0 holds cofactored and is
// accepted; s ≥ ℓ is refused however the rest looks.
func TestVerifyCofactoredRule(t *testing.T) {
	msg := []byte("edge")
	zero := make([]byte, 32)
	for _, a := range smallOrder {
		for _, r := range smallOrder {
			sig := append(unhex(t, r), zero...)
			if !Verify(unhex(t, a), "ctx", msg, sig) {
				t.Fatalf("A=%s R=%s s=0: refused, the cofactored equation holds", a, r)
			}
		}
	}
	kp := SeededKeyPair("edge", 1)
	sig := kp.MustSign("ctx", msg)
	for _, s := range orderBytes {
		bad := append(append([]byte(nil), sig[:32]...), unhex(t, s)...)
		if Verify(kp.Public(), "ctx", msg, bad) {
			t.Fatalf("s=%s accepted", s)
		}
	}
}

// FuzzVerifyAgreement: Verify, a batch equation of one, and the same item
// among honest siblings reach one verdict on any (pub, msg, sig) — else a
// crafted signature would be admitted by one replica and refused by another.
func FuzzVerifyAgreement(f *testing.F) {
	kp := SeededKeyPair("fuzz", 1)
	msg := []byte("fuzz message")
	sig := kp.MustSign("ctx", msg)
	pub := kp.Public()
	f.Add([]byte(pub), msg, sig)
	zero := make([]byte, 32)
	for _, e := range append(append([]string(nil), smallOrder...), nonCanonical...) {
		enc := unhex(f, e)
		f.Add(enc, msg, append(append([]byte(nil), enc...), zero...))
		f.Add(enc, msg, sig)
		f.Add([]byte(pub), msg, append(append([]byte(nil), enc...), sig[32:]...))
	}
	for _, s := range orderBytes {
		f.Add([]byte(pub), msg, append(append([]byte(nil), sig[:32]...), unhex(f, s)...))
	}
	f.Fuzz(func(t *testing.T, pub, msg, sig []byte) {
		single := Verify(pub, "ctx", msg, sig)
		alone, among := batchVerdicts(t, pub, msg, sig)
		if single != alone || single != among {
			t.Fatalf("verdicts disagree: Verify %v, batch of one %v, among siblings %v", single, alone, among)
		}
	})
}

var verdictSink bool

func BenchmarkVerify(b *testing.B) {
	kp := SeededKeyPair("bench", 1)
	msg := []byte("benchmark message")
	sig := kp.MustSign("ctx", msg)
	b.Run("stdlib", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			verdictSink = ed25519.Verify(ed25519.PublicKey(kp.Public()), sealed("ctx", msg), sig)
		}
	})
	b.Run("single", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			verdictSink = Verify(kp.Public(), "ctx", msg, sig)
		}
	})
	// Signatures by one key share a term of the equation: keys=n is the
	// no-merge worst case.
	for _, c := range []struct{ n, keys int }{{16, 2}, {32, 2}, {64, 1}, {64, 2}, {64, 64}, {128, 2}} {
		b.Run(fmt.Sprintf("batch%d/keys=%d", c.n, c.keys), func(b *testing.B) {
			bv := NewBatchVerifier(c.n)
			for i := 0; i < c.n; i++ {
				k := SeededKeyPair("bench", int64(i%c.keys))
				m := []byte(fmt.Sprintf("benchmark %d", i))
				bv.Add(k.Public(), "ctx", m, k.MustSign("ctx", m))
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if !bv.Verify(1) {
					b.Fatal("honest batch refused")
				}
			}
			b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N*c.n), "µs/sig")
		})
	}
}
