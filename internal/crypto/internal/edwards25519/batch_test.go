package edwards25519

import (
	"crypto/ed25519"
	"crypto/sha512"
	"fmt"
	"math/rand"
	"testing"
)

// TestBatchEquationMergedMatchesUnmerged: one term per key decides as one
// term per signature does (owner the identity map, every key repeated), on
// random honest batches and on batches with one corrupted signature — a
// flipped message bit, a flipped bit of s, or a signature transplanted from
// another message.
func TestBatchEquationMergedMatchesUnmerged(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 64; trial++ {
		n, m := 1+rng.Intn(48), 1+rng.Intn(4)
		privs, keys := make([]ed25519.PrivateKey, m), make([]Point, m)
		for j := range privs {
			seed := make([]byte, ed25519.SeedSize)
			rng.Read(seed)
			privs[j] = ed25519.NewKeyFromSeed(seed)
			if _, err := keys[j].SetBytes(privs[j][ed25519.SeedSize:]); err != nil {
				t.Fatal(err)
			}
		}
		bad, corruption := rng.Intn(n+1)-1, rng.Intn(3) // bad = -1: an honest batch
		owner, self := make([]int, n), make([]int, n)
		perSig, R := make([]Point, n), make([]Point, n)
		s, k := make([]Scalar, n), make([]Scalar, n)
		for i := range owner {
			owner[i], self[i] = rng.Intn(m), i
			perSig[i].Set(&keys[owner[i]])
			msg := []byte(fmt.Sprintf("trial %d message %d", trial, i))
			sig := ed25519.Sign(privs[owner[i]], msg)
			if i == bad {
				switch corruption {
				case 0:
					msg[0] ^= 1
				case 1:
					sig[32] ^= 1
				case 2:
					sig = ed25519.Sign(privs[owner[i]], []byte("another message"))
				}
			}
			if _, err := R[i].SetBytes(sig[:32]); err != nil {
				t.Fatal(err)
			}
			if _, err := s[i].SetCanonicalBytes(sig[32:]); err != nil {
				t.Fatal(err)
			}
			h := sha512.New()
			h.Write(sig[:32])
			h.Write(privs[owner[i]][ed25519.SeedSize:])
			h.Write(msg)
			if _, err := k[i].SetUniformBytes(h.Sum(nil)); err != nil {
				t.Fatal(err)
			}
		}
		merged, err := BatchEquation(keys, owner, R, s, k)
		if err != nil {
			t.Fatal(err)
		}
		unmerged, err := BatchEquation(perSig, self, R, s, k)
		if err != nil {
			t.Fatal(err)
		}
		if merged != unmerged || merged != (bad < 0) {
			t.Fatalf("trial %d (n=%d m=%d bad=%d corruption=%d): merged %v, unmerged %v",
				trial, n, m, bad, corruption, merged, unmerged)
		}
	}
}
