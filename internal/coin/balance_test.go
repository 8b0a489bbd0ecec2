package coin

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"smartchain/internal/crypto"
	"smartchain/internal/smr"
)

// genCoin tracks a coin the randomized generator believes may exist:
// generation is optimistic (a failed spend never creates its outputs), so
// later picks of such coins exercise the unknown-coin path. What matters is
// that the request stream itself is a pure function of the seed.
type genCoin struct {
	id    CoinID
	owner int
	value uint64
}

type batchGen struct {
	rng     *rand.Rand
	issuers []*crypto.KeyPair
	nonces  []uint64
	seqs    []uint64
	coins   []genCoin
}

func newBatchGen(seed int64, nIssuers int) *batchGen {
	g := &batchGen{
		rng:    rand.New(rand.NewSource(seed)),
		nonces: make([]uint64, nIssuers),
		seqs:   make([]uint64, nIssuers),
	}
	for i := 0; i < nIssuers; i++ {
		g.issuers = append(g.issuers, crypto.SeededKeyPair("par-fuzz", int64(i)))
	}
	return g
}

func (g *batchGen) publics() []crypto.PublicKey {
	out := make([]crypto.PublicKey, len(g.issuers))
	for i, k := range g.issuers {
		out[i] = k.Public()
	}
	return out
}

func (g *batchGen) request(t *testing.T, issuer int, op []byte) smr.Request {
	t.Helper()
	g.seqs[issuer]++
	req, err := smr.NewSignedRequest(int64(1000+issuer), g.seqs[issuer], op, g.issuers[issuer])
	if err != nil {
		t.Fatalf("request: %v", err)
	}
	return req
}

func (g *batchGen) genMint(t *testing.T, issuer int) smr.Request {
	t.Helper()
	g.nonces[issuer]++
	values := make([]uint64, 1+g.rng.Intn(3))
	for i := range values {
		values[i] = uint64(1 + g.rng.Intn(100))
	}
	tx, err := NewMint(g.issuers[issuer], g.nonces[issuer], values...)
	if err != nil {
		t.Fatalf("mint: %v", err)
	}
	for i, id := range tx.OutputIDs() {
		g.coins = append(g.coins, genCoin{id: id, owner: issuer, value: values[i]})
	}
	return g.request(t, issuer, tx.Encode())
}

func (g *batchGen) genSpend(t *testing.T) smr.Request {
	t.Helper()
	c := g.coins[g.rng.Intn(len(g.coins))]
	issuer := c.owner
	if g.rng.Intn(5) == 0 {
		issuer = g.rng.Intn(len(g.issuers)) // sometimes not the owner
	}
	value := c.value
	if g.rng.Intn(5) == 0 {
		value++ // sometimes a value mismatch
	}
	recipient := g.rng.Intn(len(g.issuers))
	g.nonces[issuer]++
	tx, err := NewSpend(g.issuers[issuer], g.nonces[issuer], []CoinID{c.id},
		[]Output{{Owner: g.issuers[recipient].Public(), Value: value}})
	if err != nil {
		t.Fatalf("spend: %v", err)
	}
	if issuer == c.owner && value == c.value {
		// Optimistically successful: its output becomes spendable.
		for _, id := range tx.OutputIDs() {
			g.coins = append(g.coins, genCoin{id: id, owner: recipient, value: value})
		}
	}
	return g.request(t, issuer, tx.Encode())
}

// genRequest draws one randomized request: mostly transactions with
// overlapping coin sets, mixed with ordered queries, garbage payloads, and
// issuer/signer mismatches.
func (g *batchGen) genRequest(t *testing.T) smr.Request {
	t.Helper()
	switch p := g.rng.Intn(100); {
	case p < 30 || len(g.coins) == 0:
		return g.genMint(t, g.rng.Intn(len(g.issuers)))
	case p < 70:
		return g.genSpend(t)
	case p < 80:
		addr := g.issuers[g.rng.Intn(len(g.issuers))].Public()
		return g.request(t, g.rng.Intn(len(g.issuers)), EncodeBalanceQuery(addr))
	case p < 85:
		return g.request(t, g.rng.Intn(len(g.issuers)), EncodeUTXOCountQuery())
	case p < 93:
		junk := make([]byte, 1+g.rng.Intn(40))
		g.rng.Read(junk)
		return g.request(t, g.rng.Intn(len(g.issuers)), junk)
	default:
		// Envelope signer ≠ transaction issuer.
		g.nonces[0]++
		tx, err := NewMint(g.issuers[0], g.nonces[0], 10)
		if err != nil {
			t.Fatalf("mint: %v", err)
		}
		return g.request(t, 1+g.rng.Intn(len(g.issuers)-1), tx.Encode())
	}
}

// scanBalance is the reference the index is checked against: the sum over
// the owner's coins as a scan of the UTXO set finds them.
func scanBalance(st *State, addr crypto.PublicKey) uint64 {
	var sum uint64
	for _, c := range st.CoinsOf(addr) {
		sum += c.Value
	}
	return sum
}

// checkBalanceIndex asserts that the index answers exactly what a scan would
// for every address in addrs, and that it holds one entry per owner with a
// non-zero sum and nothing else — no zero entries, no entries for owners the
// test does not know.
func checkBalanceIndex(t *testing.T, st *State, addrs []crypto.PublicKey, when string) {
	t.Helper()
	nonZero := 0
	for i, a := range addrs {
		want := scanBalance(st, a)
		if got := st.Balance(a); got != want {
			t.Fatalf("%s: Balance(addr %d) = %d, scan over CoinsOf = %d", when, i, got, want)
		}
		if want != 0 {
			nonZero++
		}
	}
	entries := 0
	for i := range st.balances {
		for owner, sum := range st.balances[i].sums {
			if sum == 0 {
				t.Fatalf("%s: zero entry left behind for owner %x", when, owner)
			}
			entries++
		}
	}
	if entries != nonZero {
		t.Fatalf("%s: index holds %d entries, %d known owners have a non-zero balance", when, entries, nonZero)
	}
}

// TestBalanceIndexMatchesScan is the property test of the per-owner balance
// index: after Prepopulate (twice over the same owner), randomized batches of
// MINTs, SPENDs, failing transactions, replayed MINTs and garbage, and a
// Snapshot→Restore, Balance(a) equals the scan sum over CoinsOf(a) for every
// address. The snapshot is byte-identical to that of a service that executed
// the same transactions but never answered a balance query: the index is
// derived, not state.
func TestBalanceIndexMatchesScan(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			g := newBatchGen(seed, 4)
			prepopOnly := crypto.SeededKeyPair("prepop-only", seed).Public()
			addrs := append(g.publics(), prepopOnly, crypto.PublicKey{})

			svc := NewService(g.publics())
			quiet := NewService(g.publics()) // never asked for a balance
			for _, s := range []*Service{svc, quiet} {
				s.Prepopulate(prepopOnly, 50, 3)
				s.Prepopulate(prepopOnly, 40, 5) // same IDs again: replaces 40 of the 50
				s.Prepopulate(g.issuers[0].Public(), 20, 7)
			}
			checkBalanceIndex(t, svc.State(), addrs, "after Prepopulate")
			if got, want := svc.State().Balance(prepopOnly), uint64(40*5+10*3); got != want {
				t.Fatalf("re-prepopulated owner: balance %d, want %d", got, want)
			}

			var mints []smr.Request
			for b := 0; b < 8; b++ {
				reqs := make([]smr.Request, 0, 36)
				for i := 0; i < 32; i++ {
					reqs = append(reqs, g.genRequest(t))
				}
				// Replay a few earlier MINTs under fresh request sequence
				// numbers: they re-create coin IDs that may still be
				// unspent.
				for i := 0; i < 4 && len(mints) > 0; i++ {
					old := mints[g.rng.Intn(len(mints))]
					for k, iss := range g.issuers {
						if iss.Public().Equal(old.PubKey) {
							reqs = append(reqs, g.request(t, k, old.Op))
						}
					}
				}
				for _, r := range reqs {
					if tx, err := Decode(r.Op); err == nil && tx.Type == TxMint && r.PubKey.Equal(tx.Issuer) {
						mints = append(mints, r)
					}
				}
				svc.ExecuteBatch(smr.BatchContext{}, reqs)
				var writes []smr.Request
				for _, r := range reqs {
					if !IsQuery(r.Op) {
						writes = append(writes, r)
					}
				}
				quiet.ExecuteBatch(smr.BatchContext{}, writes)
				checkBalanceIndex(t, svc.State(), addrs, fmt.Sprintf("after batch %d", b))
			}

			snap := svc.Snapshot()
			if !bytes.Equal(snap, quiet.Snapshot()) {
				t.Fatal("snapshot differs from a service that never answered a balance query")
			}
			restored := NewService(nil)
			if err := restored.Restore(snap); err != nil {
				t.Fatalf("restore: %v", err)
			}
			checkBalanceIndex(t, restored.State(), addrs, "after Restore into a fresh service")
			if err := svc.Restore(snap); err != nil {
				t.Fatalf("restore in place: %v", err)
			}
			checkBalanceIndex(t, svc.State(), addrs, "after Restore in place")
			if !bytes.Equal(restored.Snapshot(), snap) {
				t.Fatal("snapshot not stable across Restore")
			}
		})
	}
}

// TestBalanceIndexDrainedAndZeroValueOwners pins the index's corner cases: an
// owner whose coins are all spent leaves no entry, an owner holding only
// zero-value coins never gets one, and a replayed MINT whose output is still
// unspent does not credit its owner twice.
func TestBalanceIndexDrainedAndZeroValueOwners(t *testing.T) {
	st, m := newTestState()
	alice, bob := userKey(1), userKey(2)
	addrs := []crypto.PublicKey{m.Public(), alice.Public(), bob.Public()}

	coins := mustMint(t, st, m, 1, 30, 12)
	replay, err := NewMint(m, 1, 30, 12)
	if err != nil {
		t.Fatalf("mint: %v", err)
	}
	if res := st.Apply(&replay); res[0] != ResultOK {
		t.Fatalf("replayed mint: code %d", res[0])
	}
	if got := st.Balance(m.Public()); got != 42 {
		t.Fatalf("balance after a replayed mint: %d, want 42", got)
	}

	spend, err := NewSpend(m, 2, coins, []Output{{Owner: alice.Public(), Value: 42}, {Owner: bob.Public(), Value: 0}})
	if err != nil {
		t.Fatalf("spend: %v", err)
	}
	if res := st.Apply(&spend); res[0] != ResultOK {
		t.Fatalf("spend: code %d", res[0])
	}
	if len(st.CoinsOf(bob.Public())) != 1 {
		t.Fatal("bob should hold one zero-value coin")
	}
	checkBalanceIndex(t, st, addrs, "after draining the minter")
	if got := st.Balance(alice.Public()); got != 42 {
		t.Fatalf("alice: %d, want 42", got)
	}
	if st.Balance(m.Public()) != 0 || st.Balance(bob.Public()) != 0 {
		t.Fatal("drained and zero-value owners must read 0")
	}
}

var balanceSink uint64

// BenchmarkBalance shows the balance lookup no longer scales with the UTXO
// set: ten times the coins, the same cost.
func BenchmarkBalance(b *testing.B) {
	for _, n := range []int{30_000, 300_000} {
		b.Run(fmt.Sprintf("utxos=%d", n), func(b *testing.B) {
			svc := NewService(nil)
			owner := userKey(1).Public()
			svc.Prepopulate(userKey(2).Public(), n/2, 1)
			svc.Prepopulate(owner, n/2, 1)
			st := svc.State()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				balanceSink = st.Balance(owner)
			}
		})
	}
}
