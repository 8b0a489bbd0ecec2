package coin

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"

	"smartchain/internal/codec"
	"smartchain/internal/crypto"
)

// prepopulateSequential is Prepopulate as a single loop: one encoding, one
// hash and one map insert per coin, in index order. It is the oracle the
// parallel build must match.
func prepopulateSequential(s *Service, owner crypto.PublicKey, count int, value uint64) []CoinID {
	st := s.state
	st.execMu.Lock()
	defer st.execMu.Unlock()
	ids := make([]CoinID, 0, count)
	var credit uint64
	for i := 0; i < count; i++ {
		e := codec.NewEncoder(4 + len("prepop") + 4 + 4 + len(owner))
		e.String("prepop")
		e.Uint32(uint32(i))
		e.WriteBytes(owner)
		id := crypto.HashBytes(e.Bytes())
		m := st.shards[shardIndex(id)].utxos
		credit += value - m[id].Value
		m[id] = Coin{ID: id, Owner: owner, Value: value}
		ids = append(ids, id)
	}
	addBalance(st.balances[balanceShardIndex(owner)].sums, owner, credit)
	return ids
}

type prepopCall struct {
	owner crypto.PublicKey
	count int
	value uint64
}

// TestPrepopulateMatchesSequential runs each sequence of Prepopulate calls
// into one service through the parallel build and through the sequential
// oracle, at one and at four procs, and requires the same IDs from every
// call and the same snapshot bytes, balances and supply at the end.
func TestPrepopulateMatchesSequential(t *testing.T) {
	a, b := userKey(1).Public(), userKey(2).Public()
	cases := []struct {
		name  string
		calls []prepopCall
	}{
		{"zero", []prepopCall{{a, 0, 5}}},
		{"one", []prepopCall{{a, 1, 5}}},
		{"below threshold", []prepopCall{{a, 2*prepopPerWorker - 1, 5}}},
		{"at threshold", []prepopCall{{a, 2 * prepopPerWorker, 5}}},
		{"120k", []prepopCall{{a, 120_000, 1}}},
		{"two owners", []prepopCall{{a, 30_000, 3}, {b, 30_000, 7}}},
		{"same owner twice", []prepopCall{{a, 20_000, 3}, {a, 30_000, 7}}},
	}
	for _, procs := range []int{1, 4} {
		for _, tc := range cases {
			t.Run(fmt.Sprintf("%s/procs=%d", tc.name, procs), func(t *testing.T) {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
				got, want := NewService(nil), NewService(nil)
				for i, c := range tc.calls {
					gotIDs := got.Prepopulate(c.owner, c.count, c.value)
					wantIDs := prepopulateSequential(want, c.owner, c.count, c.value)
					if len(gotIDs) != len(wantIDs) {
						t.Fatalf("call %d: %d IDs, want %d", i, len(gotIDs), len(wantIDs))
					}
					for j := range wantIDs {
						if gotIDs[j] != wantIDs[j] {
							t.Fatalf("call %d: ID %d differs", i, j)
						}
					}
				}
				if !bytes.Equal(got.Snapshot(), want.Snapshot()) {
					t.Fatal("snapshot bytes differ")
				}
				for _, o := range []crypto.PublicKey{a, b} {
					if g, w := got.State().Balance(o), want.State().Balance(o); g != w {
						t.Fatalf("balance %d, want %d", g, w)
					}
				}
				if g, w := got.State().TotalSupply(), want.State().TotalSupply(); g != w {
					t.Fatalf("supply %d, want %d", g, w)
				}
			})
		}
	}
}

// BenchmarkPrepopulate measures the second of two 60k-coin calls: the one
// that finds its shards already holding coins, as every replica's second
// proxy does.
func BenchmarkPrepopulate(b *testing.B) {
	first, second := userKey(1).Public(), userKey(2).Public()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		svc := NewService(nil)
		svc.Prepopulate(first, 60_000, 1)
		b.StartTimer()
		svc.Prepopulate(second, 60_000, 1)
	}
}

// BenchmarkRestore restores a 60k-coin snapshot held by two owners.
func BenchmarkRestore(b *testing.B) {
	src := NewService(nil)
	src.Prepopulate(userKey(1).Public(), 30_000, 1)
	src.Prepopulate(userKey(2).Public(), 30_000, 1)
	snap := src.Snapshot()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := NewService(nil).Restore(snap); err != nil {
			b.Fatal(err)
		}
	}
}
