// Package workload generates the SMaRtCoin client workloads of the paper's
// evaluation (§VI-A): a MINT phase that creates coins, followed by a SPEND
// phase of single-input single-output transfers. Scripts are deterministic
// per client so every run of an experiment issues identical transactions.
package workload

import (
	"sync"

	"smartchain/internal/coin"
	"smartchain/internal/crypto"
)

// Script is a closed-loop client's transaction source: NextOp consumes the
// previous operation's result (to learn created coin IDs) and produces the
// next operation payload.
type Script interface {
	// Key returns the client's signing identity.
	Key() *crypto.KeyPair
	// NextOp returns the next application operation. prev is the result of
	// the previous operation (nil on the first call). ok=false means the
	// script is exhausted.
	NextOp(prev []byte) (op []byte, ok bool)
}

// CoinScript is the paper's two-phase workload for one client: mint a pool
// of coins, then spend them to fresh addresses one at a time. When the pool
// runs dry it re-mints, so the script never exhausts (closed-loop load for
// a fixed duration).
type CoinScript struct {
	key   *crypto.KeyPair
	sink  crypto.PublicKey // spend recipient (a distinct per-client address)
	mu    sync.Mutex
	nonce uint64
	pool  []coin.CoinID
	value uint64
	phase byte // 1 = minting, 2 = spending
}

// mintBatch is how many coins one MINT of a CoinScript creates.
const mintBatch = 16

// NewCoinScript builds the script for client i. Clients derive their keys
// from (label, i) so the workload is reproducible; all clients are
// authorized minters in the experiments (their keys go into genesis).
func NewCoinScript(label string, i int64) *CoinScript {
	return &CoinScript{
		key:   crypto.SeededKeyPair(label+"/client", i),
		sink:  crypto.SeededKeyPair(label+"/sink", i).Public(),
		value: 100,
		phase: 1,
	}
}

// Key implements Script.
func (s *CoinScript) Key() *crypto.KeyPair { return s.key }

// MinterKeys returns the minter identities for clients 0..n-1, for genesis
// authorization.
func MinterKeys(label string, n int) []crypto.PublicKey {
	out := make([]crypto.PublicKey, n)
	for i := 0; i < n; i++ {
		out[i] = crypto.SeededKeyPair(label+"/client", int64(i)).Public()
	}
	return out
}

// NextOp implements Script.
func (s *CoinScript) NextOp(prev []byte) ([]byte, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	// Absorb coins created by the previous op.
	if prev != nil {
		if code, coins, err := coin.ParseResult(prev); err == nil && code == coin.ResultOK {
			s.pool = append(s.pool, coins...)
		}
	}
	s.nonce++
	if s.phase == 1 {
		s.phase = 2
		values := make([]uint64, mintBatch)
		for i := range values {
			values[i] = s.value
		}
		tx, err := coin.NewMint(s.key, s.nonce, values...)
		if err != nil {
			return nil, false
		}
		return tx.Encode(), true
	}
	if len(s.pool) == 0 {
		// Pool dry: mint again.
		s.phase = 1
		s.nonce--
		s.mu.Unlock()
		op, ok := s.NextOp(nil)
		s.mu.Lock()
		return op, ok
	}
	in := s.pool[0]
	s.pool = s.pool[1:]
	tx, err := coin.NewSpend(s.key, s.nonce, []coin.CoinID{in}, []coin.Output{{Owner: s.sink, Value: s.value}})
	if err != nil {
		return nil, false
	}
	return tx.Encode(), true
}

// MintOnlyScript issues only MINT transactions (the MINT rows of Table I).
type MintOnlyScript struct {
	key   *crypto.KeyPair
	mu    sync.Mutex
	nonce uint64
}

// NewMintOnlyScript builds a mint-only script for client i.
func NewMintOnlyScript(label string, i int64) *MintOnlyScript {
	return &MintOnlyScript{key: crypto.SeededKeyPair(label+"/client", i)}
}

// Key implements Script.
func (s *MintOnlyScript) Key() *crypto.KeyPair { return s.key }

// NextOp implements Script.
func (s *MintOnlyScript) NextOp(prev []byte) ([]byte, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.nonce++
	tx, err := coin.NewMint(s.key, s.nonce, 100)
	if err != nil {
		return nil, false
	}
	return tx.Encode(), true
}
