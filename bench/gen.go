package main

import (
	"fmt"
	"math/rand"

	"smartchain/internal/coin"
	"smartchain/internal/core"
	"smartchain/internal/crypto"
)

// The load shape shared by every workload: two client identities, each
// spending coins that were prepopulated for its key, to recipients drawn
// from a fixed address universe.
const (
	numProxies   = 2
	universeSize = 1024
	coinValue    = 100
)

type opKind byte

const (
	opSpend opKind = iota
	opRead
)

// genOp is one generated operation. The cluster receives only payload; the
// rest is what the benchmark needs to audit and trace the op.
type genOp struct {
	kind    opKind
	payload []byte      // OpApp-framed application operation
	in      coin.CoinID // SPEND: the input coin, which identifies the op in a trace
	out     coin.CoinID // SPEND: the coin the recipient must own once acknowledged
}

// identities derives the client keys and the recipient universe from the
// seed, so a different seed changes every signed byte of the stream.
type identities struct {
	keys     [numProxies]*crypto.KeyPair
	universe []crypto.PublicKey
}

func newIdentities(seed int64) *identities {
	label := fmt.Sprintf("bench/seed-%d", seed)
	ids := &identities{universe: make([]crypto.PublicKey, universeSize)}
	for p := range ids.keys {
		ids.keys[p] = crypto.SeededKeyPair(label+"/proxy", int64(p))
	}
	for i := range ids.universe {
		ids.universe[i] = crypto.SeededKeyPair(label+"/recipient", int64(i)).Public()
	}
	return ids
}

// prepopulate installs each proxy's coins into a fresh service, exactly as
// every replica's AppFactory does, and returns their IDs in spending order.
func (ids *identities) prepopulate(svc *coin.Service, coinsPerProxy int) [numProxies][]coin.CoinID {
	var coins [numProxies][]coin.CoinID
	for p, k := range ids.keys {
		coins[p] = svc.Prepopulate(k.Public(), coinsPerProxy, coinValue)
	}
	return coins
}

// opStream is one proxy's operation source: a pure function of (seed, proxy,
// readShare, coins). Every SPEND consumes the next prepopulated coin, so
// spends never depend on an earlier result and no op can fail for lack of
// funds; a read is a balance query for the proxy's own address.
type opStream struct {
	key       *crypto.KeyPair
	coins     []coin.CoinID
	universe  []crypto.PublicKey
	rng       *rand.Rand
	readShare float64
	readOp    []byte
	spent     int
}

func newOpStream(ids *identities, seed int64, proxy int, coins []coin.CoinID, readShare float64) *opStream {
	key := ids.keys[proxy]
	return &opStream{
		key:       key,
		coins:     coins,
		universe:  ids.universe,
		rng:       rand.New(rand.NewSource(seed*numProxies + int64(proxy))),
		readShare: readShare,
		readOp:    core.WrapAppOp(coin.EncodeBalanceQuery(key.Public())),
	}
}

// next produces the following op of the stream. It fails only when the
// prepopulated coins are exhausted, which the workload sizes rule out.
func (s *opStream) next() (genOp, error) {
	if s.readShare > 0 && s.rng.Float64() < s.readShare {
		return genOp{kind: opRead, payload: s.readOp}, nil
	}
	if s.spent >= len(s.coins) {
		return genOp{}, fmt.Errorf("op stream: all %d prepopulated coins spent", len(s.coins))
	}
	in := s.coins[s.spent]
	s.spent++
	to := s.universe[s.rng.Intn(len(s.universe))]
	tx, err := coin.NewSpend(s.key, uint64(s.spent), []coin.CoinID{in}, []coin.Output{{Owner: to, Value: coinValue}})
	if err != nil {
		return genOp{}, fmt.Errorf("op stream: sign spend: %w", err)
	}
	return genOp{kind: opSpend, payload: core.WrapAppOp(tx.Encode()), in: in, out: tx.OutputID(0)}, nil
}
