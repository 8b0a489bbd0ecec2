package coin

import (
	"bytes"
	"fmt"
	"sort"
	"sync"
	"testing"
	"testing/quick"

	"smartchain/internal/codec"
	"smartchain/internal/crypto"
	"smartchain/internal/smr"
)

func minterKey(i int64) *crypto.KeyPair { return crypto.SeededKeyPair("minter", i) }
func userKey(i int64) *crypto.KeyPair   { return crypto.SeededKeyPair("user", i) }

func newTestState() (*State, *crypto.KeyPair) {
	m := minterKey(0)
	return NewState([]crypto.PublicKey{m.Public()}), m
}

func mustMint(t *testing.T, s *State, key *crypto.KeyPair, nonce uint64, values ...uint64) []CoinID {
	t.Helper()
	tx, err := NewMint(key, nonce, values...)
	if err != nil {
		t.Fatalf("mint: %v", err)
	}
	res := s.Apply(&tx)
	code, coins, err := ParseResult(res)
	if err != nil || code != ResultOK {
		t.Fatalf("mint result: code=%d err=%v", code, err)
	}
	return coins
}

func TestMintCreatesCoins(t *testing.T) {
	s, m := newTestState()
	coins := mustMint(t, s, m, 1, 100, 50)
	if len(coins) != 2 {
		t.Fatalf("got %d coins", len(coins))
	}
	if s.Balance(m.Public()) != 150 {
		t.Fatalf("balance: %d", s.Balance(m.Public()))
	}
	if s.TotalSupply() != 150 || s.UTXOCount() != 2 {
		t.Fatalf("supply=%d count=%d", s.TotalSupply(), s.UTXOCount())
	}
	c, ok := s.Lookup(coins[0])
	if !ok || c.Value != 100 || !c.Owner.Equal(m.Public()) {
		t.Fatalf("lookup: %+v ok=%v", c, ok)
	}
}

func TestMintUnauthorized(t *testing.T) {
	s, _ := newTestState()
	intruder := userKey(1)
	tx, err := NewMint(intruder, 1, 100)
	if err != nil {
		t.Fatalf("mint: %v", err)
	}
	res := s.Apply(&tx)
	if res[0] != ResultErrUnauthorized {
		t.Fatalf("code: %d", res[0])
	}
	if s.TotalSupply() != 0 {
		t.Fatal("unauthorized mint must not create value")
	}
}

func TestSpendTransfersOwnership(t *testing.T) {
	s, m := newTestState()
	alice, bob := userKey(1), userKey(2)
	coins := mustMint(t, s, m, 1, 100)

	// minter → alice
	tx, err := NewSpend(m, 2, coins, []Output{{Owner: alice.Public(), Value: 100}})
	if err != nil {
		t.Fatalf("spend: %v", err)
	}
	res := s.Apply(&tx)
	code, newCoins, _ := ParseResult(res)
	if code != ResultOK || len(newCoins) != 1 {
		t.Fatalf("spend result: %d %d", code, len(newCoins))
	}
	if s.Balance(alice.Public()) != 100 || s.Balance(m.Public()) != 0 {
		t.Fatalf("balances: alice=%d minter=%d", s.Balance(alice.Public()), s.Balance(m.Public()))
	}

	// alice → bob (60) + change to alice (40)
	tx2, err := NewSpend(alice, 1, newCoins, []Output{
		{Owner: bob.Public(), Value: 60},
		{Owner: alice.Public(), Value: 40},
	})
	if err != nil {
		t.Fatalf("spend2: %v", err)
	}
	res2 := s.Apply(&tx2)
	if res2[0] != ResultOK {
		t.Fatalf("spend2 code: %d", res2[0])
	}
	if s.Balance(bob.Public()) != 60 || s.Balance(alice.Public()) != 40 {
		t.Fatalf("balances: bob=%d alice=%d", s.Balance(bob.Public()), s.Balance(alice.Public()))
	}
	if s.TotalSupply() != 100 {
		t.Fatalf("supply must be conserved: %d", s.TotalSupply())
	}
}

func TestSpendRejectsNonOwner(t *testing.T) {
	s, m := newTestState()
	coins := mustMint(t, s, m, 1, 100)
	thief := userKey(9)
	tx, err := NewSpend(thief, 1, coins, []Output{{Owner: thief.Public(), Value: 100}})
	if err != nil {
		t.Fatalf("spend: %v", err)
	}
	if res := s.Apply(&tx); res[0] != ResultErrNotOwner {
		t.Fatalf("code: %d", res[0])
	}
	if s.Balance(m.Public()) != 100 {
		t.Fatal("theft must not move funds")
	}
}

func TestSpendRejectsDoubleSpend(t *testing.T) {
	s, m := newTestState()
	coins := mustMint(t, s, m, 1, 100)
	spend := func() byte {
		tx, err := NewSpend(m, 2, coins, []Output{{Owner: m.Public(), Value: 100}})
		if err != nil {
			t.Fatalf("spend: %v", err)
		}
		return s.Apply(&tx)[0]
	}
	if code := spend(); code != ResultOK {
		t.Fatalf("first spend: %d", code)
	}
	if code := spend(); code != ResultErrUnknownCoin {
		t.Fatalf("second spend of same coin: %d", code)
	}
	// Duplicate input inside a single tx, on a live coin.
	fresh := mustMint(t, s, m, 4, 100)
	tx, err := NewSpend(m, 3, []CoinID{fresh[0], fresh[0]}, []Output{{Owner: m.Public(), Value: 200}})
	if err != nil {
		t.Fatalf("spend: %v", err)
	}
	if res := s.Apply(&tx); res[0] != ResultErrDoubleSpend {
		t.Fatalf("intra-tx double spend: %d", res[0])
	}
}

func TestSpendRejectsValueMismatch(t *testing.T) {
	s, m := newTestState()
	coins := mustMint(t, s, m, 1, 100)
	for _, outValue := range []uint64{99, 101} {
		tx, err := NewSpend(m, 2, coins, []Output{{Owner: m.Public(), Value: outValue}})
		if err != nil {
			t.Fatalf("spend: %v", err)
		}
		if res := s.Apply(&tx); res[0] != ResultErrValueMismatch {
			t.Fatalf("out=%d code: %d", outValue, res[0])
		}
	}
}

func TestSpendUnknownCoin(t *testing.T) {
	s, _ := newTestState()
	u := userKey(1)
	fake := crypto.HashBytes([]byte("no-such-coin"))
	tx, err := NewSpend(u, 1, []CoinID{fake}, []Output{{Owner: u.Public(), Value: 1}})
	if err != nil {
		t.Fatalf("spend: %v", err)
	}
	if res := s.Apply(&tx); res[0] != ResultErrUnknownCoin {
		t.Fatalf("code: %d", res[0])
	}
}

func TestMalformedTransactions(t *testing.T) {
	s, m := newTestState()
	// Mint with no outputs.
	mintNoOut, err := NewMint(m, 1)
	if err != nil {
		t.Fatalf("mint: %v", err)
	}
	if res := s.Apply(&mintNoOut); res[0] != ResultErrMalformed {
		t.Fatalf("empty mint: %d", res[0])
	}
	// Spend with no inputs.
	spendNoIn, err := NewSpend(m, 1, nil, []Output{{Owner: m.Public(), Value: 1}})
	if err != nil {
		t.Fatalf("spend: %v", err)
	}
	if res := s.Apply(&spendNoIn); res[0] != ResultErrMalformed {
		t.Fatalf("inputless spend: %d", res[0])
	}
	// Unknown type.
	bad := Tx{Type: TxType(99)}
	if res := s.Apply(&bad); res[0] != ResultErrMalformed {
		t.Fatalf("unknown type: %d", res[0])
	}
}

func TestTxEncodeDecodeRoundTrip(t *testing.T) {
	m := minterKey(0)
	u := userKey(1)
	in := crypto.HashBytes([]byte("input"))
	tx, err := NewSpend(m, 7, []CoinID{in}, []Output{
		{Owner: u.Public(), Value: 42},
		{Owner: m.Public(), Value: 8},
	})
	if err != nil {
		t.Fatalf("spend: %v", err)
	}
	got, err := Decode(tx.Encode())
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if got.Type != TxSpend || !got.Issuer.Equal(m.Public()) || got.Nonce != 7 ||
		len(got.Inputs) != 1 || got.Inputs[0] != in ||
		len(got.Outputs) != 2 || got.Outputs[0].Value != 42 {
		t.Fatalf("round trip: %+v", got)
	}
	if got.Hash() != tx.Hash() {
		t.Fatal("hash must survive round trip")
	}
	if _, err := Decode([]byte("garbage")); err == nil {
		t.Fatal("garbage must not decode")
	}
}

// TestOutputIDsMatchCreatedCoins pins OutputIDs (a transaction's created
// coins, derived without executing it) to the IDs execution actually
// creates.
func TestOutputIDsMatchCreatedCoins(t *testing.T) {
	s, m := newTestState()
	tx, err := NewMint(m, 1, 10, 20, 30)
	if err != nil {
		t.Fatalf("mint: %v", err)
	}
	predicted := tx.OutputIDs()
	res := s.Apply(&tx)
	code, created, err := ParseResult(res)
	if err != nil || code != ResultOK {
		t.Fatalf("apply: code=%d err=%v", code, err)
	}
	if fmt.Sprint(predicted) != fmt.Sprint(created) {
		t.Fatalf("OutputIDs diverge from created coins:\n  predicted %v\n  created   %v", predicted, created)
	}
}

func TestRequestSizesMatchPaperBallpark(t *testing.T) {
	// Paper §IV-B: MINT requests ≈180 B, SPEND ≈310 B (single input,
	// single output). The request signature is the only one either
	// carries; the package doc quotes these sizes.
	m := minterKey(0)
	mint, err := NewMint(m, 1, 100)
	if err != nil {
		t.Fatalf("mint: %v", err)
	}
	mintReq, err := smr.NewSignedRequest(1, 1, mint.Encode(), m)
	if err != nil {
		t.Fatalf("req: %v", err)
	}
	spend, err := NewSpend(m, 2, []CoinID{crypto.HashBytes([]byte("c"))}, []Output{{Owner: m.Public(), Value: 100}})
	if err != nil {
		t.Fatalf("spend: %v", err)
	}
	spendReq, err := smr.NewSignedRequest(1, 2, spend.Encode(), m)
	if err != nil {
		t.Fatalf("req: %v", err)
	}
	if mintSize, spendSize := len(mintReq.Encode()), len(spendReq.Encode()); mintSize != 230 || spendSize != 262 {
		t.Fatalf("signed request sizes: MINT %d B, SPEND %d B; want 230 B and 262 B", mintSize, spendSize)
	}
	// IsQuery's claim: a transaction encoding starts with its TxType, never
	// with a query kind byte.
	for _, tx := range []Tx{mint, spend} {
		if op := tx.Encode(); op[0] != byte(tx.Type) || IsQuery(op) {
			t.Fatalf("type %d encodes to a query or off its TxType: %x", tx.Type, op[:1])
		}
	}
}

func TestValueConservationProperty(t *testing.T) {
	// Property: no sequence of SPEND transactions changes total supply,
	// regardless of how they are constructed.
	s, m := newTestState()
	mustMint(t, s, m, 1, 100, 200, 300)
	initial := s.TotalSupply()

	f := func(splits []uint8) bool {
		coins := s.CoinsOf(m.Public())
		if len(coins) == 0 {
			return s.TotalSupply() == initial
		}
		c := coins[0]
		// Split the coin into up to 3 outputs that sum to its value.
		n := 1
		if len(splits) > 0 {
			n = int(splits[0]%3) + 1
		}
		outs := make([]Output, 0, n)
		remaining := c.Value
		for i := 0; i < n-1; i++ {
			part := remaining / 2
			outs = append(outs, Output{Owner: m.Public(), Value: part})
			remaining -= part
		}
		outs = append(outs, Output{Owner: m.Public(), Value: remaining})
		tx, err := NewSpend(m, uint64(len(splits))+10, []CoinID{c.ID}, outs)
		if err != nil {
			return false
		}
		res := s.Apply(&tx)
		return res[0] == ResultOK && s.TotalSupply() == initial
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestServiceExecuteBatch(t *testing.T) {
	m := minterKey(0)
	svc := NewService([]crypto.PublicKey{m.Public()})

	mint, err := NewMint(m, 1, 500)
	if err != nil {
		t.Fatalf("mint: %v", err)
	}
	req, err := smr.NewSignedRequest(1, 1, mint.Encode(), m)
	if err != nil {
		t.Fatalf("req: %v", err)
	}
	// A request whose envelope key differs from the tx issuer.
	intruder := userKey(5)
	hijack, err := smr.NewSignedRequest(2, 1, mint.Encode(), intruder)
	if err != nil {
		t.Fatalf("req: %v", err)
	}
	// A request with garbage op.
	garbage, err := smr.NewSignedRequest(3, 1, []byte("junk"), intruder)
	if err != nil {
		t.Fatalf("req: %v", err)
	}

	results := svc.ExecuteBatch(smr.BatchContext{}, []smr.Request{req, hijack, garbage})
	if results[0][0] != ResultOK {
		t.Fatalf("mint result: %d", results[0][0])
	}
	if results[1][0] != ResultErrBadSignature {
		t.Fatalf("hijack result: %d", results[1][0])
	}
	if results[2][0] != ResultErrMalformed {
		t.Fatalf("garbage result: %d", results[2][0])
	}
	if svc.State().Balance(m.Public()) != 500 {
		t.Fatalf("balance: %d", svc.State().Balance(m.Public()))
	}
}

// TestOrderedQueryObservesPrefix proves an ordered query at batch position i
// observes exactly the writes of positions < i — including writes of the
// same batch.
func TestOrderedQueryObservesPrefix(t *testing.T) {
	m := minterKey(0)
	alice := userKey(1)
	svc := NewService([]crypto.PublicKey{m.Public()})

	mintTx, err := NewMint(m, 1, 100)
	if err != nil {
		t.Fatalf("mint: %v", err)
	}
	coinID := mintTx.OutputIDs()[0]
	spendTx, err := NewSpend(m, 2, []CoinID{coinID}, []Output{{Owner: alice.Public(), Value: 100}})
	if err != nil {
		t.Fatalf("spend: %v", err)
	}

	mkReq := func(seq uint64, op []byte, key *crypto.KeyPair) smr.Request {
		req, err := smr.NewSignedRequest(7, seq, op, key)
		if err != nil {
			t.Fatalf("req: %v", err)
		}
		return req
	}
	batch := []smr.Request{
		mkReq(1, EncodeBalanceQuery(alice.Public()), m), // 0: before any write → 0
		mkReq(2, mintTx.Encode(), m),                    // 1: mint 100 to m
		mkReq(3, EncodeBalanceQuery(alice.Public()), m), // 2: mint didn't pay alice → 0
		mkReq(4, spendTx.Encode(), m),                   // 3: m → alice 100
		mkReq(5, EncodeBalanceQuery(alice.Public()), m), // 4: observes the spend → 100
		mkReq(6, EncodeUTXOCountQuery(), m),             // 5: 1 coin live
	}
	results := svc.ExecuteBatch(smr.BatchContext{}, batch)

	wantBalance := func(i int, want uint64) {
		t.Helper()
		got, err := ParseUint64Result(results[i])
		if err != nil {
			t.Fatalf("result %d: %v", i, err)
		}
		if got != want {
			t.Fatalf("query at position %d saw %d, want %d", i, got, want)
		}
	}
	if results[1][0] != ResultOK || results[3][0] != ResultOK {
		t.Fatalf("tx results: %d %d", results[1][0], results[3][0])
	}
	wantBalance(0, 0)
	wantBalance(2, 0)
	wantBalance(4, 100)
	wantBalance(5, 1) // UTXO count after mint+spend
}

// TestExecuteBatchRaceStress runs batch execution concurrently with
// snapshots, queries, and restores — the lock discipline (execution gate,
// shard locks, minter lock) must hold under the race detector.
func TestExecuteBatchRaceStress(t *testing.T) {
	g := newBatchGen(42, 3)
	svc := NewService(g.publics())

	// Seed some state and capture a snapshot to restore mid-stream.
	seedBatch := make([]smr.Request, 8)
	for i := range seedBatch {
		seedBatch[i] = g.genMint(t, i%3)
	}
	svc.ExecuteBatch(smr.BatchContext{}, seedBatch)
	seedSnap := svc.Snapshot()

	batches := make([][]smr.Request, 30)
	for b := range batches {
		reqs := make([]smr.Request, 16)
		for i := range reqs {
			reqs[i] = g.genRequest(t)
		}
		batches[b] = reqs
	}

	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(3)
	go func() { // unordered queries against live state
		defer wg.Done()
		addr := g.issuers[0].Public()
		for {
			select {
			case <-done:
				return
			default:
			}
			svc.State().Balance(addr)
			svc.State().UTXOCount()
			svc.ExecuteUnordered(smr.Request{Op: EncodeBalanceQuery(addr)})
		}
	}()
	go func() { // snapshots (state transfer reads)
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			if snap := svc.Snapshot(); len(snap) < 8 {
				t.Error("short snapshot")
				return
			}
		}
	}()
	go func() { // restores (incoming state transfer)
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			if err := svc.Restore(seedSnap); err != nil {
				t.Errorf("restore: %v", err)
				return
			}
		}
	}()

	for _, reqs := range batches {
		results := svc.ExecuteBatch(smr.BatchContext{}, reqs)
		if len(results) != len(reqs) {
			t.Fatalf("results: %d", len(results))
		}
	}
	close(done)
	wg.Wait()
}

func TestServiceVerifyOp(t *testing.T) {
	m := minterKey(0)
	svc := NewService([]crypto.PublicKey{m.Public()})
	mint, err := NewMint(m, 1, 5)
	if err != nil {
		t.Fatalf("mint: %v", err)
	}
	req, err := smr.NewSignedRequest(1, 1, mint.Encode(), m)
	if err != nil {
		t.Fatalf("req: %v", err)
	}
	if !svc.VerifyOp(&req) {
		t.Fatal("valid op must verify")
	}
	bad := req
	bad.PubKey = userKey(1).Public()
	if svc.VerifyOp(&bad) {
		t.Fatal("a transaction whose issuer is not the request signer must not verify")
	}
	bad = req
	bad.Op = []byte("junk")
	if svc.VerifyOp(&bad) {
		t.Fatal("garbage op must not verify")
	}
}

func TestSnapshotRestoreRoundTrip(t *testing.T) {
	m := minterKey(0)
	svc := NewService([]crypto.PublicKey{m.Public()})
	alice := userKey(1)
	mint, err := NewMint(m, 1, 100, 200)
	if err != nil {
		t.Fatalf("mint: %v", err)
	}
	svc.State().Apply(&mint)
	coins := svc.State().CoinsOf(m.Public())
	spend, err := NewSpend(m, 2, []CoinID{coins[0].ID}, []Output{{Owner: alice.Public(), Value: coins[0].Value}})
	if err != nil {
		t.Fatalf("spend: %v", err)
	}
	svc.State().Apply(&spend)

	snap := svc.Snapshot()
	// Snapshots are deterministic.
	if !bytes.Equal(snap, svc.Snapshot()) {
		t.Fatal("snapshot must be deterministic")
	}

	restored := NewService(nil)
	if err := restored.Restore(snap); err != nil {
		t.Fatalf("restore: %v", err)
	}
	if restored.State().TotalSupply() != svc.State().TotalSupply() {
		t.Fatal("supply differs after restore")
	}
	if restored.State().Balance(alice.Public()) != svc.State().Balance(alice.Public()) {
		t.Fatal("balance differs after restore")
	}
	if !bytes.Equal(restored.Snapshot(), snap) {
		t.Fatal("restored snapshot differs")
	}
	// Minters carried over: the original minter can still mint.
	mint2, err := NewMint(m, 3, 5)
	if err != nil {
		t.Fatalf("mint: %v", err)
	}
	if res := restored.State().Apply(&mint2); res[0] != ResultOK {
		t.Fatalf("minting after restore: %d", res[0])
	}
	if err := restored.Restore([]byte("garbage")); err == nil {
		t.Fatal("garbage snapshot must not restore")
	}
}

// TestRestoreRejectsCorruptCounts exercises the snapshot hardening: declared
// element counts far beyond the actual buffer must be rejected up front (no
// count-sized allocation), and a failed restore must leave state untouched.
func TestRestoreRejectsCorruptCounts(t *testing.T) {
	m := minterKey(0)
	svc := NewService([]crypto.PublicKey{m.Public()})
	mustMint(t, svc.State(), m, 1, 100, 200)
	before := svc.Snapshot()

	hugeCoins := func() []byte {
		e := codec.NewEncoder(64)
		e.Uint32(0)          // no minters
		e.Uint32(1 << 30)    // a billion declared coins...
		e.Uint64(0xdeadbeef) // ...backed by 8 bytes
		return e.Bytes()
	}()
	hugeMinters := func() []byte {
		e := codec.NewEncoder(8)
		e.Uint32(1 << 30)
		return e.Bytes()
	}()
	truncated := before[:len(before)-10]

	for name, snap := range map[string][]byte{
		"huge coin count":   hugeCoins,
		"huge minter count": hugeMinters,
		"truncated coins":   truncated,
		"empty":             nil,
	} {
		if err := svc.Restore(snap); err == nil {
			t.Fatalf("%s: restore must fail", name)
		}
	}
	if !bytes.Equal(svc.Snapshot(), before) {
		t.Fatal("failed restore must leave state untouched")
	}
}

func TestPrepopulate(t *testing.T) {
	svc := NewService(nil)
	owner := userKey(1)
	ids := svc.Prepopulate(owner.Public(), 1000, 7)
	if len(ids) != 1000 {
		t.Fatalf("ids: %d", len(ids))
	}
	if svc.State().UTXOCount() != 1000 {
		t.Fatalf("count: %d", svc.State().UTXOCount())
	}
	if svc.State().Balance(owner.Public()) != 7000 {
		t.Fatalf("balance: %d", svc.State().Balance(owner.Public()))
	}
	// Prepopulated coins are spendable.
	tx, err := NewSpend(owner, 1, []CoinID{ids[0]}, []Output{{Owner: owner.Public(), Value: 7}})
	if err != nil {
		t.Fatalf("spend: %v", err)
	}
	if res := svc.State().Apply(&tx); res[0] != ResultOK {
		t.Fatalf("spend prepopulated: %d", res[0])
	}
}

func TestParseResultErrors(t *testing.T) {
	if _, _, err := ParseResult(nil); err == nil {
		t.Fatal("empty result must error")
	}
	if _, _, err := ParseResult(make([]byte, 10)); err == nil {
		t.Fatal("ragged result must error")
	}
	code, coins, err := ParseResult([]byte{ResultOK})
	if err != nil || code != ResultOK || len(coins) != 0 {
		t.Fatalf("bare code: %d %d %v", code, len(coins), err)
	}
}

// CoinsOf returns the coins owned by addr, sorted by ID for determinism.
func (s *State) CoinsOf(addr crypto.PublicKey) []Coin {
	s.execMu.RLock()
	defer s.execMu.RUnlock()
	var out []Coin
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		for _, c := range sh.utxos {
			if c.Owner.Equal(addr) {
				out = append(out, c)
			}
		}
		sh.mu.RUnlock()
	}
	sort.Slice(out, func(i, j int) bool {
		return compareHash(out[i].ID, out[j].ID) < 0
	})
	return out
}

// EncodeUTXOCountQuery frames a UTXO-count query.
func EncodeUTXOCountQuery() []byte { return []byte{QueryUTXOCount} }
