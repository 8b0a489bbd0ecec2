// Package coin implements SMaRtCoin (paper §IV-A): a UTXO-model digital
// coin service, the "simplest useful blockchain application". It supports
// MINT (authorized addresses create coins) and SPEND (coin owners transfer
// them). A transaction carries no signature of its own: its issuer signs the
// request that carries it, and execution refuses a transaction whose issuer
// is not that request's signer. One signature per request keeps a signed
// one-output MINT request at 230 B and a single-input single-output SPEND
// request at 262 B, in the ballpark the paper reports (~180 B and ~310 B;
// TestRequestSizesMatchPaperBallpark).
//
// The service is deterministic: executing the same transaction sequence from
// the same genesis state always yields the same state and results, which is
// what state machine replication requires (paper §II-B).
package coin

import (
	"errors"
	"fmt"
	"sync"

	"smartchain/internal/codec"
	"smartchain/internal/crypto"
)

// TxType discriminates the two SMaRtCoin transactions.
type TxType byte

const (
	// TxMint creates value for an address on the authorized-minters list.
	TxMint TxType = iota + 1
	// TxSpend consumes input coins and produces output coins.
	TxSpend
)

// Execution result codes, the first byte of every result.
const (
	ResultOK byte = iota + 1
	ResultErrUnauthorized
	ResultErrUnknownCoin
	ResultErrNotOwner
	ResultErrValueMismatch
	ResultErrBadSignature
	ResultErrMalformed
	ResultErrDoubleSpend
)

// ErrMalformedTx is returned by Decode for bytes that are not a transaction.
var ErrMalformedTx = errors.New("coin: malformed transaction")

// CoinID uniquely identifies a coin: the hash of the transaction that
// created it and the output index.
type CoinID = crypto.Hash

// Coin is one unspent transaction output.
type Coin struct {
	ID    CoinID
	Owner crypto.PublicKey
	Value uint64
}

// Output is a (recipient, amount) pair of a transaction.
type Output struct {
	Owner crypto.PublicKey
	Value uint64
}

// Tx is a SMaRtCoin transaction. It is authorised by the signature on the
// request that carries it, whose signer must be Issuer.
type Tx struct {
	Type    TxType
	Issuer  crypto.PublicKey
	Inputs  []CoinID // SPEND only
	Outputs []Output
	Nonce   uint64 // distinguishes otherwise-identical mints
}

// NewMint builds a MINT transaction creating outputs for the issuer. The
// issuer authorises it by signing the request that carries it.
func NewMint(issuer *crypto.KeyPair, nonce uint64, values ...uint64) (Tx, error) {
	tx := Tx{Type: TxMint, Issuer: issuer.Public(), Nonce: nonce}
	for _, v := range values {
		tx.Outputs = append(tx.Outputs, Output{Owner: issuer.Public(), Value: v})
	}
	return tx, nil
}

// NewSpend builds a SPEND transaction. The issuer authorises it by signing
// the request that carries it.
func NewSpend(issuer *crypto.KeyPair, nonce uint64, inputs []CoinID, outputs []Output) (Tx, error) {
	return Tx{Type: TxSpend, Issuer: issuer.Public(), Inputs: inputs, Outputs: outputs, Nonce: nonce}, nil
}

// Hash returns the transaction identity: the hash of its encoding, which
// includes Issuer and Nonce, so otherwise-identical mints get distinct IDs.
func (tx *Tx) Hash() crypto.Hash {
	return crypto.HashBytes(tx.Encode())
}

// OutputID derives the coin ID of output index i of this transaction.
func (tx *Tx) OutputID(i int) CoinID {
	return outputID(tx.Hash(), i)
}

// OutputIDs derives every output's coin ID, hashing the transaction once
// (OutputID re-hashes per call; execution needs all of them).
func (tx *Tx) OutputIDs() []CoinID {
	h := tx.Hash()
	ids := make([]CoinID, len(tx.Outputs))
	for i := range tx.Outputs {
		ids[i] = outputID(h, i)
	}
	return ids
}

func outputID(txHash crypto.Hash, i int) CoinID {
	e := codec.NewEncoder(36)
	e.Bytes32(txHash)
	e.Uint32(uint32(i))
	return crypto.HashBytes(e.Bytes())
}

// Encode serializes the transaction (the operation payload of a request):
// type, issuer, inputs, outputs, nonce. The first byte is the TxType, which
// keeps every encoding apart from the query kind bytes.
func (tx *Tx) Encode() []byte {
	e := codec.NewEncoder(64 + 40*len(tx.Inputs) + 48*len(tx.Outputs))
	e.Byte(byte(tx.Type))
	e.WriteBytes(tx.Issuer)
	e.Uint32(uint32(len(tx.Inputs)))
	for _, in := range tx.Inputs {
		e.Bytes32(in)
	}
	e.Uint32(uint32(len(tx.Outputs)))
	for _, out := range tx.Outputs {
		e.WriteBytes(out.Owner)
		e.Uint64(out.Value)
	}
	e.Uint64(tx.Nonce)
	return e.Bytes()
}

// Decode parses an encoded transaction.
func Decode(data []byte) (Tx, error) {
	d := codec.NewDecoder(data)
	var tx Tx
	tx.Type = TxType(d.Byte())
	tx.Issuer = crypto.PublicKey(d.ReadBytesCopy())
	tx.Inputs = codec.List(d, 32, func(d *codec.Decoder) CoinID { return d.Bytes32() })
	tx.Outputs = codec.List(d, 4+8, func(d *codec.Decoder) Output {
		return Output{Owner: crypto.PublicKey(d.ReadBytesCopy()), Value: d.Uint64()}
	})
	tx.Nonce = d.Uint64()
	if err := d.Finish(); err != nil {
		return Tx{}, fmt.Errorf("%w: %v", ErrMalformedTx, err)
	}
	if tx.Type != TxMint && tx.Type != TxSpend {
		return Tx{}, fmt.Errorf("%w: type %d", ErrMalformedTx, tx.Type)
	}
	return tx, nil
}

// stateShards is the UTXO map shard count. Shard selection uses the first
// byte of the (uniformly distributed) coin ID hash, so it must stay a power
// of two ≤ 256.
const stateShards = 64

// stateShard is one slice of the UTXO set with its own lock. State.execMu
// already keeps a batch apart from readers; the shard lock guards each map
// access on its own, whether or not its caller holds the gate.
type stateShard struct {
	mu    sync.RWMutex
	utxos map[CoinID]Coin
}

// balanceShard is one slice of the per-owner balance index.
type balanceShard struct {
	mu   sync.RWMutex
	sums map[string]uint64 // key: string(owner); owners summing to 0 have no entry
}

// State is the SMaRtCoin service state: the UTXO set plus the minter list
// (paper: "a table with the coins assigned to each address in memory and a
// list of addresses authorized to create new coins"). The UTXO set is
// sharded by coin ID; execMu gates whole-batch execution against readers —
// a batch holds it exclusively, readers hold it shared — so queries and
// snapshots observe only block-boundary states, never a half-applied
// transaction.
//
// balances is the paper's per-address table: the sum (mod 2^64, exactly what
// a scan of the set would add up) of every unspent coin of an owner,
// maintained by putCoin/deleteCoin. It is derived from the UTXO set and never
// serialised — Restore rebuilds it — so snapshots and checkpoint hashes do
// not know it exists.
type State struct {
	// execMu is held exclusively for the duration of one batch application
	// and shared by every reader entry point (queries, snapshots). Within a
	// batch, in-batch ordered queries use the *Locked variants instead: the
	// batch already holds the gate, and its requests run one at a time.
	execMu sync.RWMutex

	shards   [stateShards]stateShard
	balances [stateShards]balanceShard

	mintersMu sync.RWMutex
	minters   map[string]bool // key: string(PublicKey)
}

// NewState creates a state authorizing the given minter addresses.
func NewState(minters []crypto.PublicKey) *State {
	s := &State{minters: make(map[string]bool, len(minters))}
	for i := range s.shards {
		s.shards[i].utxos = make(map[CoinID]Coin)
		s.balances[i].sums = make(map[string]uint64)
	}
	for _, m := range minters {
		s.minters[string(m)] = true
	}
	return s
}

func shardIndex(id CoinID) int { return int(id[0] & (stateShards - 1)) }

func (s *State) shardOf(id CoinID) *stateShard { return &s.shards[shardIndex(id)] }

func (s *State) getCoin(id CoinID) (Coin, bool) {
	sh := s.shardOf(id)
	sh.mu.RLock()
	c, ok := sh.utxos[id]
	sh.mu.RUnlock()
	return c, ok
}

// putCoin installs c and credits its owner. A coin ID that is already
// unspent (a replayed MINT re-creates its outputs) is replaced, so its
// previous owner is debited first.
func (s *State) putCoin(c Coin) {
	sh := s.shardOf(c.ID)
	sh.mu.Lock()
	old, replaced := sh.utxos[c.ID]
	sh.utxos[c.ID] = c
	sh.mu.Unlock()
	if replaced {
		s.adjustBalance(old.Owner, -old.Value)
	}
	s.adjustBalance(c.Owner, c.Value)
}

// deleteCoin removes the coin and debits its owner.
func (s *State) deleteCoin(id CoinID) {
	sh := s.shardOf(id)
	sh.mu.Lock()
	c, ok := sh.utxos[id]
	delete(sh.utxos, id)
	sh.mu.Unlock()
	if ok {
		s.adjustBalance(c.Owner, -c.Value)
	}
}

// balanceShardIndex selects an owner's index shard by its first key byte
// (Ed25519 keys are uniformly distributed; the empty owner a malformed
// output can name lands in shard 0).
func balanceShardIndex(owner crypto.PublicKey) int {
	if len(owner) == 0 {
		return 0
	}
	return int(owner[0] & (stateShards - 1))
}

// addBalance adds delta (two's complement: pass -v to debit) to owner's
// entry of one index shard map, dropping the entry when it reaches zero so
// drained owners do not accumulate.
func addBalance(sums map[string]uint64, owner crypto.PublicKey, delta uint64) {
	if sum := sums[string(owner)] + delta; sum != 0 {
		sums[string(owner)] = sum
	} else {
		delete(sums, string(owner))
	}
}

// adjustBalance is addBalance on the live index, under the owner's shard
// lock. Its callers run inside a batch, which holds execMu exclusively.
func (s *State) adjustBalance(owner crypto.PublicKey, delta uint64) {
	bs := &s.balances[balanceShardIndex(owner)]
	bs.mu.Lock()
	addBalance(bs.sums, owner, delta)
	bs.mu.Unlock()
}

// isMinter reports whether addr is authorized to mint. The minter set is
// immutable during batch execution (only Restore replaces it), so this is a
// read that never conflicts with transactions.
func (s *State) isMinter(addr crypto.PublicKey) bool {
	s.mintersMu.RLock()
	ok := s.minters[string(addr)]
	s.mintersMu.RUnlock()
	return ok
}

// Apply executes one transaction, mutating the state, and returns the
// result bytes stored in the block (result code, then created coin IDs).
// Signature verification is NOT performed here: the SMR layer checks the
// request signature with the configured strategy (sequential or parallel,
// Table I), and Service.executeLocked checks that the request's signer is
// the issuer. Apply enforces the semantic rules (authorization, ownership,
// conservation).
//
// Apply does not take the execution gate: Service.ExecuteBatch calls it
// holding execMu exclusively, one transaction at a time. A direct caller
// must likewise never run it concurrently with another Apply.
func (s *State) Apply(tx *Tx) []byte {
	switch tx.Type {
	case TxMint:
		return s.applyMint(tx)
	case TxSpend:
		return s.applySpend(tx)
	default:
		return []byte{ResultErrMalformed}
	}
}

func (s *State) applyMint(tx *Tx) []byte {
	if !s.isMinter(tx.Issuer) {
		return []byte{ResultErrUnauthorized}
	}
	if len(tx.Outputs) == 0 {
		return []byte{ResultErrMalformed}
	}
	return s.createOutputs(tx)
}

func (s *State) applySpend(tx *Tx) []byte {
	if len(tx.Inputs) == 0 || len(tx.Outputs) == 0 {
		return []byte{ResultErrMalformed}
	}
	var inSum uint64
	seen := make(map[CoinID]bool, len(tx.Inputs))
	for _, id := range tx.Inputs {
		if seen[id] {
			return []byte{ResultErrDoubleSpend}
		}
		seen[id] = true
		c, ok := s.getCoin(id)
		if !ok {
			return []byte{ResultErrUnknownCoin}
		}
		if !c.Owner.Equal(tx.Issuer) {
			return []byte{ResultErrNotOwner}
		}
		inSum += c.Value
	}
	var outSum uint64
	for _, o := range tx.Outputs {
		outSum += o.Value
	}
	if inSum != outSum {
		return []byte{ResultErrValueMismatch}
	}
	for _, id := range tx.Inputs {
		s.deleteCoin(id)
	}
	return s.createOutputs(tx)
}

// createOutputs materializes tx's outputs and returns OK + coin IDs.
func (s *State) createOutputs(tx *Tx) []byte {
	out := make([]byte, 1, 1+crypto.HashSize*len(tx.Outputs))
	out[0] = ResultOK
	ids := tx.OutputIDs()
	for i, o := range tx.Outputs {
		s.putCoin(Coin{ID: ids[i], Owner: o.Owner, Value: o.Value})
		out = append(out, ids[i][:]...)
	}
	return out
}

// Balance returns the total value of the coins owned by addr: one lookup in
// the balance index, independent of the size of the UTXO set.
func (s *State) Balance(addr crypto.PublicKey) uint64 {
	s.execMu.RLock()
	defer s.execMu.RUnlock()
	return s.balanceLocked(addr)
}

// balanceLocked is Balance for in-batch ordered queries: the caller
// (ExecuteBatch) already holds execMu exclusively, so no transaction runs
// concurrently.
func (s *State) balanceLocked(addr crypto.PublicKey) uint64 {
	bs := &s.balances[balanceShardIndex(addr)]
	bs.mu.RLock()
	sum := bs.sums[string(addr)]
	bs.mu.RUnlock()
	return sum
}

// TotalSupply sums every unspent coin.
//
//smartlint:allow structure the supply-conservation oracle of core's replay, admission and cluster tests
func (s *State) TotalSupply() uint64 {
	s.execMu.RLock()
	defer s.execMu.RUnlock()
	var sum uint64
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		for _, c := range sh.utxos {
			sum += c.Value
		}
		sh.mu.RUnlock()
	}
	return sum
}

// UTXOCount returns the number of unspent coins.
func (s *State) UTXOCount() int {
	s.execMu.RLock()
	defer s.execMu.RUnlock()
	return s.utxoCountLocked()
}

// utxoCountLocked is UTXOCount for in-batch ordered queries: the caller
// (ExecuteBatch) already holds execMu exclusively, so no transaction runs
// concurrently.
func (s *State) utxoCountLocked() int {
	n := 0
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		n += len(sh.utxos)
		sh.mu.RUnlock()
	}
	return n
}

// Lookup returns the coin with the given ID, if it is unspent.
func (s *State) Lookup(id CoinID) (Coin, bool) {
	s.execMu.RLock()
	defer s.execMu.RUnlock()
	return s.getCoin(id)
}

func compareHash(a, b crypto.Hash) int {
	for i := range a {
		switch {
		case a[i] < b[i]:
			return -1
		case a[i] > b[i]:
			return 1
		}
	}
	return 0
}
