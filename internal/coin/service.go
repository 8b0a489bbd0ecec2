package coin

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"runtime"
	"sort"
	"sync"

	"smartchain/internal/codec"
	"smartchain/internal/crypto"
	"smartchain/internal/smr"
)

// Service adapts SMaRtCoin to the replicated-service interface consumed by
// the SMARTCHAIN node (the BFT-SMaRt invoke/execute pattern, paper §IV-A):
// batches of ordered requests in, deterministic per-request results out,
// with snapshot/restore for checkpoints and state transfer.
type Service struct {
	state *State
}

// NewService creates a coin service with the given authorized minters
// (normally taken from the genesis block).
func NewService(minters []crypto.PublicKey) *Service {
	return &Service{state: NewState(minters)}
}

// State exposes the underlying UTXO state for queries.
func (s *Service) State() *State { return s.state }

// ExecuteBatch executes the requests one after another in batch order and
// returns one result per request. Requests whose operations fail to parse
// yield a malformed result rather than aborting the batch: correct replicas
// must stay in lockstep even on garbage input. The coin rules do not
// consume the ordering context — SMaRtCoin state is a pure function of the
// transaction sequence — so the BatchContext is accepted and ignored.
//
// The batch holds the state's execution gate exclusively, so unordered
// queries and snapshots observe only block-boundary states.
func (s *Service) ExecuteBatch(_ smr.BatchContext, reqs []smr.Request) [][]byte {
	s.state.execMu.Lock()
	defer s.state.execMu.Unlock()
	results := make([][]byte, len(reqs))
	for i := range reqs {
		results[i] = s.executeLocked(&reqs[i])
	}
	return results
}

// executeLocked applies a single ordered request. The caller holds the
// state's execution gate exclusively (ExecuteBatch does).
func (s *Service) executeLocked(req *smr.Request) []byte {
	if IsQuery(req.Op) {
		// An ordered read: the client's unordered read fell back to total
		// order (read floor unserveable at a quorum). Queries are
		// deterministic reads of the state as of this point in the
		// sequence: every earlier request of the batch has applied, no
		// later one has.
		return s.executeQueryLocked(*req)
	}
	tx, err := Decode(req.Op)
	if err != nil {
		return []byte{ResultErrMalformed}
	}
	// The request signer must be the transaction issuer: the request
	// signature is the only one a transaction has, so any other signer
	// could spend the issuer's coins under their own request envelope.
	if !req.PubKey.Equal(tx.Issuer) {
		return []byte{ResultErrBadSignature}
	}
	return s.state.Apply(&tx)
}

// Read-only query operations, served over the consensus-free unordered
// path (ExecuteUnordered). Query payloads are tagged with a leading kind
// byte from a namespace disjoint from transaction encodings, so a query
// can never be mistaken for a state-changing transaction.
const (
	// QueryBalance asks for the total value owned by an address.
	QueryBalance byte = 0x51
	// QueryUTXOCount asks for the global number of unspent coins.
	QueryUTXOCount byte = 0x52
)

// EncodeBalanceQuery frames a balance query for addr.
func EncodeBalanceQuery(addr crypto.PublicKey) []byte {
	return append([]byte{QueryBalance}, addr...)
}

// IsQuery reports whether op is a read-only query payload. The query kind
// bytes are disjoint from transaction encodings, whose first byte is the
// TxType, so the answer is unambiguous.
func IsQuery(op []byte) bool {
	return len(op) > 0 && (op[0] == QueryBalance || op[0] == QueryUTXOCount)
}

// ParseUint64Result decodes a numeric query result (balance, UTXO count).
func ParseUint64Result(result []byte) (uint64, error) {
	if len(result) != 9 || result[0] != ResultOK {
		return 0, fmt.Errorf("coin: bad query result")
	}
	d := codec.NewDecoder(result[1:])
	v := d.Uint64()
	if err := d.Finish(); err != nil {
		return 0, err
	}
	return v, nil
}

func uint64Result(v uint64) []byte {
	e := codec.NewEncoder(9)
	e.Byte(ResultOK)
	e.Uint64(v)
	return e.Bytes()
}

// executeQueryLocked answers a query from inside a batch execution: the
// caller holds the state's execution gate exclusively, so the public query
// entry points (which acquire it shared) would deadlock.
func (s *Service) executeQueryLocked(req smr.Request) []byte {
	if len(req.Op) == 0 {
		return []byte{ResultErrMalformed}
	}
	switch req.Op[0] {
	case QueryBalance:
		return uint64Result(s.state.balanceLocked(crypto.PublicKey(req.Op[1:])))
	case QueryUTXOCount:
		if len(req.Op) != 1 {
			return []byte{ResultErrMalformed}
		}
		return uint64Result(uint64(s.state.utxoCountLocked()))
	default:
		return []byte{ResultErrMalformed}
	}
}

// ExecuteUnordered implements the consensus-free read capability: queries
// are answered from the current local UTXO state. Results are
// deterministic functions of that state, so the client-side matching-reply
// quorum establishes that a Byzantine quorum of replicas agree on the
// answer. The state's execution gate makes every answer reflect a block
// boundary, matching the executed height the reply's view tag reports.
func (s *Service) ExecuteUnordered(req smr.Request) []byte {
	if len(req.Op) == 0 {
		return []byte{ResultErrMalformed}
	}
	switch req.Op[0] {
	case QueryBalance:
		return uint64Result(s.state.Balance(crypto.PublicKey(req.Op[1:])))
	case QueryUTXOCount:
		if len(req.Op) != 1 {
			return []byte{ResultErrMalformed}
		}
		return uint64Result(uint64(s.state.UTXOCount()))
	default:
		return []byte{ResultErrMalformed}
	}
}

// VerifyOp is the admission check behind the request signature, and does no
// crypto: the op must be a query, or a transaction whose issuer signed the
// request. That signature covers the whole encoded transaction and is the
// only one a transaction has; the check admits nothing that executeLocked
// would refuse for the wrong signer. A read needs no more than the request
// signature, also when it arrives on the ordered path as a read-floor
// fallback.
func (s *Service) VerifyOp(req *smr.Request) bool {
	if IsQuery(req.Op) {
		return true
	}
	tx, err := Decode(req.Op)
	return err == nil && req.PubKey.Equal(tx.Issuer)
}

// Snapshot serializes the full service state deterministically (UTXOs
// sorted by coin ID, minters sorted by key bytes).
func (s *Service) Snapshot() []byte {
	st := s.state
	st.execMu.RLock()
	defer st.execMu.RUnlock()

	var ids []CoinID
	for i := range st.shards {
		sh := &st.shards[i]
		sh.mu.RLock()
		for id := range sh.utxos {
			ids = append(ids, id)
		}
		sh.mu.RUnlock()
	}
	sort.Slice(ids, func(i, j int) bool { return compareHash(ids[i], ids[j]) < 0 })

	st.mintersMu.RLock()
	minters := make([]string, 0, len(st.minters))
	for m := range st.minters {
		minters = append(minters, m)
	}
	st.mintersMu.RUnlock()
	sort.Strings(minters)

	e := codec.NewEncoder(64 + 80*len(ids))
	e.Uint32(uint32(len(minters)))
	for _, m := range minters {
		e.WriteBytes([]byte(m))
	}
	e.Uint32(uint32(len(ids)))
	for _, id := range ids {
		c, _ := st.getCoin(id)
		e.Bytes32(id)
		e.WriteBytes(c.Owner)
		e.Uint64(c.Value)
	}
	return e.Bytes()
}

// Restore replaces the service state with a snapshot produced by Snapshot.
// Both element counts go through codec.Count, so a corrupt or Byzantine
// state-transfer snapshot cannot force a pre-allocation its own length does
// not back.
func (s *Service) Restore(snapshot []byte) error {
	d := codec.NewDecoder(snapshot)
	nMinters := d.Count(4) // a length-prefixed key
	minters := make(map[string]bool, nMinters)
	for ; nMinters > 0 && d.Err() == nil; nMinters-- {
		minters[string(d.ReadBytes())] = true
	}
	nCoins := d.Count(32 + 4 + 8) // ID, owner length prefix, value
	if d.Err() != nil {
		return fmt.Errorf("coin restore: %w", d.Err())
	}
	// Decode straight into fresh shard maps and a fresh balance index; the
	// live state is untouched until the whole snapshot has parsed. Owner
	// keys are interned, each with its running balance: the coins of one
	// owner share one copy of its key, and the index is written once per
	// owner, so the decode allocates per distinct owner, not per coin.
	type ownerSum struct {
		key crypto.PublicKey
		sum uint64
	}
	owners := make(map[string]*ownerSum)
	var utxos [stateShards]map[CoinID]Coin
	for i := range utxos {
		utxos[i] = make(map[CoinID]Coin, nCoins/stateShards)
	}
	for ; nCoins > 0 && d.Err() == nil; nCoins-- {
		id := d.Bytes32()
		raw := d.ReadBytes()
		o := owners[string(raw)]
		if o == nil {
			o = &ownerSum{key: crypto.PublicKey(bytes.Clone(raw))}
			owners[string(raw)] = o
		}
		c := Coin{ID: id, Owner: o.key, Value: d.Uint64()}
		m := utxos[shardIndex(c.ID)]
		if old, dup := m[c.ID]; dup {
			// A repeated ID in a corrupt snapshot: the last entry wins.
			owners[string(old.Owner)].sum -= old.Value
		}
		m[c.ID] = c
		o.sum += c.Value
	}
	if err := d.Finish(); err != nil {
		return fmt.Errorf("coin restore: %w", err)
	}
	var sums [stateShards]map[string]uint64
	for i := range sums {
		sums[i] = make(map[string]uint64)
	}
	for key, o := range owners {
		if o.sum != 0 {
			sums[balanceShardIndex(o.key)][key] = o.sum
		}
	}

	// Nothing else reaches the shards while execMu is held exclusively, so
	// the maps are swapped in without the per-shard locks.
	st := s.state
	st.execMu.Lock()
	defer st.execMu.Unlock()
	st.mintersMu.Lock()
	st.minters = minters
	st.mintersMu.Unlock()
	for i := range st.shards {
		st.shards[i].utxos = utxos[i]
		st.balances[i].sums = sums[i]
	}
	return nil
}

// prepopPerWorker is the fewest coins Prepopulate hands one goroutine: below
// 2×prepopPerWorker the whole build runs on the caller's.
const prepopPerWorker = 4096

// Prepopulate injects synthetic UTXOs directly into the state. The Fig. 7
// experiment preloads millions of UTXOs to give the service a realistic
// state size; doing that through MINT transactions would dominate setup
// time without changing behaviour. Coin i's ID is the hash of ("prepop", i,
// owner), so the IDs, the UTXO set and the balances are a function of the
// arguments alone, whatever the worker count. It holds execMu exclusively,
// so it writes the shard maps without their locks and credits the owner
// once. The build runs on min(GOMAXPROCS, count/prepopPerWorker) goroutines
// in three phases: derive the IDs by index, insert them with each worker
// the only writer of its own shards (each map sized for what it will hold),
// then sum the workers' credits.
func (s *Service) Prepopulate(owner crypto.PublicKey, count int, value uint64) []CoinID {
	st := s.state
	st.execMu.Lock()
	defer st.execMu.Unlock()
	workers := max(1, min(runtime.GOMAXPROCS(0), count/prepopPerWorker))

	ids := make([]CoinID, count)
	fanOut(workers, func(w int) {
		e := codec.NewEncoder(4 + len("prepop") + 4 + 4 + len(owner))
		e.String("prepop")
		at := e.Len()
		e.Uint32(0)
		e.WriteBytes(owner)
		msg := e.Bytes()
		for i := count * w / workers; i < count*(w+1)/workers; i++ {
			binary.BigEndian.PutUint32(msg[at:], uint32(i))
			ids[i] = crypto.HashBytes(msg)
		}
	})

	var adding [stateShards]int
	for _, id := range ids {
		adding[shardIndex(id)]++
	}
	credits := make([]uint64, workers)
	fanOut(workers, func(w int) {
		for i := w; i < stateShards; i += workers {
			st.shards[i].utxos = presized(st.shards[i].utxos, adding[i])
		}
		var credit uint64
		for _, id := range ids {
			if shardIndex(id)%workers != w {
				continue
			}
			m := st.shards[shardIndex(id)].utxos
			// The ID commits to the owner, so a coin already under it (the
			// same owner prepopulated twice) is this owner's; a missing one
			// reads 0.
			credit += value - m[id].Value
			m[id] = Coin{ID: id, Owner: owner, Value: value}
		}
		credits[w] = credit
	})
	var credit uint64
	for _, c := range credits {
		credit += c
	}
	addBalance(st.balances[balanceShardIndex(owner)].sums, owner, credit)
	return ids
}

// presized returns m, or a copy of it with room for adding more entries
// when that at least doubles it: growing that far would move every entry
// at least once anyway, and the copy spares the inserts every growth step.
func presized(m map[CoinID]Coin, adding int) map[CoinID]Coin {
	if adding == 0 || adding < len(m) {
		return m
	}
	out := make(map[CoinID]Coin, len(m)+adding)
	for id, c := range m {
		out[id] = c
	}
	return out
}

// fanOut runs fn(0) … fn(workers-1) concurrently and returns when all have;
// one worker runs on the caller's goroutine.
func fanOut(workers int, fn func(w int)) {
	if workers == 1 {
		fn(0)
		return
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn(w)
		}()
	}
	wg.Wait()
}

// ParseResult decodes a result produced by ExecuteBatch into the status
// code and created coin IDs.
func ParseResult(result []byte) (code byte, coins []CoinID, err error) {
	if len(result) == 0 {
		return 0, nil, fmt.Errorf("coin: empty result")
	}
	code = result[0]
	rest := result[1:]
	if len(rest)%crypto.HashSize != 0 {
		return 0, nil, fmt.Errorf("coin: ragged result")
	}
	for len(rest) > 0 {
		coins = append(coins, crypto.HashFromBytes(rest[:crypto.HashSize]))
		rest = rest[crypto.HashSize:]
	}
	return code, coins, nil
}
