package blockchain

import (
	"errors"
	"fmt"
	"sync"

	"smartchain/internal/codec"
	"smartchain/internal/crypto"
	"smartchain/internal/smr"
)

// Ledger errors.
var (
	ErrBadLinkage  = errors.New("blockchain: block does not extend the chain")
	ErrUnknownRef  = errors.New("blockchain: unknown block reference")
	ErrEmptyChain  = errors.New("blockchain: empty chain")
	ErrNotCertived = errors.New("blockchain: block not certified")
)

// Record kinds on disk. Algorithm 1 stages a block's data and its
// certificate as separate writes: the block record is what the syncDisk of
// closeBlock covers, the certificate record is appended asynchronously by
// the PERSIST phase (strong variant).
const (
	recBlock byte = iota + 1
	recCert
)

// EncodeBlockRecord frames a block for the log.
func EncodeBlockRecord(b *Block) []byte {
	e := codec.NewEncoder(64 + len(b.Body.BatchData))
	e.Byte(recBlock)
	e.WriteBytes(b.Encode())
	return e.Bytes()
}

// EncodeCertRecord frames a late-attached certificate for block number.
func EncodeCertRecord(number int64, cert *crypto.Certificate) []byte {
	e := codec.NewEncoder(64 + 100*len(cert.Sigs))
	e.Byte(recCert)
	e.Int64(number)
	cert.EncodeInto(e)
	return e.Bytes()
}

// DecodeRecords reassembles blocks from raw log records, attaching late
// certificate records to their blocks. Unknown record kinds are skipped
// (forward compatibility).
func DecodeRecords(records [][]byte) ([]Block, error) {
	var blocks []Block
	index := make(map[int64]int)
	for _, rec := range records {
		d := codec.NewDecoder(rec)
		switch d.Byte() {
		case recBlock:
			b, err := DecodeBlock(d.ReadBytes())
			if err != nil {
				return nil, err
			}
			if err := d.Finish(); err != nil {
				return nil, fmt.Errorf("block record: %w", err)
			}
			index[b.Header.Number] = len(blocks)
			blocks = append(blocks, b)
		case recCert:
			number := d.Int64()
			cert, err := crypto.DecodeCertificateFrom(d)
			if err != nil {
				return nil, fmt.Errorf("cert record: %w", err)
			}
			if err := d.Finish(); err != nil {
				return nil, fmt.Errorf("cert record: %w", err)
			}
			if i, ok := index[number]; ok {
				blocks[i].Cert = cert
			}
			// A certificate for an unknown block is ignored: it can only
			// happen if the block record was torn, and then the cert is
			// useless anyway.
		}
	}
	return blocks, nil
}

// Ledger tracks the chain tip and builds new blocks with correct back-links
// (Algorithm 1's bNum/lRec/lCkp/lbHash state). It also caches the blocks
// since the last checkpoint, which is exactly what state transfer ships
// alongside a snapshot (Algorithm 1 lines 55-57).
type Ledger struct {
	mu             sync.Mutex
	genesis        Genesis
	lastHash       crypto.Hash
	height         int64 // number of the last appended block
	lastReconfig   int64
	lastCheckpoint int64
	cache          []Block // blocks after the last checkpoint (excludes genesis)
	certQuorum     int     // advisory, for Finality queries
}

// NewLedger creates a ledger positioned right after the genesis block.
func NewLedger(g Genesis) *Ledger {
	gb := GenesisBlock(&g)
	return &Ledger{
		genesis:        g,
		lastHash:       gb.Hash(),
		height:         0,
		lastReconfig:   0,
		lastCheckpoint: -1,
	}
}

// NewLedgerAt creates a ledger positioned at an arbitrary chain point —
// after restoring from a snapshot that covers blocks up to height.
func NewLedgerAt(g Genesis, height int64, lastHash crypto.Hash, lastReconfig, lastCheckpoint int64) *Ledger {
	return &Ledger{
		genesis:        g,
		lastHash:       lastHash,
		height:         height,
		lastReconfig:   lastReconfig,
		lastCheckpoint: lastCheckpoint,
	}
}

// RecoverLedger rebuilds a ledger from decoded records (after a crash).
// It returns the ledger and the recovered blocks (including genesis).
// Linkage is validated; a broken link truncates the chain at the break,
// mirroring the torn-tail semantics of the storage layer.
func RecoverLedger(records [][]byte) (*Ledger, []Block, error) {
	blocks, err := DecodeRecords(records)
	if err != nil {
		return nil, nil, err
	}
	if len(blocks) == 0 {
		return nil, nil, ErrEmptyChain
	}
	g, err := ParseGenesisBlock(&blocks[0])
	if err != nil {
		return nil, nil, fmt.Errorf("recover: %w", err)
	}
	l := NewLedger(g)
	valid := blocks[:1]
	for i := 1; i < len(blocks); i++ {
		if err := l.Commit(&blocks[i]); err != nil {
			break // truncate at the first broken link
		}
		valid = append(valid, blocks[i])
	}
	return l, valid, nil
}

// Height returns the number of the last block.
func (l *Ledger) Height() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.height
}

// LastHash returns the hash of the last block's header.
func (l *Ledger) LastHash() crypto.Hash {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.lastHash
}

// LastCheckpoint returns the number of the last block covered by a
// checkpoint, or -1.
func (l *Ledger) LastCheckpoint() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.lastCheckpoint
}

// LastReconfig returns the number of the last reconfiguration block.
func (l *Ledger) LastReconfig() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.lastReconfig
}

// NextHeader prepares the header for the next block given its commitments.
func (l *Ledger) NextHeader(txRoot, resultsRoot crypto.Hash) Header {
	l.mu.Lock()
	defer l.mu.Unlock()
	return Header{
		Number:         l.height + 1,
		LastReconfig:   l.lastReconfig,
		LastCheckpoint: l.lastCheckpoint,
		TxRoot:         txRoot,
		ResultsRoot:    resultsRoot,
		PrevHash:       l.lastHash,
	}
}

// BuildBlock assembles the next transactions or reconfiguration block from
// a consensus decision and its execution results (Algorithm 1 lines 16-29
// and 37-48).
func (l *Ledger) BuildBlock(kind BlockKind, cid, epoch int64, batchData []byte, proof crypto.Certificate, results [][]byte, update *ViewUpdate) (Block, error) {
	batch, err := smr.DecodeBatch(batchData)
	if err != nil {
		return Block{}, fmt.Errorf("build block: %w", err)
	}
	header := l.NextHeader(TxRootOf(&batch), ResultsRootOf(results))
	return Block{
		Header: header,
		Body: Body{
			Kind:        kind,
			ConsensusID: cid,
			Epoch:       epoch,
			BatchData:   batchData,
			Proof:       proof,
			Results:     results,
			Update:      update,
		},
	}, nil
}

// Commit advances the ledger over a built block, validating linkage.
func (l *Ledger) Commit(b *Block) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if b.Header.Number != l.height+1 {
		return fmt.Errorf("%w: number %d after height %d", ErrBadLinkage, b.Header.Number, l.height)
	}
	if b.Header.PrevHash != l.lastHash {
		return fmt.Errorf("%w: prev hash mismatch at block %d", ErrBadLinkage, b.Header.Number)
	}
	if b.Header.LastReconfig != l.lastReconfig || b.Header.LastCheckpoint != l.lastCheckpoint {
		return fmt.Errorf("%w: stale back-links at block %d", ErrBadLinkage, b.Header.Number)
	}
	l.height = b.Header.Number
	l.lastHash = b.Header.Hash()
	if b.Body.Kind == KindReconfig {
		l.lastReconfig = b.Header.Number
	}
	l.cache = append(l.cache, *b)
	return nil
}

// AttachCert stores a late certificate on a cached block (PERSIST phase).
func (l *Ledger) AttachCert(number int64, cert crypto.Certificate) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	for i := range l.cache {
		if l.cache[i].Header.Number == number {
			l.cache[i].Cert = cert
			return nil
		}
	}
	return fmt.Errorf("%w: block %d not cached", ErrUnknownRef, number)
}

// MarkCheckpoint records that a snapshot now covers every block up to and
// including number, and prunes the cache accordingly (Algorithm 1 lines
// 49-54: resetCached + lCkp update).
func (l *Ledger) MarkCheckpoint(number int64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.lastCheckpoint = number
	kept := l.cache[:0]
	for _, b := range l.cache {
		if b.Header.Number > number {
			kept = append(kept, b)
		}
	}
	// Zero the dropped tail for GC.
	for i := len(kept); i < len(l.cache); i++ {
		l.cache[i] = Block{}
	}
	l.cache = kept
}

// ShouldCheckpoint reports whether a checkpoint is due after block number
// (every CheckpointPeriod blocks; period ≤ 0 disables checkpoints).
func (l *Ledger) ShouldCheckpoint(number int64) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	z := l.genesis.CheckpointPeriod
	return z > 0 && number > 0 && number%z == 0
}

// CachedBlocks returns a copy of the blocks after the last checkpoint, in
// order — the log tail that state transfer ships with the snapshot.
func (l *Ledger) CachedBlocks() []Block {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]Block, len(l.cache))
	copy(out, l.cache)
	return out
}

// CachedRange returns a copy of the cached blocks numbered from..to
// inclusive, or false if any block in the range has been pruned — the
// donor-side lookup for block-range catch-up requests.
func (l *Ledger) CachedRange(from, to int64) ([]Block, bool) {
	if from > to {
		return nil, false
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	// The cache is kept in commit order; find the start by number.
	start := -1
	for i := range l.cache {
		if l.cache[i].Header.Number == from {
			start = i
			break
		}
	}
	if start < 0 || start+int(to-from) >= len(l.cache) {
		return nil, false
	}
	out := make([]Block, to-from+1)
	copy(out, l.cache[start:start+len(out)])
	return out, true
}

// CachedBlock returns the cached block with the given number, if present.
//
//smartlint:allow structure core's replay, fault and read tests inspect one committed block
func (l *Ledger) CachedBlock(number int64) (Block, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for i := range l.cache {
		if l.cache[i].Header.Number == number {
			return l.cache[i], true
		}
	}
	return Block{}, false
}
