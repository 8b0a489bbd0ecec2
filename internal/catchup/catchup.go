// Package catchup implements pluggable state transfer for SMARTCHAIN
// replicas: how a node that is behind the committed chain gets back to the
// tip while the cluster keeps serving clients.
//
// The package is deliberately split along a narrow seam:
//
//   - Pool owns the transfer *protocol* — which peers to ask, for what,
//     in which order, and what to do when a donor stalls, dies, or lies.
//   - A Fetcher (implemented by core.Node) owns the *mechanism* — sending
//     requests on the real transport, verifying fetched blocks against
//     consensus decision proofs, and installing state into the ledger,
//     application, and stores.
//
// Pool is a collaborative, Tendermint-blocksync-shaped protocol: a
// height-keyed request pool that round-robins snapshot-chunk and
// block-range requests across all live donors under per-peer in-flight
// caps, demotes peers that time out, permanently bans peers that serve
// chunks failing their quorum-agreed digests, and reassigns their work.
//
// Trust model: the envelope describing the snapshot (height, chunk digest
// chain, and the Fetcher's metadata — core's carries the block hash) is
// accepted only when f+1 of the asked peers offer byte-identical
// envelopes, so at least one correct replica vouches for it. Individual
// chunks are then verifiable alone (SHA-256 against the envelope), and
// fetched block ranges are verified against consensus decision proofs
// before any byte reaches the application — a snapshot is never restored
// before its envelope is bound to a committed block header.
package catchup

import (
	"fmt"
	"time"

	"smartchain/internal/blockchain"
	"smartchain/internal/codec"
	"smartchain/internal/crypto"
	"smartchain/internal/storage"
)

// Config tunes the collaborative pool. The zero value selects defaults.
type Config struct {
	// InFlightPerPeer caps outstanding requests per donor (default 4).
	InFlightPerPeer int
	// PeerTimeout is how long a donor may sit on a request before the work
	// is reassigned and the donor demoted (default 1s).
	PeerTimeout time.Duration
	// RangeBlocks is the number of blocks per block-range request
	// (default 64).
	RangeBlocks int
}

func (c Config) withDefaults() Config {
	if c.InFlightPerPeer <= 0 {
		c.InFlightPerPeer = 4
	}
	if c.PeerTimeout <= 0 {
		c.PeerTimeout = time.Second
	}
	if c.RangeBlocks <= 0 {
		c.RangeBlocks = 64
	}
	return c
}

// Stats counts what a Pool did. Cumulative across rounds except
// PeersUsed and BytesPerSec, which describe the most recent round.
type Stats struct {
	// Rounds is the number of rounds that found work to do.
	Rounds int64
	// PeersUsed is the number of distinct donors that contributed accepted
	// payloads in the most recent round.
	PeersUsed int64
	// ChunksFetched counts snapshot chunks accepted after digest checks.
	ChunksFetched int64
	// RangesFetched counts block ranges accepted and applied.
	RangesFetched int64
	// BlocksFetched counts blocks applied from fetched ranges.
	BlocksFetched int64
	// Redos counts requests reassigned after a timeout or bad response.
	Redos int64
	// SendFailures counts catch-up requests the transport refused to
	// accept (donor unreachable), after any per-send retry.
	SendFailures int64
	// Banned counts donors banned for serving payloads that failed
	// verification.
	Banned int64
	// Installs counts snapshots installed.
	Installs int64
	// BytesFetched counts accepted payload bytes.
	BytesFetched int64
	// BytesPerSec is the accepted-payload throughput of the most recent
	// round.
	BytesPerSec float64
}

// Envelope is a donor's snapshot offer: the chunked snapshot it holds and
// its current chain height. Snap.LastBlock is the block the state covers;
// that block's header hash lives in Snap.Meta, opaque coordination metadata
// the Fetcher understands (core's recovery envelope: view, watermarks,
// consensus position). Tip is per-donor and therefore excluded from
// Fingerprint.
type Envelope struct {
	Snap storage.SnapEnvelope
	Tip  int64
}

// Fingerprint hashes the snapshot envelope, Meta included: the value f+1
// donors must agree on before the envelope is trusted.
func (e *Envelope) Fingerprint() crypto.Hash {
	return crypto.HashBytes(e.Snap.Encode())
}

// Kind discriminates Response payloads.
type Kind uint8

// Response kinds.
const (
	KindEnvelope Kind = iota + 1
	KindChunk
	KindRange
)

// Response is one donor reply. The Fetcher's owner decodes it from the wire
// with DecodeResponse and hands it to the Pool's Handle.
type Response struct {
	Peer int32 // the sender: the frame's, never encoded
	Kind Kind  // the frame's type, never encoded

	// KindEnvelope carries the donor's snapshot offer.
	Envelope *Envelope

	// KindChunk: chunk Index of the snapshot covering block Height. Empty
	// Data means the donor does not hold it; the work goes elsewhere.
	Height int64
	Index  int
	Data   []byte

	// KindRange: blocks From..(From+len(Blocks)-1). No Blocks means the
	// donor no longer holds the range.
	From   int64
	Blocks []blockchain.Block
}

// Encode serializes the fields of the reply's Kind.
func (r *Response) Encode() []byte {
	switch r.Kind {
	case KindEnvelope:
		snap := r.Envelope.Snap.Encode()
		e := codec.NewEncoder(len(snap) + 8)
		e.Raw(snap)
		e.Int64(r.Envelope.Tip)
		return e.Bytes()
	case KindChunk:
		e := codec.NewEncoder(16 + len(r.Data))
		e.Int64(r.Height)
		e.Int32(int32(r.Index))
		e.WriteBytes(r.Data)
		return e.Bytes()
	}
	e := codec.NewEncoder(64)
	e.Int64(r.From)
	e.Uint32(uint32(len(r.Blocks)))
	for i := range r.Blocks {
		e.WriteBytes(r.Blocks[i].Encode())
	}
	return e.Bytes()
}

// DecodeResponse parses an Encode()d reply of the given kind; the caller
// sets Peer.
func DecodeResponse(kind Kind, data []byte) (Response, error) {
	d := codec.NewDecoder(data)
	r := Response{Kind: kind}
	switch kind {
	case KindEnvelope:
		snap, err := storage.DecodeSnapEnvelopeFrom(d)
		if err != nil {
			return Response{}, err
		}
		r.Envelope = &Envelope{Snap: snap, Tip: d.Int64()}
	case KindChunk:
		r.Height = d.Int64()
		r.Index = int(d.Int32())
		r.Data = d.ReadBytesCopy()
	case KindRange:
		r.From = d.Int64()
		for nb := d.Count(4); nb > 0; nb-- { // each a length-prefixed block
			b, err := blockchain.DecodeBlock(d.ReadBytes())
			if err != nil {
				return Response{}, err
			}
			r.Blocks = append(r.Blocks, b)
		}
	default:
		return Response{}, fmt.Errorf("catchup: unknown reply kind %d", kind)
	}
	if err := d.Finish(); err != nil {
		return Response{}, fmt.Errorf("decode catchup reply: %w", err)
	}
	return r, nil
}

// Fetcher is the mechanism the Pool drives: transport sends, verification
// against the committed chain, and installation. core.Node implements it;
// the pool tests substitute a simulated cluster.
//
// Verification contract: InstallSnapshot must reject state that fails the
// envelope's chunk digest chain, and must not be called by the Pool before
// the envelope is bound to a committed block header (an f+1 envelope
// quorum plus, when blocks beyond the snapshot exist, VerifyBlocks over a
// range extending the envelope). ApplyBlocks verifies decision proofs
// against the caller's current tip before replaying; ReplayBlocks skips
// proof verification and is only for ranges a VerifyBlocks call already
// covered.
type Fetcher interface {
	// Height returns the local committed chain height.
	Height() int64

	// RequestEnvelope asks peer for its snapshot envelope and tip.
	RequestEnvelope(peer int32) error
	// RequestChunk asks peer for chunk index of the snapshot at height.
	RequestChunk(peer int32, height int64, index int) error
	// RequestRange asks peer for blocks from..to inclusive.
	RequestRange(peer int32, from, to int64) error

	// VerifyBlocks checks that blocks extend the envelope's block (hash
	// linkage from the block Snap.LastBlock, whose hash Snap.Meta records)
	// with valid consensus decision proofs under the envelope's view,
	// without touching state.
	VerifyBlocks(env *Envelope, blocks []blockchain.Block) error
	// InstallSnapshot digest-verifies state against the envelope and
	// restores it into the application and ledger position.
	InstallSnapshot(env *Envelope, state []byte) error
	// ApplyBlocks verifies blocks against the current tip and replays them.
	ApplyBlocks(blocks []blockchain.Block) error
	// ReplayBlocks replays blocks whose proofs were already verified.
	ReplayBlocks(blocks []blockchain.Block) error
}
