// Package blockchain implements the SMARTCHAIN blockchain layer
// (paper §V-B, Fig. 2, Algorithm 1): the block data structure with header,
// body, and certificate; the genesis block; the ledger tracker with
// Algorithm 1's staged write discipline; and full third-party chain
// verification, including view tracking across reconfiguration blocks.
package blockchain

import (
	"fmt"

	"smartchain/internal/codec"
	"smartchain/internal/crypto"
	"smartchain/internal/smr"
)

// ContextPersist is the signature domain of the PERSIST phase: replicas sign
// block-header hashes to assemble block certificates (paper §V-C, Fig. 3).
const ContextPersist = "smartchain/persist/v1"

// BlockKind discriminates the three block flavours of Fig. 2.
type BlockKind byte

const (
	// KindGenesis is block 0: consortium setup data.
	KindGenesis BlockKind = iota + 1
	// KindTransactions is an ordinary block of executed transactions.
	KindTransactions
	// KindReconfig records a consortium change and the new view's keys.
	KindReconfig
)

// Header is the block header of Fig. 2: block number, back-links to the
// last reconfiguration and checkpoint blocks, commitments to transactions
// and results, and the hash of the previous header.
type Header struct {
	Number         int64
	LastReconfig   int64
	LastCheckpoint int64
	TxRoot         crypto.Hash
	ResultsRoot    crypto.Hash
	PrevHash       crypto.Hash
}

// Encode serializes the header deterministically; Hash covers these bytes.
func (h *Header) Encode() []byte {
	e := codec.NewEncoder(120)
	e.Int64(h.Number)
	e.Int64(h.LastReconfig)
	e.Int64(h.LastCheckpoint)
	e.Bytes32(h.TxRoot)
	e.Bytes32(h.ResultsRoot)
	e.Bytes32(h.PrevHash)
	return e.Bytes()
}

func decodeHeaderFrom(d *codec.Decoder) Header {
	var h Header
	h.Number = d.Int64()
	h.LastReconfig = d.Int64()
	h.LastCheckpoint = d.Int64()
	h.TxRoot = d.Bytes32()
	h.ResultsRoot = d.Bytes32()
	h.PrevHash = d.Bytes32()
	return h
}

// Hash returns the header hash, which identifies the block and is what the
// next block's PrevHash and the certificate signatures cover.
func (h *Header) Hash() crypto.Hash {
	return crypto.HashBytes(h.Encode())
}

// ViewUpdate is the payload of a reconfiguration block: the new view's
// membership, the certified consensus keys collected by the reconfiguration
// quorum (paper §V-D), and, for joins, the new replica's permanent identity.
type ViewUpdate struct {
	NewViewID int64
	Members   []int32
	// Joining lists permanent public keys of replicas joining in this
	// update, so future verifiers can validate their certified keys.
	Joining []ReplicaInfo
	// Keys holds ≥ n−f certified consensus keys for the new view.
	Keys []crypto.CertifiedKey
}

// ReplicaInfo binds a replica ID to its permanent public key (and, in the
// genesis block, its initial consensus key).
type ReplicaInfo struct {
	ID           int32
	PermanentPub crypto.PublicKey
	ConsensusPub crypto.PublicKey
}

func (r *ReplicaInfo) encodeInto(e *codec.Encoder) {
	e.Int32(r.ID)
	e.WriteBytes(r.PermanentPub)
	e.WriteBytes(r.ConsensusPub)
}

// minReplicaInfoSize is the smallest encoding of one ReplicaInfo: the ID
// and two empty length-prefixed keys.
const minReplicaInfoSize = 4 + 4 + 4

func decodeReplicaInfoFrom(d *codec.Decoder) ReplicaInfo {
	var r ReplicaInfo
	r.ID = d.Int32()
	r.PermanentPub = crypto.PublicKey(d.ReadBytesCopy())
	r.ConsensusPub = crypto.PublicKey(d.ReadBytesCopy())
	return r
}

// Encode serializes a view update.
func (u *ViewUpdate) Encode() []byte {
	e := codec.NewEncoder(128 + 112*len(u.Keys))
	e.Int64(u.NewViewID)
	e.Uint32(uint32(len(u.Members)))
	for _, m := range u.Members {
		e.Int32(m)
	}
	e.Uint32(uint32(len(u.Joining)))
	for i := range u.Joining {
		u.Joining[i].encodeInto(e)
	}
	e.Uint32(uint32(len(u.Keys)))
	for _, k := range u.Keys {
		e.Int64(k.ViewID)
		e.Int32(k.Signer)
		e.WriteBytes(k.ConsensusPub)
		e.WriteBytes(k.PermanentSig)
	}
	return e.Bytes()
}

func decodeViewUpdateFrom(d *codec.Decoder) (ViewUpdate, error) {
	var u ViewUpdate
	u.NewViewID = d.Int64()
	u.Members = codec.List(d, 4, (*codec.Decoder).Int32)
	u.Joining = codec.List(d, minReplicaInfoSize, decodeReplicaInfoFrom)
	u.Keys = codec.List(d, 8+4+4+4, func(d *codec.Decoder) crypto.CertifiedKey {
		var k crypto.CertifiedKey
		k.ViewID = d.Int64()
		k.Signer = d.Int32()
		k.ConsensusPub = crypto.PublicKey(d.ReadBytesCopy())
		k.PermanentSig = d.ReadBytesCopy()
		return k
	})
	if d.Err() != nil {
		return ViewUpdate{}, fmt.Errorf("decode view update: %w", d.Err())
	}
	return u, nil
}

// Body is the block body of Fig. 2: consensus metadata, the ordered batch
// (kept as the exact bytes consensus decided, so digests recompute
// bit-for-bit), the decision proof, and per-transaction results. Reconfig
// blocks additionally carry the ViewUpdate.
type Body struct {
	Kind        BlockKind
	ConsensusID int64
	Epoch       int64
	BatchData   []byte
	Proof       crypto.Certificate
	Results     [][]byte
	Update      *ViewUpdate
}

// Batch decodes the body's batch bytes.
func (b *Body) Batch() (smr.Batch, error) {
	return smr.DecodeBatch(b.BatchData)
}

// Encode serializes the body.
func (b *Body) Encode() []byte {
	e := codec.NewEncoder(256 + len(b.BatchData))
	e.Byte(byte(b.Kind))
	e.Int64(b.ConsensusID)
	e.Int64(b.Epoch)
	e.WriteBytes(b.BatchData)
	b.Proof.EncodeInto(e)
	e.Uint32(uint32(len(b.Results)))
	for _, r := range b.Results {
		e.WriteBytes(r)
	}
	if b.Update != nil {
		e.Bool(true)
		e.WriteBytes(b.Update.Encode())
	} else {
		e.Bool(false)
	}
	return e.Bytes()
}

func decodeBodyFrom(d *codec.Decoder) (Body, error) {
	var b Body
	b.Kind = BlockKind(d.Byte())
	b.ConsensusID = d.Int64()
	b.Epoch = d.Int64()
	b.BatchData = d.ReadBytesCopy()
	proof, err := crypto.DecodeCertificateFrom(d)
	if err != nil {
		return Body{}, err
	}
	b.Proof = proof
	b.Results = codec.List(d, 4, (*codec.Decoder).ReadBytesCopy)
	if d.Bool() {
		u, err := decodeViewUpdateFrom(codec.NewDecoder(d.ReadBytes()))
		if err != nil {
			return Body{}, err
		}
		b.Update = &u
	}
	if d.Err() != nil {
		return Body{}, d.Err()
	}
	return b, nil
}

// Block is one element of the chain: header, body, and certificate. The
// certificate is empty for the genesis block (trust anchor), for blocks in
// the weak variant, and transiently for the newest block in the strong
// variant while its PERSIST round is in flight.
type Block struct {
	Header Header
	Body   Body
	Cert   crypto.Certificate
}

// Hash returns the block's identity (its header hash).
func (b *Block) Hash() crypto.Hash { return b.Header.Hash() }

// Encode serializes the full block.
func (b *Block) Encode() []byte {
	body := b.Body.Encode()
	e := codec.NewEncoder(160 + len(body))
	e.Raw(b.Header.Encode())
	e.WriteBytes(body)
	b.Cert.EncodeInto(e)
	return e.Bytes()
}

// DecodeBlock parses an encoded block.
func DecodeBlock(data []byte) (Block, error) {
	d := codec.NewDecoder(data)
	var b Block
	b.Header = decodeHeaderFrom(d)
	body, err := decodeBodyFrom(codec.NewDecoder(d.ReadBytes()))
	if err != nil {
		return Block{}, fmt.Errorf("decode block %d: %w", b.Header.Number, err)
	}
	b.Body = body
	cert, err := crypto.DecodeCertificateFrom(d)
	if err != nil {
		return Block{}, fmt.Errorf("decode block %d cert: %w", b.Header.Number, err)
	}
	b.Cert = cert
	if err := d.Finish(); err != nil {
		return Block{}, fmt.Errorf("decode block: %w", err)
	}
	return b, nil
}

// TxRootOf commits to a batch's requests: the Merkle root over request
// digests, so light clients can prove inclusion of one transaction.
func TxRootOf(batch *smr.Batch) crypto.Hash {
	leaves := make([][]byte, len(batch.Requests))
	for i := range batch.Requests {
		d := batch.Requests[i].Digest()
		leaves[i] = d[:]
	}
	return crypto.MerkleRoot(leaves)
}

// ResultsRootOf commits to the execution results (paper footnote 4: a
// Merkle commitment keeps results compatible with compact state deltas).
func ResultsRootOf(results [][]byte) crypto.Hash {
	return crypto.MerkleRoot(results)
}

// PersistDigest is the message a replica signs in the PERSIST phase for a
// block header hash.
func PersistDigest(headerHash crypto.Hash) []byte {
	return headerHash[:]
}
