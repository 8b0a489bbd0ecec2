// Package smr implements the state-machine-replication layer that sits
// between the consensus protocol and the replicated service (paper §II-B,
// §II-C2): client request framing, batching, the sequential/parallel
// signature-verification strategies of Table I, and the Dura-SMaRt
// durability layer with multi-batch group commit.
package smr

import (
	"errors"
	"fmt"
	"time"

	"smartchain/internal/codec"
	"smartchain/internal/crypto"
)

// ContextRequest is the signature domain for client requests.
const ContextRequest = "smartchain/request/v1"

// Wire message types of the client⇄replica request/reply contract. This is
// the single authoritative definition: the client proxy, the SMARTCHAIN
// node, and the baseline replicas all speak these values (they used to be
// copy-pasted per package, which could drift).
const (
	// MsgRequest carries an encoded Request, client → replicas.
	MsgRequest uint16 = 200
	// MsgReply carries an encoded Reply, replica → client.
	MsgReply uint16 = 201
	// MsgViewQuery asks a replica for the currently installed view
	// (client → replica, empty payload). Clients send it when a quorum of
	// reply view tags disagrees with their local membership — the
	// self-healing view discovery of BFT-SMaRt's client proxy.
	MsgViewQuery uint16 = 202
	// MsgViewInfo answers a view query with an encoded ViewInfo
	// (replica → client).
	MsgViewInfo uint16 = 203
)

// Request flag bits (part of the signed portion, so a Byzantine relay
// cannot re-route a request between the ordered and unordered paths).
const (
	// FlagUnordered marks a read-only request served directly from replica
	// state, skipping consensus (paper §II-B: BFT-SMaRt's unordered
	// invocations).
	FlagUnordered uint8 = 1 << 0
)

// UnorderedSeqBit partitions the per-client sequence space: unordered
// requests set the top bit so their sequence numbers can never collide with
// — or perforate — the ordered execution watermark replicas keep per
// client.
const UnorderedSeqBit uint64 = 1 << 63

// ErrBadRequestSig is returned by request validation.
var ErrBadRequestSig = errors.New("smr: invalid request signature")

// Request is one signed client operation. The client's public key travels
// with the request (as in UTXO systems, the key *is* the identity) so any
// replica can verify it without a registration step.
type Request struct {
	ClientID int64
	Seq      uint64
	Flags    uint8
	// ReadFloor is the session consistency floor of an unordered (read-only)
	// request: the client's highest reply-observed executed block height. A
	// replica whose executed height is below the floor parks the read until
	// it catches up instead of answering from a state that predates the
	// client's own writes — upgrading unordered reads from quorum-freshness
	// to read-your-writes (cf. BFT-SMaRt's hierarchical reads). Zero means
	// "any state" (the classic quorum-fresh read); ordered requests ignore
	// it. Part of the signed portion, so a relay cannot strip the floor.
	ReadFloor int64
	Op        []byte
	PubKey    crypto.PublicKey
	Sig       []byte

	// ident memoizes Ident() (0 = not yet computed; a genuinely zero
	// fingerprint merely recomputes). Never encoded.
	ident int64
}

// Unordered reports whether the request takes the consensus-free read path.
func (r *Request) Unordered() bool { return r.Flags&FlagUnordered != 0 }

// signedPortion returns the bytes covered by the request signature.
func (r *Request) signedPortion() []byte {
	e := codec.NewEncoder(25 + len(r.Op) + len(r.PubKey))
	e.Int64(r.ClientID)
	e.Uint64(r.Seq)
	e.Byte(r.Flags)
	e.Int64(r.ReadFloor)
	e.WriteBytes(r.Op)
	e.WriteBytes(r.PubKey)
	return e.Bytes()
}

// NewSignedRequest builds and signs an ordered request with the client key
// pair.
func NewSignedRequest(clientID int64, seq uint64, op []byte, key *crypto.KeyPair) (Request, error) {
	return newSigned(clientID, seq, 0, 0, op, key)
}

// NewSignedUnordered builds and signs an unordered (read-only) request with
// the given session read floor (0 = quorum-fresh). seq must come from the
// unordered sequence space (UnorderedSeqBit set) so it cannot shadow an
// ordered sequence number.
func NewSignedUnordered(clientID int64, seq uint64, floor int64, op []byte, key *crypto.KeyPair) (Request, error) {
	return newSigned(clientID, seq|UnorderedSeqBit, FlagUnordered, floor, op, key)
}

func newSigned(clientID int64, seq uint64, flags uint8, floor int64, op []byte, key *crypto.KeyPair) (Request, error) {
	r := Request{ClientID: clientID, Seq: seq, Flags: flags, ReadFloor: floor, Op: op, PubKey: key.Public()}
	sig, err := key.Sign(ContextRequest, r.signedPortion())
	if err != nil {
		return Request{}, fmt.Errorf("sign request: %w", err)
	}
	r.Sig = sig
	return r, nil
}

// VerifySig checks the request's signature against its embedded public key.
func (r *Request) VerifySig() error {
	if !crypto.Verify(r.PubKey, ContextRequest, r.signedPortion(), r.Sig) {
		return ErrBadRequestSig
	}
	return nil
}

// Digest returns the hash identifying this request (includes the signature,
// so two differently-signed copies are distinct).
func (r *Request) Digest() crypto.Hash {
	return crypto.HashBytes(r.signedPortion(), r.Sig)
}

// Ident returns the sender's 64-bit dedupe identity: a fingerprint of
// (ClientID, PubKey). Replicas key their executed-sequence records by it
// rather than by ClientID alone — the key IS the identity, the ClientID is
// only a reply-routing address — so a third party signing requests under
// someone else's ClientID occupies its own sequence space and cannot
// pre-burn or poison the victim's.
func (r *Request) Ident() int64 {
	if r.ident != 0 {
		return r.ident
	}
	e := codec.NewEncoder(16 + len(r.PubKey))
	e.Int64(r.ClientID)
	e.WriteBytes(r.PubKey)
	h := crypto.HashBytes(e.Bytes())
	r.ident = int64(uint64(h[0]) | uint64(h[1])<<8 | uint64(h[2])<<16 | uint64(h[3])<<24 |
		uint64(h[4])<<32 | uint64(h[5])<<40 | uint64(h[6])<<48 | uint64(h[7])<<56)
	return r.ident
}

// Orderable reports whether the request may legitimately appear in an
// ordered batch: unordered (read-only) requests — by flag or by sequence
// space — must never be ordered. A Byzantine leader batching a victim's
// signed unordered request would otherwise inject its huge UnorderedSeqBit
// sequence number into the victim's executed record, whose staleness
// closure would then censor all the victim's future ordered requests.
func (r *Request) Orderable() bool {
	return !r.Unordered() && r.Seq&UnorderedSeqBit == 0
}

// ValidBatchValue is the proposal-validity predicate shared by the
// consensus Validate hooks (SMARTCHAIN node and baseline chassis): the
// value must decode as a batch and carry only orderable requests, so a
// batch smuggling an unordered request can never gather an honest vote
// quorum.
func ValidBatchValue(value []byte) bool {
	b, err := DecodeBatch(value)
	if err != nil {
		return false
	}
	for i := range b.Requests {
		if !b.Requests[i].Orderable() {
			return false
		}
	}
	return true
}

// EncodeInto serializes the request into e.
func (r *Request) EncodeInto(e *codec.Encoder) {
	e.Int64(r.ClientID)
	e.Uint64(r.Seq)
	e.Byte(r.Flags)
	e.Int64(r.ReadFloor)
	e.WriteBytes(r.Op)
	e.WriteBytes(r.PubKey)
	e.WriteBytes(r.Sig)
}

// Encode serializes the request to a fresh buffer.
func (r *Request) Encode() []byte {
	e := codec.NewEncoder(32 + len(r.Op) + len(r.PubKey) + len(r.Sig))
	r.EncodeInto(e)
	return e.Bytes()
}

// minRequestSize is the smallest encoding of one request: client, sequence,
// flags, read floor and three empty length-prefixed fields.
const minRequestSize = 8 + 8 + 1 + 8 + 4 + 4 + 4

// DecodeRequestFrom reads a request from d.
func DecodeRequestFrom(d *codec.Decoder) Request {
	var r Request
	r.ClientID = d.Int64()
	r.Seq = d.Uint64()
	r.Flags = d.Byte()
	r.ReadFloor = d.Int64()
	r.Op = d.ReadBytesCopy()
	r.PubKey = crypto.PublicKey(d.ReadBytesCopy())
	r.Sig = d.ReadBytesCopy()
	return r
}

// DecodeRequest parses a standalone encoded request.
func DecodeRequest(data []byte) (Request, error) {
	d := codec.NewDecoder(data)
	r := DecodeRequestFrom(d)
	if err := d.Finish(); err != nil {
		return Request{}, fmt.Errorf("decode request: %w", err)
	}
	return r, nil
}

// Batch is the unit of ordering: the set of requests decided by one
// consensus instance, which becomes the transaction list of one block.
//
// Timestamp is the proposing leader's wall clock (unix nanoseconds) at
// batch assembly. Because it travels inside the decided value, every
// replica observes the identical timestamp, so applications may use it
// deterministically (it is NOT trusted time: a Byzantine leader can skew
// it within whatever bounds the application enforces).
type Batch struct {
	Timestamp int64
	Requests  []Request
}

// Encode serializes the batch deterministically. The hash of these bytes is
// what consensus votes on.
func (b *Batch) Encode() []byte {
	e := codec.NewEncoder(64 * (len(b.Requests) + 1))
	e.Int64(b.Timestamp)
	e.Uint32(uint32(len(b.Requests)))
	for i := range b.Requests {
		b.Requests[i].EncodeInto(e)
	}
	return e.Bytes()
}

// DecodeBatch parses an encoded batch.
func DecodeBatch(data []byte) (Batch, error) {
	d := codec.NewDecoder(data)
	b := Batch{Timestamp: d.Int64(), Requests: codec.List(d, minRequestSize, DecodeRequestFrom)}
	if err := d.Finish(); err != nil {
		return Batch{}, fmt.Errorf("decode batch: %w", err)
	}
	return b, nil
}

// BatchContext is the ordering context handed to the application alongside
// each executed batch (the analogue of BFT-SMaRt's MessageContext): which
// block the batch lands in, which consensus instance and epoch decided it,
// and the decided (leader-assigned, replica-identical) batch timestamp.
type BatchContext struct {
	// BlockNumber is the chain height the batch's block occupies.
	BlockNumber int64
	// Instance is the consensus instance that decided the batch.
	Instance int64
	// Epoch is the consensus epoch (regency) the decision was reached in.
	Epoch int64
	// Timestamp is the decided batch timestamp — identical on every
	// replica, so it is safe to derive replicated state from it.
	Timestamp time.Time
}

// NewBatchContext assembles the context for one decided batch.
func NewBatchContext(blockNumber, instance, epoch int64, b *Batch) BatchContext {
	return BatchContext{
		BlockNumber: blockNumber,
		Instance:    instance,
		Epoch:       epoch,
		Timestamp:   time.Unix(0, b.Timestamp),
	}
}

// Reply flag bits.
const (
	// ReplyFlagBehind marks a read-floor miss: the replica's executed height
	// stayed below the request's ReadFloor for the whole park window (or the
	// park queue was full), so no result is carried. A client collecting a
	// quorum of behind replies falls back to an ordered read.
	ReplyFlagBehind uint8 = 1 << 0
)

// ViewTag is the view metadata piggybacked on every reply (BFT-SMaRt §II-B:
// clients track the replicated group's configuration through reply
// metadata, not manual administration). The client proxy compares each
// tag's membership hash against its own and, on a quorum of mismatches,
// fetches the new membership via MsgViewQuery and re-targets its in-flight
// calls.
type ViewTag struct {
	// ViewID is the replica's installed view number.
	ViewID int64
	// Epoch is the consensus regency the replica operates in (for ordered
	// replies: the epoch that decided the batch, identical on all replicas).
	Epoch int64
	// MemberHash is MembershipHash(ViewID, members) of the installed view.
	MemberHash crypto.Hash
	// Height is the replica's executed block height as of the reply (for
	// ordered replies: the block that carried the request). Clients fold it
	// into their session read floor for read-your-writes unordered reads.
	Height int64
}

// Reply is a replica's response to one request. Digest echoes the hash of
// the request being answered (covering its signature): a client matches
// replies against the digest of the request IT signed, so a third party
// cannot have replicas answer a victim's in-flight (ClientID, Seq) with
// the result of an attacker-signed request — ClientID alone is a routing
// address, not an identity. Tag carries the replica's view metadata,
// unsigned: a client trusts it as far as the link that delivered it and the
// quorum it counts toward. A zero tag marks a sender that does not implement
// view piggybacking (the baseline replicas).
type Reply struct {
	ReplicaID int32
	ClientID  int64
	Seq       uint64
	Digest    crypto.Hash
	Flags     uint8
	Tag       ViewTag
	Result    []byte
}

// Encode serializes the reply.
func (r *Reply) Encode() []byte {
	e := codec.NewEncoder(128 + len(r.Result))
	e.Int32(r.ReplicaID)
	e.Int64(r.ClientID)
	e.Uint64(r.Seq)
	e.Bytes32(r.Digest)
	e.Byte(r.Flags)
	e.Int64(r.Tag.ViewID)
	e.Int64(r.Tag.Epoch)
	e.Bytes32(r.Tag.MemberHash)
	e.Int64(r.Tag.Height)
	e.WriteBytes(r.Result)
	return e.Bytes()
}

// DecodeReply parses an encoded reply.
func DecodeReply(data []byte) (Reply, error) {
	d := codec.NewDecoder(data)
	var r Reply
	r.ReplicaID = d.Int32()
	r.ClientID = d.Int64()
	r.Seq = d.Uint64()
	r.Digest = d.Bytes32()
	r.Flags = d.Byte()
	r.Tag.ViewID = d.Int64()
	r.Tag.Epoch = d.Int64()
	r.Tag.MemberHash = d.Bytes32()
	r.Tag.Height = d.Int64()
	r.Result = d.ReadBytesCopy()
	if err := d.Finish(); err != nil {
		return Reply{}, fmt.Errorf("decode reply: %w", err)
	}
	return r, nil
}

// ViewInfo answers a MsgViewQuery: the responder's installed view. Clients
// adopt a newer view once f+1 members of their current view report the
// same (ViewID, Members) — at least one of them is correct, and correct
// members report their installed view faithfully — so the message itself
// needs no signature.
type ViewInfo struct {
	ViewID  int64
	Members []int32
}

// Encode serializes the view info.
func (v *ViewInfo) Encode() []byte {
	e := codec.NewEncoder(16 + 4*len(v.Members))
	e.Int64(v.ViewID)
	e.Uint32(uint32(len(v.Members)))
	for _, m := range v.Members {
		e.Int32(m)
	}
	return e.Bytes()
}

// DecodeViewInfo parses an encoded view info.
func DecodeViewInfo(data []byte) (ViewInfo, error) {
	d := codec.NewDecoder(data)
	var v ViewInfo
	v.ViewID = d.Int64()
	v.Members = codec.List(d, 4, (*codec.Decoder).Int32)
	if err := d.Finish(); err != nil {
		return ViewInfo{}, fmt.Errorf("decode view info: %w", err)
	}
	return v, nil
}
