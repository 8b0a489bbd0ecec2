// Package reconfig implements SMARTCHAIN's decentralized reconfiguration
// protocol (paper §V-D, Fig. 5): joins approved by an application-defined
// policy with signed votes from the current consortium, voluntary leaves,
// quorum-driven exclusions, and the per-view consensus-key rotation
// ("forgetting protocol") that prevents removed-and-later-compromised
// members from forking the chain (Fig. 4).
//
// This package defines the protocol payloads, their validation, and the
// translation into blockchain.ViewUpdate records; the node (internal/core)
// wires them to the transport and the ordering protocol.
package reconfig

import (
	"errors"
	"fmt"

	"smartchain/internal/blockchain"
	"smartchain/internal/codec"
	"smartchain/internal/crypto"
	"smartchain/internal/view"
)

// Signature domain-separation contexts.
const (
	ctxJoinRequest = "smartchain/reconfig/join-request/v1"
	ctxVote        = "smartchain/reconfig/vote/v1"
	ctxRemoveVote  = "smartchain/reconfig/remove/v1"
)

// Errors returned by validation.
var (
	ErrBadSignature  = errors.New("reconfig: invalid signature")
	ErrNotMember     = errors.New("reconfig: voter not a consortium member")
	ErrAlreadyMember = errors.New("reconfig: candidate already a member")
	ErrWrongView     = errors.New("reconfig: request targets a different view")
	ErrFewVotes      = errors.New("reconfig: not enough votes")
)

// JoinRequest is a candidate's application to join the consortium
// (Fig. 5a step 1). It carries the candidate's permanent identity, its
// certified consensus key for the view it wants to join, and an opaque
// application payload that the signature covers and no member interprets.
type JoinRequest struct {
	Candidate    int32
	PermanentPub crypto.PublicKey
	NextViewID   int64
	NewKey       crypto.CertifiedKey
	Payload      []byte
	Sig          []byte
}

func (r *JoinRequest) signedPortion() []byte {
	e := codec.NewEncoder(160 + len(r.Payload))
	e.Int32(r.Candidate)
	e.WriteBytes(r.PermanentPub)
	e.Int64(r.NextViewID)
	e.Int64(r.NewKey.ViewID)
	e.Int32(r.NewKey.Signer)
	e.WriteBytes(r.NewKey.ConsensusPub)
	e.WriteBytes(r.NewKey.PermanentSig)
	e.WriteBytes(r.Payload)
	return e.Bytes()
}

// NewJoinRequest builds and signs a join request with the candidate's
// permanent key. consensusPub must already be certified for nextViewID.
func NewJoinRequest(candidate int32, permanent *crypto.KeyPair, nextViewID int64, newKey crypto.CertifiedKey, payload []byte) (JoinRequest, error) {
	r := JoinRequest{
		Candidate:    candidate,
		PermanentPub: permanent.Public(),
		NextViewID:   nextViewID,
		NewKey:       newKey,
		Payload:      payload,
	}
	sig, err := permanent.Sign(ctxJoinRequest, r.signedPortion())
	if err != nil {
		return JoinRequest{}, fmt.Errorf("sign join request: %w", err)
	}
	r.Sig = sig
	return r, nil
}

// Verify checks the request's self-consistency: the outer signature and the
// embedded key certification, both under the candidate's permanent key.
func (r *JoinRequest) Verify() error {
	if !crypto.Verify(r.PermanentPub, ctxJoinRequest, r.signedPortion(), r.Sig) {
		return fmt.Errorf("join request of %d: %w", r.Candidate, ErrBadSignature)
	}
	if r.NewKey.Signer != r.Candidate || r.NewKey.ViewID != r.NextViewID {
		return fmt.Errorf("join request of %d: key binding mismatch", r.Candidate)
	}
	return r.NewKey.Verify(r.PermanentPub)
}

// Hash identifies the request; votes bind to it.
func (r *JoinRequest) Hash() crypto.Hash {
	return crypto.HashBytes(r.signedPortion(), r.Sig)
}

// Encode serializes the request.
func (r *JoinRequest) Encode() []byte {
	e := codec.NewEncoder(192 + len(r.Payload))
	e.WriteBytes(r.signedPortion())
	e.WriteBytes(r.Sig)
	return e.Bytes()
}

// DecodeJoinRequest parses an encoded join request.
func DecodeJoinRequest(data []byte) (JoinRequest, error) {
	outer := codec.NewDecoder(data)
	body := outer.ReadBytes()
	sig := outer.ReadBytesCopy()
	if err := outer.Finish(); err != nil {
		return JoinRequest{}, fmt.Errorf("decode join request: %w", err)
	}
	d := codec.NewDecoder(body)
	var r JoinRequest
	r.Candidate = d.Int32()
	r.PermanentPub = crypto.PublicKey(d.ReadBytesCopy())
	r.NextViewID = d.Int64()
	r.NewKey.ViewID = d.Int64()
	r.NewKey.Signer = d.Int32()
	r.NewKey.ConsensusPub = crypto.PublicKey(d.ReadBytesCopy())
	r.NewKey.PermanentSig = d.ReadBytesCopy()
	r.Payload = d.ReadBytesCopy()
	if err := d.Finish(); err != nil {
		return JoinRequest{}, fmt.Errorf("decode join request: %w", err)
	}
	r.Sig = sig
	return r, nil
}

// Vote is a consortium member's signed approval of a specific membership
// change (Fig. 5a step 2). It binds the exact request, the target view, and
// the voter's fresh certified consensus key for that view, and is signed
// with the voter's permanent key (consensus keys rotate, permanent keys
// endure).
type Vote struct {
	Voter       int32
	RequestHash crypto.Hash
	NextViewID  int64
	NewKey      crypto.CertifiedKey
	Sig         []byte
}

func (v *Vote) signedPortion() []byte {
	e := codec.NewEncoder(192)
	e.Int32(v.Voter)
	e.Bytes32(v.RequestHash)
	e.Int64(v.NextViewID)
	e.Int64(v.NewKey.ViewID)
	e.Int32(v.NewKey.Signer)
	e.WriteBytes(v.NewKey.ConsensusPub)
	e.WriteBytes(v.NewKey.PermanentSig)
	return e.Bytes()
}

// NewVote builds and signs a vote.
func NewVote(voter int32, permanent *crypto.KeyPair, requestHash crypto.Hash, nextViewID int64, newKey crypto.CertifiedKey) (Vote, error) {
	v := Vote{Voter: voter, RequestHash: requestHash, NextViewID: nextViewID, NewKey: newKey}
	sig, err := permanent.Sign(ctxVote, v.signedPortion())
	if err != nil {
		return Vote{}, fmt.Errorf("sign vote: %w", err)
	}
	v.Sig = sig
	return v, nil
}

// Verify checks the vote under the voter's permanent key.
func (v *Vote) Verify(permanentPub crypto.PublicKey) error {
	if !crypto.Verify(permanentPub, ctxVote, v.signedPortion(), v.Sig) {
		return fmt.Errorf("vote of %d: %w", v.Voter, ErrBadSignature)
	}
	if v.NewKey.Signer != v.Voter || v.NewKey.ViewID != v.NextViewID {
		return fmt.Errorf("vote of %d: key binding mismatch", v.Voter)
	}
	return v.NewKey.Verify(permanentPub)
}

func (v *Vote) encodeInto(e *codec.Encoder) {
	e.WriteBytes(v.signedPortion())
	e.WriteBytes(v.Sig)
}

// Encode serializes the vote.
func (v *Vote) Encode() []byte {
	e := codec.NewEncoder(256)
	v.encodeInto(e)
	return e.Bytes()
}

func decodeVoteFrom(d *codec.Decoder) (Vote, error) {
	body := d.ReadBytes()
	sig := d.ReadBytesCopy()
	if d.Err() != nil {
		return Vote{}, fmt.Errorf("decode vote: %w", d.Err())
	}
	in := codec.NewDecoder(body)
	var v Vote
	v.Voter = in.Int32()
	v.RequestHash = in.Bytes32()
	v.NextViewID = in.Int64()
	v.NewKey.ViewID = in.Int64()
	v.NewKey.Signer = in.Int32()
	v.NewKey.ConsensusPub = crypto.PublicKey(in.ReadBytesCopy())
	v.NewKey.PermanentSig = in.ReadBytesCopy()
	if err := in.Finish(); err != nil {
		return Vote{}, fmt.Errorf("decode vote: %w", err)
	}
	v.Sig = sig
	return v, nil
}

// DecodeVote parses an encoded vote.
func DecodeVote(data []byte) (Vote, error) {
	d := codec.NewDecoder(data)
	v, err := decodeVoteFrom(d)
	if err != nil {
		return Vote{}, err
	}
	if err := d.Finish(); err != nil {
		return Vote{}, fmt.Errorf("decode vote: %w", err)
	}
	return v, nil
}

// ChangeKind distinguishes join and leave certificates.
type ChangeKind byte

const (
	// ChangeJoin adds the request's candidate to the consortium.
	ChangeJoin ChangeKind = iota + 1
	// ChangeLeave removes the request's candidate (a voluntary leave; the
	// "request" is authored by the leaver itself).
	ChangeLeave
)

// Certificate is a complete membership-change certificate: the request plus
// a quorum of votes (Fig. 5a step 3). Encoded, it is the operation payload
// of the totally-ordered reconfiguration transaction.
type Certificate struct {
	Kind    ChangeKind
	Request JoinRequest
	Votes   []Vote
}

// Encode serializes the certificate.
func (c *Certificate) Encode() []byte {
	e := codec.NewEncoder(512)
	e.Byte(byte(c.Kind))
	e.WriteBytes(c.Request.Encode())
	e.Uint32(uint32(len(c.Votes)))
	for i := range c.Votes {
		c.Votes[i].encodeInto(e)
	}
	return e.Bytes()
}

// DecodeCertificate parses an encoded certificate.
func DecodeCertificate(data []byte) (Certificate, error) {
	d := codec.NewDecoder(data)
	var c Certificate
	c.Kind = ChangeKind(d.Byte())
	req, err := DecodeJoinRequest(d.ReadBytes())
	if err != nil {
		return Certificate{}, err
	}
	c.Request = req
	for n := d.Count(4 + 4); n > 0; n-- { // a vote is two length-prefixed fields
		v, err := decodeVoteFrom(d)
		if err != nil {
			return Certificate{}, err
		}
		c.Votes = append(c.Votes, v)
	}
	if err := d.Finish(); err != nil {
		return Certificate{}, fmt.Errorf("decode certificate: %w", err)
	}
	if c.Kind != ChangeJoin && c.Kind != ChangeLeave {
		return Certificate{}, fmt.Errorf("decode certificate: unknown kind %d", c.Kind)
	}
	return c, nil
}

// BuildUpdate validates the certificate against the current view and known
// permanent keys and, if valid, produces the blockchain.ViewUpdate the
// reconfiguration block will carry. It is deterministic: all correct
// replicas derive the identical update from the ordered certificate.
//
// Validation rules (paper §V-D):
//   - the request signature and embedded key certification verify;
//   - the target view is exactly cur.ID+1;
//   - joins: candidate not a member;
//     leaves: candidate is a member (and is the request author);
//   - ≥ cur.JoinQuorum() (= n−f) votes from distinct current members (for
//     leaves, members other than the leaver), each binding this request;
//   - every vote's fresh key certifies under the voter's permanent key.
func (c *Certificate) BuildUpdate(cur view.View, permanent map[int32]crypto.PublicKey) (*blockchain.ViewUpdate, error) {
	req := &c.Request
	if err := req.Verify(); err != nil {
		return nil, err
	}
	if req.NextViewID != cur.ID+1 {
		return nil, fmt.Errorf("%w: request for view %d, current is %d", ErrWrongView, req.NextViewID, cur.ID)
	}
	switch c.Kind {
	case ChangeJoin:
		if cur.Contains(req.Candidate) {
			return nil, fmt.Errorf("%w: %d", ErrAlreadyMember, req.Candidate)
		}
		if known, ok := permanent[req.Candidate]; ok && !known.Equal(req.PermanentPub) {
			return nil, fmt.Errorf("reconfig: candidate %d identity conflict", req.Candidate)
		}
	case ChangeLeave:
		if !cur.Contains(req.Candidate) {
			return nil, fmt.Errorf("%w: leaver %d", ErrNotMember, req.Candidate)
		}
		if !permanent[req.Candidate].Equal(req.PermanentPub) {
			return nil, fmt.Errorf("reconfig: leaver %d identity mismatch", req.Candidate)
		}
	}

	reqHash := req.Hash()
	seen := make(map[int32]bool, len(c.Votes))
	keys := make([]crypto.CertifiedKey, 0, len(c.Votes)+1)
	for i := range c.Votes {
		v := &c.Votes[i]
		if !cur.Contains(v.Voter) || (c.Kind == ChangeLeave && v.Voter == req.Candidate) {
			return nil, fmt.Errorf("%w: voter %d", ErrNotMember, v.Voter)
		}
		if seen[v.Voter] {
			return nil, fmt.Errorf("reconfig: duplicate vote from %d", v.Voter)
		}
		seen[v.Voter] = true
		if v.RequestHash != reqHash || v.NextViewID != req.NextViewID {
			return nil, fmt.Errorf("reconfig: vote of %d binds a different change", v.Voter)
		}
		pp, ok := permanent[v.Voter]
		if !ok {
			return nil, fmt.Errorf("reconfig: no permanent key for voter %d", v.Voter)
		}
		if err := v.Verify(pp); err != nil {
			return nil, err
		}
		keys = append(keys, v.NewKey)
	}
	if len(seen) < cur.JoinQuorum() {
		return nil, fmt.Errorf("%w: %d of %d", ErrFewVotes, len(seen), cur.JoinQuorum())
	}

	var members []int32
	var joining []blockchain.ReplicaInfo
	switch c.Kind {
	case ChangeJoin:
		members = append(append([]int32{}, cur.Members...), req.Candidate)
		joining = []blockchain.ReplicaInfo{{ID: req.Candidate, PermanentPub: req.PermanentPub}}
		keys = append(keys, req.NewKey)
	case ChangeLeave:
		for _, m := range cur.Members {
			if m != req.Candidate {
				members = append(members, m)
			}
		}
	}
	return &blockchain.ViewUpdate{
		NewViewID: req.NextViewID,
		Members:   members,
		Joining:   joining,
		Keys:      keys,
	}, nil
}
