package reconfig

import (
	"fmt"
	"sort"

	"smartchain/internal/blockchain"
	"smartchain/internal/codec"
	"smartchain/internal/crypto"
	"smartchain/internal/view"
)

// RemoveVote is one member's totally-ordered transaction advocating the
// exclusion of another member (paper Fig. 5b): "each node submits a special
// remove transaction to the ordering protocol asking for that exclusion and
// informing its public key for the new view".
type RemoveVote struct {
	Voter      int32
	Target     int32
	NextViewID int64
	NewKey     crypto.CertifiedKey
	Sig        []byte
}

func (v *RemoveVote) signedPortion() []byte {
	e := codec.NewEncoder(160)
	e.Int32(v.Voter)
	e.Int32(v.Target)
	e.Int64(v.NextViewID)
	e.Int64(v.NewKey.ViewID)
	e.Int32(v.NewKey.Signer)
	e.WriteBytes(v.NewKey.ConsensusPub)
	e.WriteBytes(v.NewKey.PermanentSig)
	return e.Bytes()
}

// NewRemoveVote builds and signs a remove vote.
func NewRemoveVote(voter int32, permanent *crypto.KeyPair, target int32, nextViewID int64, newKey crypto.CertifiedKey) (RemoveVote, error) {
	v := RemoveVote{Voter: voter, Target: target, NextViewID: nextViewID, NewKey: newKey}
	sig, err := permanent.Sign(ctxRemoveVote, v.signedPortion())
	if err != nil {
		return RemoveVote{}, fmt.Errorf("sign remove vote: %w", err)
	}
	v.Sig = sig
	return v, nil
}

// Verify checks the vote under the voter's permanent key.
func (v *RemoveVote) Verify(permanentPub crypto.PublicKey) error {
	if !crypto.Verify(permanentPub, ctxRemoveVote, v.signedPortion(), v.Sig) {
		return fmt.Errorf("remove vote of %d: %w", v.Voter, ErrBadSignature)
	}
	if v.NewKey.Signer != v.Voter || v.NewKey.ViewID != v.NextViewID {
		return fmt.Errorf("remove vote of %d: key binding mismatch", v.Voter)
	}
	return v.NewKey.Verify(permanentPub)
}

// Encode serializes the vote.
func (v *RemoveVote) Encode() []byte {
	e := codec.NewEncoder(224)
	e.WriteBytes(v.signedPortion())
	e.WriteBytes(v.Sig)
	return e.Bytes()
}

// DecodeRemoveVote parses an encoded remove vote.
func DecodeRemoveVote(data []byte) (RemoveVote, error) {
	outer := codec.NewDecoder(data)
	body := outer.ReadBytes()
	sig := outer.ReadBytesCopy()
	if err := outer.Finish(); err != nil {
		return RemoveVote{}, fmt.Errorf("decode remove vote: %w", err)
	}
	d := codec.NewDecoder(body)
	var v RemoveVote
	v.Voter = d.Int32()
	v.Target = d.Int32()
	v.NextViewID = d.Int64()
	v.NewKey.ViewID = d.Int64()
	v.NewKey.Signer = d.Int32()
	v.NewKey.ConsensusPub = crypto.PublicKey(d.ReadBytesCopy())
	v.NewKey.PermanentSig = d.ReadBytesCopy()
	if err := d.Finish(); err != nil {
		return RemoveVote{}, fmt.Errorf("decode remove vote: %w", err)
	}
	v.Sig = sig
	return v, nil
}

// RemoveTracker accumulates ordered remove votes and fires a view update
// once cur.JoinQuorum() distinct current members (excluding the target)
// advocate the same exclusion for the same next view. All replicas process
// the same ordered stream, so they fire identically.
type RemoveTracker struct {
	votes map[int32]map[int32]RemoveVote // target → voter → vote
}

// NewRemoveTracker creates an empty tracker. Reset it (new tracker) after
// every installed view: stale votes target a view that no longer exists.
func NewRemoveTracker() *RemoveTracker {
	return &RemoveTracker{votes: make(map[int32]map[int32]RemoveVote)}
}

// Observe processes one ordered remove vote. When the quorum completes it
// returns the resulting view update; otherwise (nil, nil). Invalid votes
// return an error and are ignored by callers (the stream continues).
func (t *RemoveTracker) Observe(cur view.View, permanent map[int32]crypto.PublicKey, v RemoveVote) (*blockchain.ViewUpdate, error) {
	if v.NextViewID != cur.ID+1 {
		return nil, fmt.Errorf("%w: vote for view %d, current is %d", ErrWrongView, v.NextViewID, cur.ID)
	}
	if !cur.Contains(v.Voter) || v.Voter == v.Target {
		return nil, fmt.Errorf("%w: voter %d", ErrNotMember, v.Voter)
	}
	if !cur.Contains(v.Target) {
		return nil, fmt.Errorf("%w: target %d", ErrNotMember, v.Target)
	}
	pp, ok := permanent[v.Voter]
	if !ok {
		return nil, fmt.Errorf("reconfig: no permanent key for voter %d", v.Voter)
	}
	if err := v.Verify(pp); err != nil {
		return nil, err
	}
	if t.votes[v.Target] == nil {
		t.votes[v.Target] = make(map[int32]RemoveVote)
	}
	if _, dup := t.votes[v.Target][v.Voter]; dup {
		return nil, nil // idempotent: same member advocating twice
	}
	t.votes[v.Target][v.Voter] = v

	if len(t.votes[v.Target]) < cur.JoinQuorum() {
		return nil, nil
	}
	// Quorum complete: build the update excluding the target.
	var members []int32
	for _, m := range cur.Members {
		if m != v.Target {
			members = append(members, m)
		}
	}
	// Voter order, not map order: the update is recorded in the block and
	// every replica (and every replay) must build the same bytes.
	keys := make([]crypto.CertifiedKey, 0, len(t.votes[v.Target]))
	for _, vote := range t.votes[v.Target] {
		keys = append(keys, vote.NewKey)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i].Signer < keys[j].Signer })
	return &blockchain.ViewUpdate{
		NewViewID: v.NextViewID,
		Members:   members,
		Keys:      keys,
	}, nil
}

// Votes returns every recorded vote sorted by (target, voter): the
// tracker's replicated state, in the one order every replica checkpoints it.
// Observing them into a fresh tracker under the same view rebuilds it.
func (t *RemoveTracker) Votes() []RemoveVote {
	var out []RemoveVote
	for _, byVoter := range t.votes {
		for _, v := range byVoter {
			out = append(out, v)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Target != out[j].Target {
			return out[i].Target < out[j].Target
		}
		return out[i].Voter < out[j].Voter
	})
	return out
}
