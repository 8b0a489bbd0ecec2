// Package consensus implements the Byzantine consensus core of SMARTCHAIN:
// a Mod-SMaRt-style protocol (paper §II-C1, Fig. 1) that decides a sequence
// of values (batches) through PROPOSE → WRITE → ACCEPT rounds, producing a
// transferable decision proof (a quorum of signed ACCEPTs) for every
// decision, and a synchronization phase (regency/epoch change) that replaces
// a faulty or slow leader while preserving agreement.
//
// Instances are decided strictly in order (α = 1, as in BFT-SMaRt): the
// layer above starts instance i+1 only after instance i decides.
package consensus

import (
	"fmt"

	"smartchain/internal/codec"
	"smartchain/internal/crypto"
)

// Wire message types. The consensus layer owns the 100–119 range of
// transport message types.
const (
	MsgPropose uint16 = 100 + iota
	MsgWrite
	MsgAccept
	_            // 103: the retired per-slot STOP; its number stays reserved
	MsgEpochStop // regency-wide synchronization vote with per-slot claims
	MsgEpochSync // new leader's certificate + whole-window re-proposal
	MsgDecided   // decision-certificate retransmission for settled instances
)

// Signature domain-separation contexts.
const (
	ctxWrite     = "smartchain/consensus/write/v1"
	ctxAccept    = "smartchain/consensus/accept/v1"
	ctxEpochStop = "smartchain/consensus/epochstop/v1"
)

// voteMessage returns the canonical byte string signed by WRITE and ACCEPT
// votes: it binds instance, epoch, and value digest so a signature can never
// be replayed across instances or epochs.
func voteMessage(instance, epoch int64, digest crypto.Hash) []byte {
	e := codec.NewEncoder(48)
	e.Int64(instance)
	e.Int64(epoch)
	e.Bytes32(digest)
	return e.Bytes()
}

// AcceptSignedMessage exposes the ACCEPT vote format so third parties
// (blockchain verifiers) can validate decision proofs.
func AcceptSignedMessage(instance, epoch int64, digest crypto.Hash) []byte {
	return voteMessage(instance, epoch, digest)
}

// SignAccept produces one replica's ACCEPT signature over (instance, epoch,
// digest) — the building block of decision proofs. It exists for tooling
// that fabricates decided chains with genuine proofs (the catch-up
// benchmark's 10k-block donors) without running consensus for every block.
func SignAccept(key *crypto.KeyPair, instance, epoch int64, digest crypto.Hash) ([]byte, error) {
	return key.Sign(ctxAccept, voteMessage(instance, epoch, digest))
}

// VerifyDecisionProof checks that proof contains at least quorum valid
// ACCEPT signatures for (instance, epoch, digest) under keys. This is what
// makes a single replica's log trustworthy: every logged value carries the
// cryptographic evidence that it was decided (paper Observation 2).
//
// Counting is Certificate.CountValid's tolerant rule: signatures from
// unknown signers (e.g. members whose fresh keys were announced out-of-band
// rather than recorded on-chain), duplicates, and invalid signatures are
// skipped rather than rejected.
func VerifyDecisionProof(keys crypto.KeyResolver, instance, epoch int64, digest crypto.Hash, proof *crypto.Certificate, quorum int) error {
	if proof == nil {
		return fmt.Errorf("consensus: nil decision proof")
	}
	if proof.Digest != digest {
		return fmt.Errorf("consensus: proof digest mismatch")
	}
	if valid := proof.CountValid(keys, ctxAccept, digest, AcceptSignedMessage(instance, epoch, digest)); valid < quorum {
		return fmt.Errorf("consensus: proof has %d valid signatures, need %d", valid, quorum)
	}
	return nil
}

// proposeMsg is the leader's proposal for (instance, epoch) in the epoch
// the instance started in. After a synchronization round values arrive
// only through the justified EPOCH-SYNC certificate.
type proposeMsg struct {
	Instance int64
	Epoch    int64
	Value    []byte
}

func (m *proposeMsg) encode() []byte {
	e := codec.NewEncoder(64 + len(m.Value))
	e.Int64(m.Instance)
	e.Int64(m.Epoch)
	e.WriteBytes(m.Value)
	return e.Bytes()
}

func decodePropose(data []byte) (proposeMsg, error) {
	d := codec.NewDecoder(data)
	var m proposeMsg
	m.Instance = d.Int64()
	m.Epoch = d.Int64()
	m.Value = d.ReadBytesCopy()
	if err := d.Finish(); err != nil {
		return proposeMsg{}, fmt.Errorf("decode propose: %w", err)
	}
	return m, nil
}

// ForkProposalValue re-encodes a leader PROPOSE with a different value,
// keeping instance and epoch intact. Proposals carry no
// leader signature — their authenticity rests on the authenticated link —
// so only the leader itself can equivocate, which is exactly what the
// whole-replica simulation's Byzantine leader does: the same (instance,
// epoch) proposed with different values to different peers, or a forged
// batch to all. Quorum intersection makes such a split undecidable, forcing
// the correct replicas through an epoch change instead of diverging.
//
//smartlint:allow structure test hook: core's whole-replica simulation forks and forges a Byzantine leader's PROPOSE with it
func ForkProposalValue(payload, value []byte) ([]byte, error) {
	pm, err := decodePropose(payload)
	if err != nil {
		return nil, err
	}
	pm.Value = value
	return pm.encode(), nil
}

// decidedMsg retransmits a settled decision — the value plus its quorum
// decision proof — to a replica still campaigning for an instance its peers
// decided and garbage-collected long ago. It closes the one gap neither
// state transfer nor the epoch-change protocol can: when the decided
// instances carried empty batches, every replica sits at the same block
// height (nothing to ship) and the settled replicas' EPOCH-STOPs carry no
// claims below their floor (the state is gone), so a replica behind the
// quorum's floor would otherwise wait forever. The certificate is
// self-certifying, so the receiver decides in place.
type decidedMsg struct {
	Instance int64
	Epoch    int64 // epoch the decision proof was formed in
	Value    []byte
	Proof    crypto.Certificate
}

func (m *decidedMsg) encode() []byte {
	e := codec.NewEncoder(128 + len(m.Value))
	e.Int64(m.Instance)
	e.Int64(m.Epoch)
	e.WriteBytes(m.Value)
	m.Proof.EncodeInto(e)
	return e.Bytes()
}

func decodeDecided(data []byte) (decidedMsg, error) {
	d := codec.NewDecoder(data)
	var m decidedMsg
	m.Instance = d.Int64()
	m.Epoch = d.Int64()
	m.Value = d.ReadBytesCopy()
	proof, err := crypto.DecodeCertificateFrom(d)
	if err != nil {
		return decidedMsg{}, fmt.Errorf("decode decided: %w", err)
	}
	m.Proof = proof
	if err := d.Finish(); err != nil {
		return decidedMsg{}, fmt.Errorf("decode decided: %w", err)
	}
	return m, nil
}

// voteMsg is a WRITE or ACCEPT vote: a signed endorsement of a digest for
// (instance, epoch).
type voteMsg struct {
	Instance int64
	Epoch    int64
	Digest   crypto.Hash
	Voter    int32
	Sig      []byte
}

func (m *voteMsg) encode() []byte {
	e := codec.NewEncoder(128)
	e.Int64(m.Instance)
	e.Int64(m.Epoch)
	e.Bytes32(m.Digest)
	e.Int32(m.Voter)
	e.WriteBytes(m.Sig)
	return e.Bytes()
}

func decodeVote(data []byte) (voteMsg, error) {
	d := codec.NewDecoder(data)
	var m voteMsg
	m.Instance = d.Int64()
	m.Epoch = d.Int64()
	m.Digest = d.Bytes32()
	m.Voter = d.Int32()
	m.Sig = d.ReadBytesCopy()
	if err := d.Finish(); err != nil {
		return voteMsg{}, fmt.Errorf("decode vote: %w", err)
	}
	return m, nil
}

// writeCert is a quorum of signed WRITE votes for one digest in one epoch:
// the transferable evidence that a value *may have been* decided, which the
// synchronization phase must honor (single-decree PBFT view-change logic).
type writeCert struct {
	Instance int64
	Epoch    int64
	Digest   crypto.Hash
	Sigs     []crypto.Signature
}

func (c *writeCert) encode() []byte {
	e := codec.NewEncoder(64 + 100*len(c.Sigs))
	e.Int64(c.Instance)
	e.Int64(c.Epoch)
	e.Bytes32(c.Digest)
	e.Uint32(uint32(len(c.Sigs)))
	for _, s := range c.Sigs {
		e.Int32(s.Signer)
		e.WriteBytes(s.Sig)
	}
	return e.Bytes()
}

func decodeWriteCert(d *codec.Decoder) (writeCert, error) {
	var c writeCert
	c.Instance = d.Int64()
	c.Epoch = d.Int64()
	c.Digest = d.Bytes32()
	c.Sigs = codec.List(d, 4+4, func(d *codec.Decoder) crypto.Signature {
		return crypto.Signature{Signer: d.Int32(), Sig: d.ReadBytesCopy()}
	})
	if err := d.Err(); err != nil {
		return writeCert{}, err
	}
	return c, nil
}

// verify checks the write certificate carries quorum valid WRITE signatures.
func (c *writeCert) verify(keys crypto.KeyResolver, quorum int) error {
	msg := voteMessage(c.Instance, c.Epoch, c.Digest)
	seen := make(map[int32]bool, len(c.Sigs))
	valid := 0
	for _, s := range c.Sigs {
		if seen[s.Signer] {
			return fmt.Errorf("consensus: duplicate signer %d in write cert", s.Signer)
		}
		seen[s.Signer] = true
		pub, ok := keys.PublicKeyOf(s.Signer)
		if !ok {
			return fmt.Errorf("consensus: write cert signer %d unknown", s.Signer)
		}
		if !crypto.Verify(pub, ctxWrite, msg, s.Sig) {
			return fmt.Errorf("consensus: write cert signature of %d invalid", s.Signer)
		}
		valid++
	}
	if valid < quorum {
		return fmt.Errorf("consensus: write cert has %d signatures, need %d", valid, quorum)
	}
	return nil
}

// Claim kinds inside an EPOCH-STOP: the strongest evidence a replica holds
// for one window slot. Absence of a claim means "nothing locked here".
const (
	claimWrite   uint8 = 1 // a WRITE certificate: the value MAY have been decided
	claimDecided uint8 = 2 // a decision proof: the value WAS decided
)

// slotClaim is one instance's highest-state proof inside an EPOCH-STOP: the
// voter's strongest write certificate for the slot, or — when the voter
// already decided the slot — the decision proof itself, so the new leader
// re-proposes the decided value and stragglers converge without state
// transfer.
type slotClaim struct {
	Instance int64
	Kind     uint8
	Epoch    int64  // epoch of the certificate / decision
	Value    []byte // the value matching the claimed digest
	WCert    writeCert
	DProof   crypto.Certificate
}

func (c *slotClaim) encodeInto(e *codec.Encoder) {
	e.Int64(c.Instance)
	e.Byte(c.Kind)
	e.Int64(c.Epoch)
	e.WriteBytes(c.Value)
	switch c.Kind {
	case claimWrite:
		e.WriteBytes(c.WCert.encode())
	case claimDecided:
		c.DProof.EncodeInto(e)
	}
}

// minSlotClaimSize is the smallest encoding of one claim: instance, kind,
// epoch, an empty value, and the lighter of the two kinds of evidence (a
// decision proof with no signatures: digest plus count).
const minSlotClaimSize = 8 + 1 + 8 + 4 + 32 + 4

func decodeSlotClaimFrom(d *codec.Decoder) (slotClaim, error) {
	var c slotClaim
	c.Instance = d.Int64()
	c.Kind = d.Byte()
	c.Epoch = d.Int64()
	c.Value = d.ReadBytesCopy()
	switch c.Kind {
	case claimWrite:
		cd := codec.NewDecoder(d.ReadBytes())
		cert, err := decodeWriteCert(cd)
		if err != nil {
			return slotClaim{}, fmt.Errorf("decode claim cert: %w", err)
		}
		if err := cd.Finish(); err != nil {
			return slotClaim{}, fmt.Errorf("decode claim cert: %w", err)
		}
		c.WCert = cert
	case claimDecided:
		proof, err := crypto.DecodeCertificateFrom(d)
		if err != nil {
			return slotClaim{}, fmt.Errorf("decode claim proof: %w", err)
		}
		c.DProof = proof
	default:
		return slotClaim{}, fmt.Errorf("decode claim: unknown kind %d", c.Kind)
	}
	if err := d.Err(); err != nil {
		return slotClaim{}, err
	}
	return c, nil
}

// verify checks a claim's evidence: a valid quorum certificate whose digest
// matches the carried value, bound to the claimed instance and epoch.
func (c *slotClaim) verify(keys crypto.KeyResolver, quorum int, nextEpoch int64) error {
	switch c.Kind {
	case claimWrite:
		if c.WCert.Instance != c.Instance || c.WCert.Epoch != c.Epoch {
			return fmt.Errorf("consensus: claim cert binding mismatch")
		}
		if c.Epoch >= nextEpoch {
			return fmt.Errorf("consensus: claim epoch %d not below next epoch %d", c.Epoch, nextEpoch)
		}
		if crypto.HashBytes(c.Value) != c.WCert.Digest {
			return fmt.Errorf("consensus: claim value does not match cert digest")
		}
		return c.WCert.verify(keys, quorum)
	case claimDecided:
		return VerifyDecisionProof(keys, c.Instance, c.Epoch, crypto.HashBytes(c.Value), &c.DProof, quorum)
	default:
		return fmt.Errorf("consensus: unknown claim kind %d", c.Kind)
	}
}

// epochStopMsg is one replica's signed vote to install nextEpoch as the
// regency for the WHOLE ordering window: it carries the replica's strongest
// claim for every open slot, so a single quorum of these messages lets the
// new leader re-propose the whole window in one round.
type epochStopMsg struct {
	NextEpoch int64
	Voter     int32
	// Floor is the voter's lowest still-live instance: everything below is
	// settled (decided and committed) at the voter. It is load-bearing for
	// safety, not informational: a stop only counts as a "nothing locked
	// at slot i" attestation when Floor ≤ i. A replica that settled i
	// carries no claim for it (the state is garbage-collected), and
	// without this exclusion a 2f+1 quorum of such stops could look
	// claim-free for a DECIDED slot, letting the new leader re-propose a
	// conflicting empty filler — the regency-wide analogue of PBFT's
	// stable-checkpoint rule in view changes.
	Floor  int64
	Claims []slotClaim
	Sig    []byte // over signedPortion
}

func (m *epochStopMsg) signedPortion() []byte {
	e := codec.NewEncoder(128)
	e.Int64(m.NextEpoch)
	e.Int32(m.Voter)
	e.Int64(m.Floor)
	e.Uint32(uint32(len(m.Claims)))
	for i := range m.Claims {
		m.Claims[i].encodeInto(e)
	}
	return e.Bytes()
}

func (m *epochStopMsg) encode() []byte {
	e := codec.NewEncoder(256)
	e.WriteBytes(m.signedPortion())
	e.WriteBytes(m.Sig)
	return e.Bytes()
}

func decodeEpochStop(data []byte) (epochStopMsg, error) {
	outer := codec.NewDecoder(data)
	body := outer.ReadBytes()
	sig := outer.ReadBytesCopy()
	if err := outer.Finish(); err != nil {
		return epochStopMsg{}, fmt.Errorf("decode epoch stop: %w", err)
	}
	d := codec.NewDecoder(body)
	var m epochStopMsg
	m.NextEpoch = d.Int64()
	m.Voter = d.Int32()
	m.Floor = d.Int64()
	for n := d.Count(minSlotClaimSize); n > 0; n-- {
		c, err := decodeSlotClaimFrom(d)
		if err != nil {
			return epochStopMsg{}, fmt.Errorf("decode epoch stop claim: %w", err)
		}
		m.Claims = append(m.Claims, c)
	}
	if err := d.Finish(); err != nil {
		return epochStopMsg{}, fmt.Errorf("decode epoch stop: %w", err)
	}
	m.Sig = sig
	return m, nil
}

// verify checks the epoch-stop signature, that claims are strictly
// ascending by instance (no duplicates), and every claim's evidence.
func (m *epochStopMsg) verify(keys crypto.KeyResolver, quorum int) error {
	pub, ok := keys.PublicKeyOf(m.Voter)
	if !ok {
		return fmt.Errorf("consensus: epoch stop voter %d unknown", m.Voter)
	}
	if !crypto.Verify(pub, ctxEpochStop, m.signedPortion(), m.Sig) {
		return fmt.Errorf("consensus: epoch stop signature of %d invalid", m.Voter)
	}
	for i := range m.Claims {
		if i > 0 && m.Claims[i].Instance <= m.Claims[i-1].Instance {
			return fmt.Errorf("consensus: epoch stop claims not ascending")
		}
		if err := m.Claims[i].verify(keys, quorum, m.NextEpoch); err != nil {
			return err
		}
	}
	return nil
}

// slotProposal is one re-proposed (instance, value) pair inside an
// EPOCH-SYNC.
type slotProposal struct {
	Instance int64
	Value    []byte
}

// epochSyncMsg is the new leader's SYNC certificate: a quorum of
// EPOCH-STOPs justifying nextEpoch, plus the re-proposal for every
// undecided slot of the window — the certified (or decided) value where one
// is provably locked, the empty batch elsewhere. Like proposeMsg it is
// unsigned; the justification is self-certifying and the WRITE/ACCEPT votes
// carry the protocol.
type epochSyncMsg struct {
	NextEpoch int64
	Justif    []epochStopMsg
	Slots     []slotProposal
}

func (m *epochSyncMsg) encode() []byte {
	e := codec.NewEncoder(512)
	e.Int64(m.NextEpoch)
	e.Uint32(uint32(len(m.Justif)))
	for i := range m.Justif {
		e.WriteBytes(m.Justif[i].encode())
	}
	e.Uint32(uint32(len(m.Slots)))
	for i := range m.Slots {
		e.Int64(m.Slots[i].Instance)
		e.WriteBytes(m.Slots[i].Value)
	}
	return e.Bytes()
}

func decodeEpochSync(data []byte) (epochSyncMsg, error) {
	d := codec.NewDecoder(data)
	var m epochSyncMsg
	m.NextEpoch = d.Int64()
	for n := d.Count(4); n > 0; n-- { // each a length-prefixed EPOCH-STOP
		sm, err := decodeEpochStop(d.ReadBytes())
		if err != nil {
			return epochSyncMsg{}, fmt.Errorf("decode epoch sync justification: %w", err)
		}
		m.Justif = append(m.Justif, sm)
	}
	m.Slots = codec.List(d, 8+4, func(d *codec.Decoder) slotProposal {
		return slotProposal{Instance: d.Int64(), Value: d.ReadBytesCopy()}
	})
	if err := d.Finish(); err != nil {
		return epochSyncMsg{}, fmt.Errorf("decode epoch sync: %w", err)
	}
	return m, nil
}

// attestedUnlocked counts the stops attesting "slot inst is live and
// nothing is locked there": Floor ≤ inst and no claim for inst. Settled
// voters (Floor > inst) abstain, so for a decided slot the attestor pool
// can never reach a quorum (≥ f+1 correct cert-holders either claim or have
// settled).
func attestedUnlocked(stops []epochStopMsg, inst int64) int {
	count := 0
	for i := range stops {
		if stops[i].Floor > inst {
			continue
		}
		claimed := false
		for j := range stops[i].Claims {
			if stops[i].Claims[j].Instance == inst {
				claimed = true
				break
			}
		}
		if !claimed {
			count++
		}
	}
	return count
}

// bestClaims folds a set of epoch stops into the strongest claim per
// instance: a decision proof dominates any write certificate, and among
// write certificates the highest epoch wins (single-decree PBFT view-change
// logic, applied slot-wise).
func bestClaims(stops []epochStopMsg) map[int64]*slotClaim {
	best := make(map[int64]*slotClaim)
	for i := range stops {
		for j := range stops[i].Claims {
			c := &stops[i].Claims[j]
			cur, ok := best[c.Instance]
			if !ok {
				best[c.Instance] = c
				continue
			}
			if cur.Kind == claimDecided {
				continue
			}
			if c.Kind == claimDecided || c.Epoch > cur.Epoch {
				best[c.Instance] = c
			}
		}
	}
	return best
}
