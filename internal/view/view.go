// Package view defines the dynamic replica-group abstraction of SMARTCHAIN
// (paper §III-a). A View is one installed configuration of the consortium:
// its members, the fault threshold derived from the member count, and the
// per-view consensus public keys that validate everything signed inside the
// view (WRITE/ACCEPT proofs, block certificates, PERSIST messages).
//
// Views are immutable values; reconfiguration produces the next view rather
// than mutating the current one, which is what lets every block reference
// "the view it was created in" unambiguously.
package view

import (
	"fmt"
	"sort"

	"smartchain/internal/codec"
	"smartchain/internal/crypto"
)

// FaultTolerance returns the maximum number of Byzantine faults a group of n
// replicas tolerates: ⌊(n−1)/3⌋.
func FaultTolerance(n int) int {
	if n <= 0 {
		return 0
	}
	return (n - 1) / 3
}

// ByzantineQuorum returns ⌈(n+f+1)/2⌉, the dissemination Byzantine quorum
// used for block certificates and reply matching (paper §IV, [42]). With
// f = ⌊(n−1)/3⌋ this is ≥ 2f+1.
func ByzantineQuorum(n, f int) int {
	return (n + f + 2) / 2
}

// ConsensusQuorum returns the >2/3 threshold used by WRITE and ACCEPT
// rounds: ⌈(n+f+1)/2⌉ with the standard f, which equals 2f+1 for n = 3f+1.
func ConsensusQuorum(n, f int) int {
	return ByzantineQuorum(n, f)
}

// ReconfigQuorum returns n−f, the number of votes (and fresh consensus keys)
// collected for a reconfiguration (paper §V-D): enough for liveness under f
// unresponsive members, and enough for safety because the ≤f members whose
// keys were omitted cannot complete a ⌈(n+f+1)/2⌉ certificate even in
// collusion with f faulty current members.
func ReconfigQuorum(n, f int) int {
	return n - f
}

// View is one installed configuration of the replica group.
type View struct {
	// ID is the view number; the genesis view has ID 0, and every
	// reconfiguration increments it.
	ID int64
	// Members lists the replica IDs of the view in ascending order.
	Members []int32
	// ConsensusKeys maps each member to the consensus public key it uses in
	// this view. During the window right after a view change, keys for
	// members that were not part of the reconfiguration quorum may be
	// missing until announced (paper §V-D); such members cannot contribute
	// certificate signatures yet.
	ConsensusKeys map[int32]crypto.PublicKey
}

// New builds a view with sorted, deduplicated membership. The key map is
// copied.
func New(id int64, members []int32, keys map[int32]crypto.PublicKey) View {
	ms := dedupSorted(members)
	km := make(map[int32]crypto.PublicKey, len(keys))
	for m, k := range keys {
		km[m] = k
	}
	return View{ID: id, Members: ms, ConsensusKeys: km}
}

func dedupSorted(members []int32) []int32 {
	ms := make([]int32, len(members))
	copy(ms, members)
	sort.Slice(ms, func(i, j int) bool { return ms[i] < ms[j] })
	out := ms[:0]
	for i, m := range ms {
		if i == 0 || m != ms[i-1] {
			out = append(out, m)
		}
	}
	return out
}

// N returns the number of members.
func (v View) N() int { return len(v.Members) }

// F returns the fault threshold ⌊(N−1)/3⌋.
func (v View) F() int { return FaultTolerance(v.N()) }

// Quorum returns the WRITE/ACCEPT quorum for this view.
func (v View) Quorum() int { return ConsensusQuorum(v.N(), v.F()) }

// CertQuorum returns the block-certificate quorum ⌈(n+f+1)/2⌉.
func (v View) CertQuorum() int { return ByzantineQuorum(v.N(), v.F()) }

// JoinQuorum returns the n−f vote threshold for reconfigurations.
func (v View) JoinQuorum() int { return ReconfigQuorum(v.N(), v.F()) }

// MembershipHash fingerprints one installed configuration: the view ID plus
// the sorted, deduplicated membership. It is what reply view tags carry and
// what the client proxy compares to detect reconfigurations — including the
// view ID makes every reconfiguration change the hash even when a join and
// a removal later restore an identical member set.
func MembershipHash(id int64, members []int32) crypto.Hash {
	ms := dedupSorted(members)
	e := codec.NewEncoder(8 + 4*len(ms))
	e.Int64(id)
	for _, m := range ms {
		e.Int32(m)
	}
	return crypto.HashBytes([]byte("smartchain/membership/v1"), e.Bytes())
}

// MembershipHash fingerprints this view's (ID, members) pair.
func (v View) MembershipHash() crypto.Hash {
	return MembershipHash(v.ID, v.Members)
}

// Contains reports whether id is a member of the view.
func (v View) Contains(id int32) bool {
	i := sort.Search(len(v.Members), func(i int) bool { return v.Members[i] >= id })
	return i < len(v.Members) && v.Members[i] == id
}

// Leader returns the member that leads consensus epoch e (regency r in
// Mod-SMaRt terms): round-robin over the sorted membership.
func (v View) Leader(epoch int64) int32 {
	if len(v.Members) == 0 || epoch < 0 {
		return -1 // epochs off the wire may be negative; nobody leads those
	}
	return v.Members[int(epoch%int64(len(v.Members)))]
}

// PublicKeyOf implements crypto.KeyResolver over the view's consensus keys.
func (v View) PublicKeyOf(id int32) (crypto.PublicKey, bool) {
	k, ok := v.ConsensusKeys[id]
	return k, ok
}

// WithKey returns a copy of the view with the consensus key of id set. Used
// when late members announce their fresh keys after a reconfiguration.
func (v View) WithKey(id int32, key crypto.PublicKey) View {
	if !v.Contains(id) {
		return v
	}
	keys := make(map[int32]crypto.PublicKey, len(v.ConsensusKeys)+1)
	for m, k := range v.ConsensusKeys {
		keys[m] = k
	}
	keys[id] = key
	return View{ID: v.ID, Members: v.Members, ConsensusKeys: keys}
}

// Others returns all members except self.
func (v View) Others(self int32) []int32 {
	out := make([]int32, 0, len(v.Members))
	for _, m := range v.Members {
		if m != self {
			out = append(out, m)
		}
	}
	return out
}

// String renders the view compactly for logs.
func (v View) String() string {
	return fmt.Sprintf("view{id=%d n=%d f=%d members=%v}", v.ID, v.N(), v.F(), v.Members)
}

var _ crypto.KeyResolver = View{}
