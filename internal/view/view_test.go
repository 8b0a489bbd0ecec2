package view

import (
	"testing"
	"testing/quick"

	"smartchain/internal/crypto"
)

func TestFaultTolerance(t *testing.T) {
	cases := []struct{ n, f int }{
		{0, 0}, {1, 0}, {2, 0}, {3, 0},
		{4, 1}, {5, 1}, {6, 1},
		{7, 2}, {8, 2}, {9, 2},
		{10, 3}, {13, 4},
	}
	for _, c := range cases {
		if got := FaultTolerance(c.n); got != c.f {
			t.Errorf("FaultTolerance(%d) = %d, want %d", c.n, got, c.f)
		}
	}
}

func TestByzantineQuorum(t *testing.T) {
	// ⌈(n+f+1)/2⌉ values from the paper: n=4→3, n=7→5, n=10→7.
	cases := []struct{ n, f, q int }{
		{4, 1, 3},
		{7, 2, 5},
		{10, 3, 7},
		{5, 1, 4},
		{6, 1, 4},
	}
	for _, c := range cases {
		if got := ByzantineQuorum(c.n, c.f); got != c.q {
			t.Errorf("ByzantineQuorum(%d,%d) = %d, want %d", c.n, c.f, got, c.q)
		}
	}
}

func TestQuorumIntersectionProperty(t *testing.T) {
	// Safety invariant: two Byzantine quorums intersect in at least f+1
	// replicas, hence at least one correct one. Check for all n up to 100.
	for n := 1; n <= 100; n++ {
		f := FaultTolerance(n)
		q := ByzantineQuorum(n, f)
		if q > n {
			t.Fatalf("n=%d: quorum %d exceeds group size", n, q)
		}
		// |A∩B| ≥ 2q − n must exceed f.
		if 2*q-n < f+1 {
			t.Fatalf("n=%d f=%d q=%d: intersection %d < f+1", n, f, q, 2*q-n)
		}
	}
}

func TestReconfigQuorumSafetyProperty(t *testing.T) {
	// Paper §V-D: a reconfiguration records n−f fresh keys. The ≤f members
	// whose keys were omitted, colluding with ≤f faulty members whose keys
	// were included, must not reach the certificate quorum.
	for n := 4; n <= 100; n++ {
		f := FaultTolerance(n)
		certQ := ByzantineQuorum(n, f)
		// Worst case adversary: f omitted (can't sign at all in new view) do
		// not help; f faulty with included keys can sign. f < certQ always.
		if f >= certQ {
			t.Fatalf("n=%d: f=%d can forge certificate of quorum %d", n, f, certQ)
		}
		if ReconfigQuorum(n, f) != n-f {
			t.Fatalf("n=%d: reconfig quorum mismatch", n)
		}
	}
}

func testView(n int) View {
	members := make([]int32, n)
	keys := make(map[int32]crypto.PublicKey, n)
	for i := 0; i < n; i++ {
		members[i] = int32(i)
		keys[int32(i)] = crypto.SeededKeyPair("v", int64(i)).Public()
	}
	return New(1, members, keys)
}

func TestViewBasics(t *testing.T) {
	v := testView(4)
	if v.N() != 4 || v.F() != 1 {
		t.Fatalf("n/f: %d/%d", v.N(), v.F())
	}
	if v.Quorum() != 3 || v.CertQuorum() != 3 || v.JoinQuorum() != 3 {
		t.Fatalf("quorums: %d/%d/%d", v.Quorum(), v.CertQuorum(), v.JoinQuorum())
	}
	if !v.Contains(2) || v.Contains(9) {
		t.Fatal("contains")
	}
	others := v.Others(1)
	if len(others) != 3 {
		t.Fatalf("others: %v", others)
	}
	for _, o := range others {
		if o == 1 {
			t.Fatal("others must exclude self")
		}
	}
	if _, ok := v.PublicKeyOf(0); !ok {
		t.Fatal("key resolution failed")
	}
	if _, ok := v.PublicKeyOf(77); ok {
		t.Fatal("unknown member must not resolve")
	}
	if v.String() == "" {
		t.Fatal("string")
	}
}

func TestViewMembershipNormalization(t *testing.T) {
	v := New(0, []int32{3, 1, 2, 1, 3}, nil)
	want := []int32{1, 2, 3}
	if len(v.Members) != len(want) {
		t.Fatalf("members: %v", v.Members)
	}
	for i := range want {
		if v.Members[i] != want[i] {
			t.Fatalf("members: %v, want %v", v.Members, want)
		}
	}
}

func TestLeaderRotation(t *testing.T) {
	v := testView(4)
	seen := make(map[int32]bool)
	for e := int64(0); e < 8; e++ {
		l := v.Leader(e)
		if !v.Contains(l) {
			t.Fatalf("leader %d not a member", l)
		}
		seen[l] = true
		if v.Leader(e) != v.Leader(e+4) {
			t.Fatal("rotation must have period n")
		}
	}
	if len(seen) != 4 {
		t.Fatalf("rotation must cover all members, saw %d", len(seen))
	}
	empty := New(9, nil, nil)
	if empty.Leader(0) != -1 {
		t.Fatal("empty view leader must be -1")
	}
	// Epochs arrive off the wire: a negative one must not index the
	// membership (it used to panic the consensus loop).
	if v.Leader(-3) != -1 {
		t.Fatal("a negative epoch has no leader")
	}
}

func TestWithKey(t *testing.T) {
	v := testView(4)
	delete(v.ConsensusKeys, 3)
	if _, ok := v.PublicKeyOf(3); ok {
		t.Fatal("precondition: key 3 absent")
	}
	nk := crypto.SeededKeyPair("new", 3).Public()
	v2 := v.WithKey(3, nk)
	if _, ok := v.PublicKeyOf(3); ok {
		t.Fatal("WithKey must not mutate the original view")
	}
	got, ok := v2.PublicKeyOf(3)
	if !ok || !got.Equal(nk) {
		t.Fatal("WithKey must set the key on the copy")
	}
	// Non-member: no-op.
	v3 := v.WithKey(42, nk)
	if _, ok := v3.PublicKeyOf(42); ok {
		t.Fatal("WithKey for non-member must be a no-op")
	}
}

func TestPropertyQuorumMonotonicity(t *testing.T) {
	f := func(raw uint8) bool {
		n := int(raw%97) + 4
		ft := FaultTolerance(n)
		q := ByzantineQuorum(n, ft)
		// 2f+1 ≤ q ≤ n and q ≥ majority.
		return q >= 2*ft+1 && q <= n && 2*q > n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
