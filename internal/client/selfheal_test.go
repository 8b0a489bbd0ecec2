package client

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"smartchain/internal/crypto"
	"smartchain/internal/smr"
	"smartchain/internal/transport"
)

// TestProxyAdoptsNewViewAndRetargetsInFlight is the self-healing tentpole
// plus the retransmit-hang regression: an unordered read is in flight when
// the group reconfigures from {0,1,2,3} to {1,2,3,4} (replica 0 dead, 4
// fresh). Without view discovery the proxy would retransmit to the call-
// start membership forever and time out; with it, the mismatching reply
// tags trigger a view query, the proxy adopts the new view, re-targets the
// call, and completes against the new membership — no SetMembers call.
func TestProxyAdoptsNewViewAndRetargetsInFlight(t *testing.T) {
	net := transport.NewMemNetwork()
	newView := []int32{1, 2, 3, 4}
	bal := func(smr.Request) []byte { return []byte("bal") }
	var replicas []*fakeReplica
	for _, id := range newView {
		r := startFakeReplica(net, id, bal)
		r.SetView(1, newView)
		replicas = append(replicas, r)
	}
	defer func() {
		for _, r := range replicas {
			r.Stop()
		}
	}()

	// The proxy still believes the pre-reconfiguration view; replica 0 is
	// gone.
	p := New(net.Endpoint(transport.ClientIDBase), crypto.SeededKeyPair("cl", 20),
		[]int32{0, 1, 2, 3}, WithTimeout(5*time.Second), WithRetry(100*time.Millisecond))
	defer p.Close()

	res, err := p.InvokeUnordered(context.Background(), []byte("q"))
	if err != nil {
		t.Fatalf("unordered read across reconfiguration: %v", err)
	}
	if string(res) != "bal" {
		t.Fatalf("result: %q", res)
	}
	if got := p.Members(); len(got) != 4 || got[0] != 1 || got[3] != 4 {
		t.Fatalf("proxy did not adopt the new membership: %v", got)
	}
	if p.ViewID() != 1 {
		t.Fatalf("proxy view id: %d, want 1", p.ViewID())
	}
	// The re-target reached the joined replica (poll: the quorum can
	// complete from the other three before replica 4's copy is processed).
	deadline := time.Now().Add(2 * time.Second)
	for replicas[3].Seen() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("new member never received the re-targeted request")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestStaleViewTagExcludedFromReadQuorum: a replica still listed in the
// proxy's membership but replying with a PREVIOUS view's tag (it has not
// installed the reconfiguration — or was removed and is replaying old
// state) must not count toward an unordered read quorum. Two fresh replies
// plus one stale one stay below the 3-quorum, so the read times out
// instead of returning a possibly-stale-view answer.
func TestStaleViewTagExcludedFromReadQuorum(t *testing.T) {
	net := transport.NewMemNetwork()
	newView := []int32{1, 2, 3, 4}
	bal := func(smr.Request) []byte { return []byte("bal") }
	var replicas []*fakeReplica
	for _, id := range newView {
		r := startFakeReplica(net, id, bal)
		r.SetView(1, newView)
		replicas = append(replicas, r)
	}
	defer func() {
		for _, r := range replicas {
			r.Stop()
		}
	}()

	// Teach the proxy view 1 first (self-healing discovery from {0,1,2,3}).
	p := New(net.Endpoint(transport.ClientIDBase), crypto.SeededKeyPair("cl", 21),
		[]int32{0, 1, 2, 3}, WithTimeout(5*time.Second), WithRetry(100*time.Millisecond))
	defer p.Close()
	if _, err := p.InvokeUnordered(context.Background(), []byte("warm")); err != nil {
		t.Fatalf("warm read: %v", err)
	}
	if p.ViewID() != 1 {
		t.Fatalf("proxy view id after warm read: %d, want 1", p.ViewID())
	}

	// Now replica 3 regresses to the old view's tag, replica 4 goes silent:
	// only two CURRENT-view replies remain. The stale reply carries the
	// same result bytes — without the tag check it would complete the
	// 3-quorum.
	replicas[2].SetView(0, []int32{0, 1, 2, 3})
	replicas[3].mu.Lock()
	replicas[3].result = nil
	replicas[3].mu.Unlock()

	ctx, cancel := context.WithTimeout(context.Background(), 600*time.Millisecond)
	defer cancel()
	if _, err := p.InvokeUnordered(ctx, []byte("q2")); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("stale-tagged reply contributed to a read quorum: err=%v", err)
	}
}

// TestReadFloorFromReplyTagsAndBehindFallback: the proxy folds reply tag
// heights into its session read floor, attaches the floor to unordered
// requests, and transparently falls back to an ordered read when a quorum
// of replicas report the floor unserveable (ReplyFlagBehind).
func TestReadFloorFromReplyTagsAndBehindFallback(t *testing.T) {
	net := transport.NewMemNetwork()
	var mu sync.Mutex
	var floors []int64
	var orderedReads int
	result := func(req smr.Request) []byte {
		mu.Lock()
		if req.Unordered() {
			floors = append(floors, req.ReadFloor)
		} else {
			orderedReads++
		}
		mu.Unlock()
		return []byte("bal")
	}
	var replicas []*fakeReplica
	for i := int32(0); i < 4; i++ {
		r := startFakeReplica(net, i, result)
		r.SetHeight(42)
		replicas = append(replicas, r)
	}
	defer func() {
		for _, r := range replicas {
			r.Stop()
		}
	}()

	p := New(net.Endpoint(transport.ClientIDBase), crypto.SeededKeyPair("cl", 22),
		[]int32{0, 1, 2, 3}, WithTimeout(5*time.Second), WithRetry(100*time.Millisecond))
	defer p.Close()

	// An ordered write completes at height 42: the proxy's floor follows.
	if _, err := p.Invoke(context.Background(), []byte("w")); err != nil {
		t.Fatalf("write: %v", err)
	}
	if p.ReadFloor() != 42 {
		t.Fatalf("read floor after write: %d, want 42", p.ReadFloor())
	}

	// A read now carries the floor.
	if _, err := p.InvokeUnordered(context.Background(), []byte("r")); err != nil {
		t.Fatalf("read: %v", err)
	}
	mu.Lock()
	if len(floors) == 0 || floors[0] != 42 {
		t.Fatalf("unordered request floors: %v, want [42 ...]", floors)
	}
	mu.Unlock()

	// Replicas stop serving the floor: the proxy must fall back to an
	// ordered read and still return the balance.
	for _, r := range replicas {
		r.SetBehind(true)
	}
	res, err := p.InvokeUnordered(context.Background(), []byte("r2"))
	if err != nil {
		t.Fatalf("read with behind quorum: %v", err)
	}
	if string(res) != "bal" {
		t.Fatalf("fallback result: %q", res)
	}
	mu.Lock()
	defer mu.Unlock()
	if orderedReads == 0 {
		t.Fatal("behind quorum did not trigger an ordered fallback read")
	}
}
