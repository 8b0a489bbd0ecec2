package core

import (
	"testing"
	"time"
)

// TestRemoveVotesSurviveRecovery pins that ordered remove votes are
// replicated state: a replica that crashes after two of the four votes
// excluding member 4 were ordered must still count them once it recovers —
// by replaying the vote blocks, or from a checkpoint taken after the second
// vote — and install the new view with everyone else when the last two
// arrive. Losing them leaves it in the old view forever.
func TestRemoveVotesSurviveRecovery(t *testing.T) {
	for _, tc := range []struct {
		name       string
		checkpoint int64
	}{
		{"replay", 0},
		{"checkpoint", 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c, minter := testCluster(t, 5, func(cfg *ClusterConfig) { cfg.CheckpointPeriod = tc.checkpoint })
			p := registeredClient(t, c, minter)
			mint(t, p, 1, 10)
			vote := func(voter int32) {
				t.Helper()
				if err := c.Nodes[voter].Node.VoteRemove(4); err != nil {
					t.Fatalf("replica %d remove vote: %v", voter, err)
				}
			}
			for _, voter := range []int32{0, 1} {
				h := c.Nodes[voter].Node.Ledger().Height()
				vote(voter)
				if err := c.WaitHeight(h+1, 10*time.Second); err != nil {
					t.Fatalf("vote of %d not ordered: %v", voter, err)
				}
			}
			if err := c.Crash(3); err != nil {
				t.Fatal(err)
			}
			if err := c.Recover(3); err != nil {
				t.Fatalf("recover: %v", err)
			}
			vote(2)
			vote(3)
			deadline := time.Now().Add(10 * time.Second)
			for id := int32(0); id < 4; id++ {
				for c.Nodes[id].Node.View().Contains(4) {
					if time.Now().After(deadline) {
						t.Fatalf("replica %d never installed the view without member 4: %v", id, c.Nodes[id].Node.View())
					}
					time.Sleep(10 * time.Millisecond)
				}
			}
		})
	}
}
