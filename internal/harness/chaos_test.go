package harness

import (
	"strings"
	"testing"
	"time"

	"smartchain/internal/chaos"
)

// TestChaosEquivocatingLeaderSurvived pins the ISSUE's headline adversity:
// an equivocating leader — the same instance proposed with different values
// to different halves of the view — must cost at most an epoch change,
// never a safety violation. The schedule is handwritten (not generated) so
// the equivocation window is guaranteed to be exercised regardless of seed.
func TestChaosEquivocatingLeaderSurvived(t *testing.T) {
	sched := &chaos.Schedule{Steps: []chaos.Step{{
		At:     500 * time.Millisecond,
		Dur:    4 * time.Second,
		Action: &chaos.ByzantineAction{TargetLeader: true, Mode: chaos.ByzEquivocate},
	}}}
	rep, err := Chaos(ChaosOptions{Schedule: sched, Clients: 4})
	if err != nil {
		t.Fatalf("chaos: %v", err)
	}
	for _, ev := range rep.Events {
		t.Log(ev)
	}
	if rep.Equivocations == 0 {
		t.Fatal("the Byzantine wrapper never forked a proposal: the fault was not exercised")
	}
	if rep.EpochChanges == 0 {
		t.Fatal("no epoch change: the equivocator was never deposed")
	}
	if len(rep.Violations) != 0 {
		t.Fatalf("invariants violated under an equivocating leader: %v", rep.Violations)
	}
}

// TestChaosChurnUnderLoad holds sustained client load while membership
// churns — two joins and two leaves over ~20 s — and gates on the full
// invariant contract: no decided instance lost, bit-identical survivor
// state, bounded recovery, no flatline. A replica is told to leave 6 s after
// it was told to join: the steps are asynchronous, a join takes 2–5 s under
// -race on two cores, and a leave that overtakes it is refused ("not a
// member of the current view"), which says nothing about churn.
func TestChaosChurnUnderLoad(t *testing.T) {
	sched := &chaos.Schedule{Steps: []chaos.Step{
		{At: 3 * time.Second, Action: &chaos.JoinAction{ID: 4}},
		{At: 9 * time.Second, Action: &chaos.LeaveAction{ID: 4}},
		{At: 12 * time.Second, Action: &chaos.JoinAction{ID: 5}},
		{At: 18 * time.Second, Action: &chaos.LeaveAction{ID: 5}},
	}}
	rep, err := Chaos(ChaosOptions{Schedule: sched, Clients: 4})
	if err != nil {
		t.Fatalf("chaos: %v", err)
	}
	joins, leaves := 0, 0
	for _, ev := range rep.Events {
		t.Log(ev)
		if ev.Kind != chaos.EventClear {
			continue
		}
		switch {
		case strings.HasPrefix(ev.Name, "join("):
			joins++
		case strings.HasPrefix(ev.Name, "leave("):
			leaves++
		}
	}
	if joins < 2 || leaves < 2 {
		t.Fatalf("churn under-delivered: %d joins and %d leaves completed, want >=2 each", joins, leaves)
	}
	if len(rep.Violations) != 0 {
		t.Fatalf("invariants violated under churn: %v", rep.Violations)
	}
	if rep.Survivors != 4 {
		t.Fatalf("expected the 4 genesis replicas to survive, got %d", rep.Survivors)
	}
}
