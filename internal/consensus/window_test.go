package consensus

import (
	"fmt"
	"testing"
	"time"
)

func TestPipelinedWindowDecidesAllInstances(t *testing.T) {
	// A full window of instances is live before any decision lands; every
	// instance must decide with its proposed value on every replica.
	s := newSim(t, 18, 4, time.Second, nil)
	const W = 8
	for inst := int64(0); inst < W; inst++ {
		s.startAll(inst, []byte(fmt.Sprintf("batch-%d", inst)))
	}
	s.run(s.allDecided(W))
	s.requireAgreement(W)
	for inst := int64(0); inst < W; inst++ {
		s.requireDecided(inst, fmt.Sprintf("batch-%d", inst), 0)
	}
}

func TestAdvanceToAbandonsLowInstances(t *testing.T) {
	// Advance is the state-transfer skip: the machine forgets everything
	// below the new floor — here an instance nobody proposes, which would
	// otherwise time out into a synchronization round — and keeps deciding
	// from there.
	s := newSim(t, 19, 4, time.Second, nil)
	s.startAll(0, []byte("one"))
	s.run(s.allDecided(1))
	s.startAll(1, nil)
	s.run(func() bool { return len(s.inflight) == 0 })
	for i := range s.ms {
		s.step(int32(i), event{kind: evAdvance, inst: 2}) // instance 1 was installed via state transfer
	}
	s.startAll(2, []byte("three"))
	s.run(s.allDecided(2))
	s.requireDecided(2, "three", 0)
	for i, m := range s.ms {
		if _, ok := s.decided[i][1]; ok || len(s.installs[i]) != 0 || m.floor != 3 {
			t.Fatalf("replica %d: decided the abandoned instance %v, %d rounds, floor %d", i, ok, len(s.installs[i]), m.floor)
		}
	}
}
