package harness

import "testing"

// TestFailoverExperiment is the harness-level regression gate for the
// regency-wide epoch change: the experiment itself errors on decided-
// instance loss, on more than one synchronization round at the deepest
// window, or on a recovery slower than 4 progress timeouts.
func TestFailoverExperiment(t *testing.T) {
	points, err := Failover(ExpOptions{Depths: []int{1, 8}})
	for _, p := range points {
		t.Log(p)
	}
	if err != nil {
		t.Fatalf("failover: %v", err)
	}
	if len(points) != 2 {
		t.Fatalf("expected 2 points, got %d", len(points))
	}
}
