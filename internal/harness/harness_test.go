package harness

import (
	"math"
	"testing"
	"time"
)

func TestTrimmedMeanDiscardsOutliers(t *testing.T) {
	// Nine stable samples and one wild outlier: a 20% trim must remove the
	// outlier's influence almost entirely.
	samples := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 10_000}
	mean, std := TrimmedMean(samples, 0.2)
	if mean < 95 || mean > 105 {
		t.Fatalf("trimmed mean: %f", mean)
	}
	if std > 5 {
		t.Fatalf("trimmed std: %f", std)
	}
}

func TestTrimmedMeanEdgeCases(t *testing.T) {
	if m, s := TrimmedMean(nil, 0.2); m != 0 || s != 0 {
		t.Fatalf("empty: %f %f", m, s)
	}
	m, s := TrimmedMean([]float64{42}, 0.2)
	if m != 42 || s != 0 {
		t.Fatalf("single: %f %f", m, s)
	}
	// Full-trim request still keeps at least one sample.
	m, _ = TrimmedMean([]float64{1, 2, 3}, 1.0)
	if math.IsNaN(m) {
		t.Fatal("over-trim must not produce NaN")
	}
}

func TestLatencyStats(t *testing.T) {
	lat := make([]time.Duration, 100)
	for i := range lat {
		lat[i] = time.Duration(i+1) * time.Millisecond
	}
	mean, p99 := latencyStats(lat)
	if mean < 45*time.Millisecond || mean > 55*time.Millisecond {
		t.Fatalf("mean: %v", mean)
	}
	if p99 < 98*time.Millisecond || p99 > 100*time.Millisecond {
		t.Fatalf("p99: %v", p99)
	}
	if m, p := latencyStats(nil); m != 0 || p != 0 {
		t.Fatalf("empty: %v %v", m, p)
	}
}

func TestFig8PointCheckpointsReduceReplay(t *testing.T) {
	// 200 blocks, 8 txs each: without checkpoints the joiner re-executes all
	// 200; with one at block 150 it restores that and re-executes 50. The
	// durations are for the log only — two ~2 ms replays are not a fact.
	full, fullBlocks, err := Fig8Point(200, 0, 8)
	if err != nil {
		t.Fatalf("full replay: %v", err)
	}
	ckpt, ckptBlocks, err := Fig8Point(200, 150, 8)
	if err != nil {
		t.Fatalf("ckpt replay: %v", err)
	}
	if fullBlocks != 200 || ckptBlocks != 50 {
		t.Fatalf("replayed %d blocks without checkpoints and %d after the block-150 checkpoint, want 200 and 50",
			fullBlocks, ckptBlocks)
	}
	t.Logf("full replay %v, checkpointed update %v", full, ckpt)
}

func TestExpOptionsDefaults(t *testing.T) {
	o := ExpOptions{}.Defaults()
	if o.Clients <= 0 || o.Measure <= 0 || o.Warmup <= 0 || o.MaxBatch <= 0 || o.Disk == nil {
		t.Fatalf("defaults incomplete: %+v", o)
	}
	// Explicit values survive.
	o2 := ExpOptions{Clients: 7}.Defaults()
	if o2.Clients != 7 {
		t.Fatalf("explicit clients overridden: %d", o2.Clients)
	}
}
