package smr

import "testing"

func windowReq(client int64, seq uint64) Request {
	return Request{ClientID: client, Seq: seq, Op: []byte{0x01}}
}

// TestBatcherWindowedHandoutNoOverlap models the pipelined driver: W
// batches handed out before any of them executes. No request may appear in
// two concurrent batches, duplicates must stay out while their original is
// outstanding, and out-of-order delivery (decisions commit in instance
// order, but MarkDelivered timing varies) keeps the dedupe sound.
func TestBatcherWindowedHandoutNoOverlap(t *testing.T) {
	b := NewBatcher(8)
	for c := int64(1); c <= 4; c++ {
		for s := uint64(1); s <= 8; s++ {
			if !b.Add(windowReq(c, s)) {
				t.Fatalf("add %d/%d rejected", c, s)
			}
		}
	}

	// Four full batches outstanding at once — the W window slots.
	seen := make(map[dedupeKey]bool)
	var batches []Batch
	for i := 0; i < 4; i++ {
		batch, ok := b.TryNext()
		if !ok {
			t.Fatalf("batch %d not handed out", i)
		}
		if len(batch.Requests) != 8 {
			t.Fatalf("batch %d size %d", i, len(batch.Requests))
		}
		for _, r := range batch.Requests {
			k := dedupeKey{r.ClientID, r.Seq}
			if seen[k] {
				t.Fatalf("request %+v handed out in two concurrent batches", k)
			}
			seen[k] = true
		}
		batches = append(batches, batch)
	}
	if got := b.Outstanding(); got != 32 {
		t.Fatalf("outstanding %d, want 32", got)
	}
	if _, ok := b.TryNext(); ok {
		t.Fatal("queue should be drained")
	}

	// Re-adding a handed-out request (client retransmission) must not
	// queue a second copy.
	if b.Add(windowReq(1, 1)) {
		t.Fatal("duplicate of an outstanding request was accepted")
	}
	if b.Pending() != 0 {
		t.Fatalf("pending %d after duplicate add", b.Pending())
	}

	// Deliver the batches out of order; dedupe state drains accordingly.
	b.MarkDelivered(batches[2].Requests)
	b.MarkDelivered(batches[0].Requests)
	b.MarkDelivered(batches[3].Requests)
	b.MarkDelivered(batches[1].Requests)
	if got := b.Outstanding(); got != 0 {
		t.Fatalf("outstanding %d after delivery, want 0", got)
	}

	// Executed requests can never be ordered twice: the per-client
	// watermark rejects replays even though the dedupe slots are free.
	if b.Add(windowReq(1, 1)) {
		t.Fatal("replay of an executed request was accepted")
	}
	if _, ok := b.TryNext(); ok {
		t.Fatal("replay must not produce a batch")
	}
}

// TestBatcherFreshFiltersDuplicateOrdering covers the execution-time dedupe
// that keeps a request ordered twice (leader-change re-proposal plus a
// fresh slot) from executing twice: Fresh judges against the committed
// watermark, including duplicates within a single batch.
func TestBatcherFreshFiltersDuplicateOrdering(t *testing.T) {
	b := NewBatcher(8)

	first := []Request{windowReq(1, 1), windowReq(1, 2), windowReq(2, 1)}
	for i, f := range b.Fresh(first) {
		if !f {
			t.Fatalf("first ordering: request %d not fresh", i)
		}
	}
	b.MarkDelivered(first)

	// A later block re-orders two of them alongside a new request.
	again := []Request{windowReq(1, 2), windowReq(1, 3), windowReq(2, 1)}
	got := b.Fresh(again)
	want := []bool{false, true, false}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("re-ordering: fresh[%d]=%v, want %v", i, got[i], want[i])
		}
	}

	// Duplicates within one batch: only the first occurrence executes.
	intra := []Request{windowReq(3, 5), windowReq(3, 5)}
	got = b.Fresh(intra)
	if !got[0] || got[1] {
		t.Fatalf("intra-batch duplicate: fresh=%v, want [true false]", got)
	}

	// Watermark snapshot/restore round-trips (checkpoint install).
	b2 := NewBatcher(8)
	b2.RestoreWatermarks(b.Watermarks())
	if f := b2.Fresh([]Request{windowReq(1, 2)}); f[0] {
		t.Fatal("restored watermark must reject an executed request")
	}
	if f := b2.Fresh([]Request{windowReq(1, 3)}); !f[0] {
		t.Fatal("restored watermark must accept the next sequence")
	}
}

// TestBatcherRequeueAfterAbandonedInstance covers the view-boundary drain:
// a batch proposed to an instance that restarts under a new view returns to
// the queue and is handed out again exactly once.
func TestBatcherRequeueAfterAbandonedInstance(t *testing.T) {
	b := NewBatcher(4)
	for s := uint64(1); s <= 8; s++ {
		if !b.Add(windowReq(7, s)) {
			t.Fatalf("add %d rejected", s)
		}
	}
	first, ok := b.TryNext()
	if !ok {
		t.Fatal("first batch")
	}
	second, ok := b.TryNext()
	if !ok {
		t.Fatal("second batch")
	}
	if got := b.Outstanding(); got != 8 {
		t.Fatalf("outstanding %d, want 8", got)
	}

	// The window drains before the second instance commits.
	b.Requeue(second.Requests)
	if got := b.Outstanding(); got != len(first.Requests) {
		t.Fatalf("outstanding %d after requeue, want %d", got, len(first.Requests))
	}

	again, ok := b.TryNext()
	if !ok {
		t.Fatal("requeued batch not handed out")
	}
	if len(again.Requests) != len(second.Requests) {
		t.Fatalf("requeued batch size %d, want %d", len(again.Requests), len(second.Requests))
	}
	for i := range again.Requests {
		if again.Requests[i].Seq != second.Requests[i].Seq {
			t.Fatalf("requeued order broken at %d: seq %d want %d", i, again.Requests[i].Seq, second.Requests[i].Seq)
		}
	}

	b.MarkDelivered(first.Requests)
	b.MarkDelivered(again.Requests)
	if got := b.Outstanding(); got != 0 {
		t.Fatalf("outstanding %d at end, want 0", got)
	}
	// Nothing comes back a second time.
	for s := uint64(1); s <= 8; s++ {
		if b.Add(windowReq(7, s)) {
			t.Fatalf("executed request %d re-accepted", s)
		}
	}
	if _, ok := b.TryNext(); ok {
		t.Fatal("no further batches expected")
	}
}

// A call for a full batch leaves a short queue to grow, takes exactly the
// maximum once there is that much, and hands nothing out for nothing.
func TestBatcherNextFullOnly(t *testing.T) {
	b := NewBatcher(4)
	if _, ok := b.Next(true); ok {
		t.Fatal("a full batch out of an empty queue")
	}
	for s := uint64(1); s <= 3; s++ {
		b.Add(windowReq(1, s))
	}
	if _, ok := b.Next(true); ok || b.Pending() != 3 || b.Outstanding() != 0 {
		t.Fatalf("a full batch out of 3 of 4 requests, or the queue touched: pending %d, outstanding %d", b.Pending(), b.Outstanding())
	}
	for s := uint64(4); s <= 6; s++ {
		b.Add(windowReq(1, s))
	}
	full, ok := b.Next(true)
	if !ok || len(full.Requests) != 4 || full.Requests[0].Seq != 1 {
		t.Fatalf("full batch %v (ok %v), want requests 1..4", full.Requests, ok)
	}
	if rest, ok := b.Next(false); !ok || len(rest.Requests) != 2 {
		t.Fatalf("partial batch %v (ok %v), want the 2 left", rest.Requests, ok)
	}
}
