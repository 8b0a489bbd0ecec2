package crypto

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

// signedItem builds one valid (pub, context, msg, sig) tuple.
func signedItem(t *testing.T, id int64, context string) (PublicKey, []byte, []byte) {
	t.Helper()
	kp := SeededKeyPair("batch-test", id)
	msg := []byte(fmt.Sprintf("message-%d", id))
	sig, err := kp.Sign(context, msg)
	if err != nil {
		t.Fatalf("sign: %v", err)
	}
	return kp.Public(), msg, sig
}

func TestBatchVerifierAllValid(t *testing.T) {
	for _, n := range []int{0, 1, 3, 4, 17, 64} {
		for _, workers := range []int{0, 1, 4} {
			t.Run(fmt.Sprintf("n=%d/workers=%d", n, workers), func(t *testing.T) {
				bv := NewBatchVerifier(n)
				for i := 0; i < n; i++ {
					pub, msg, sig := signedItem(t, int64(i), "ctx")
					bv.Add(pub, "ctx", msg, sig)
				}
				if bv.Len() != n {
					t.Fatalf("Len = %d, want %d", bv.Len(), n)
				}
				if !bv.Verify(workers) {
					t.Fatal("all-valid batch must verify")
				}
				for i, ok := range bv.VerifyEach(workers) {
					if !ok {
						t.Fatalf("item %d failed in all-valid batch", i)
					}
				}
			})
		}
	}
}

// TestBatchVerifierSingleBadSignature is the fallback contract: one rotten
// signature makes the all-or-nothing Verify fail, and VerifyEach isolates
// exactly that item so its honest siblings survive.
func TestBatchVerifierSingleBadSignature(t *testing.T) {
	const n = 32
	for _, bad := range []int{0, n / 2, n - 1} {
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("bad=%d/workers=%d", bad, workers), func(t *testing.T) {
				bv := NewBatchVerifier(n)
				for i := 0; i < n; i++ {
					pub, msg, sig := signedItem(t, int64(i), "ctx")
					if i == bad {
						sig = append([]byte(nil), sig...)
						sig[0] ^= 0xff
					}
					bv.Add(pub, "ctx", msg, sig)
				}
				if bv.Verify(workers) {
					t.Fatal("batch with a bad signature must not verify")
				}
				verdicts := bv.VerifyEach(workers)
				for i, ok := range verdicts {
					if want := i != bad; ok != want {
						t.Fatalf("item %d verdict %v, want %v", i, ok, want)
					}
				}
			})
		}
	}
}

// decidesAsVerify checks that a BatchVerifier over items decides exactly as
// per-item Verify does, in one equation and split across workers: Verify is
// every item's verdict and'ed, VerifyEach is the verdicts themselves. It
// returns the per-item verdicts.
func decidesAsVerify(t *testing.T, items []batchItem) []bool {
	t.Helper()
	want, all := make([]bool, len(items)), true
	bv := NewBatchVerifier(len(items))
	for i, it := range items {
		want[i] = Verify(it.pub, it.context, it.msg, it.sig)
		all = all && want[i]
		bv.Add(it.pub, it.context, it.msg, it.sig)
	}
	for _, workers := range []int{1, 4} {
		if got := bv.Verify(workers); got != all {
			t.Fatalf("workers=%d: batch verdict %v, Verify's %v", workers, got, all)
		}
		for i, ok := range bv.VerifyEach(workers) {
			if ok != want[i] {
				t.Fatalf("workers=%d: item %d verdict %v, Verify's %v", workers, i, ok, want[i])
			}
		}
	}
	return want
}

// oneKeyItems signs n distinct messages with one key.
func oneKeyItems(n int) []batchItem {
	kp := SeededKeyPair("merged", 1)
	items := make([]batchItem, n)
	for i := range items {
		msg := []byte(fmt.Sprintf("merged-%d", i))
		items[i] = batchItem{pub: kp.Public(), context: "ctx", msg: msg, sig: kp.MustSign("ctx", msg)}
	}
	return items
}

// TestBatchVerifierMergedKeyTerms: the signatures of one key share one term
// of the batch equation, and every batch still decides as per-item Verify.
func TestBatchVerifierMergedKeyTerms(t *testing.T) {
	t.Run("one key, one flipped message bit", func(t *testing.T) {
		const bad = 37
		items := oneKeyItems(64)
		items[bad].msg = append([]byte(nil), items[bad].msg...)
		items[bad].msg[3] ^= 0x10
		for i, ok := range decidesAsVerify(t, items) {
			if ok != (i != bad) {
				t.Fatalf("item %d: Verify says %v", i, ok)
			}
		}
	})
	t.Run("one key, messages swapped", func(t *testing.T) {
		items := oneKeyItems(2)
		items[0].msg, items[1].msg = items[1].msg, items[0].msg
		for i, ok := range decidesAsVerify(t, items) {
			if ok {
				t.Fatalf("item %d: a signature over its sibling's message verifies", i)
			}
		}
	})
	t.Run("one point, two encodings", func(t *testing.T) {
		items := oneKeyItems(16)
		zero := make([]byte, 32)
		for _, a := range []string{smallOrder[0], nonCanonical[1]} { // the identity, canonical and not
			for _, r := range smallOrder[:4] {
				items = append(items, batchItem{pub: unhex(t, a), context: "ctx", msg: []byte("edge"),
					sig: append(unhex(t, r), zero...)})
			}
		}
		for i, ok := range decidesAsVerify(t, items) {
			if !ok {
				t.Fatalf("item %d refused", i)
			}
		}
	})
	t.Run("all keys distinct", func(t *testing.T) {
		const bad = 9
		items := make([]batchItem, 32)
		for i := range items {
			pub, msg, sig := signedItem(t, int64(i), "ctx")
			items[i] = batchItem{pub: pub, context: "ctx", msg: msg, sig: sig}
		}
		items[bad].sig = append([]byte(nil), items[bad].sig...)
		items[bad].sig[40] ^= 1
		for i, ok := range decidesAsVerify(t, items) {
			if ok != (i != bad) {
				t.Fatalf("item %d: Verify says %v", i, ok)
			}
		}
	})
}

func TestBatchVerifierContextSeparation(t *testing.T) {
	bv := NewBatchVerifier(1)
	pub, msg, sig := signedItem(t, 1, "phase-a")
	bv.Add(pub, "phase-b", msg, sig)
	if bv.Verify(1) {
		t.Fatal("signature must not verify under a different context")
	}
}

func TestBatchVerifierReset(t *testing.T) {
	bv := NewBatchVerifier(4)
	pub, msg, sig := signedItem(t, 1, "ctx")
	sig = append([]byte(nil), sig...)
	sig[0] ^= 0xff
	bv.Add(pub, "ctx", msg, sig)
	if bv.Verify(1) {
		t.Fatal("bad batch verified")
	}
	bv.Reset()
	if bv.Len() != 0 {
		t.Fatalf("Len after Reset = %d", bv.Len())
	}
	if !bv.Verify(1) {
		t.Fatal("empty verifier must verify")
	}
}

func TestVerifyPoolVerdicts(t *testing.T) {
	p := NewVerifyPool(2, 16)
	defer p.Close()

	const n = 8
	results := make(chan struct {
		i  int
		ok bool
	}, n)
	for i := 0; i < n; i++ {
		pub, msg, sig := signedItem(t, int64(i), "pool")
		if i == 3 {
			sig = append([]byte(nil), sig...)
			sig[0] ^= 0xff
		}
		i := i
		if !p.Submit(pub, "pool", msg, sig, func(ok bool) {
			results <- struct {
				i  int
				ok bool
			}{i, ok}
		}) {
			t.Fatalf("submit %d rejected by an idle pool", i)
		}
	}
	for k := 0; k < n; k++ {
		r := <-results
		if want := r.i != 3; r.ok != want {
			t.Fatalf("item %d verdict %v, want %v", r.i, r.ok, want)
		}
	}
}

// TestVerifyPoolSaturationFallsBack pins the pool's one worker and fills its
// one queue slot: the next TryGo must report false (caller runs the job
// inline) instead of blocking the submitter.
func TestVerifyPoolSaturationFallsBack(t *testing.T) {
	p := NewVerifyPool(1, 1)
	defer p.Close()

	pub, msg, sig := signedItem(t, 1, "pool")
	release := make(chan struct{})
	blocked := make(chan struct{})
	if !p.Submit(pub, "pool", msg, sig, func(bool) {
		close(blocked)
		<-release
	}) {
		t.Fatal("first submit rejected")
	}
	<-blocked // worker is now pinned inside done()
	if !p.TryGo(func() {}) {
		t.Fatal("a whole job should occupy the queue slot")
	}
	if p.TryGo(func() {
		t.Error("overflow job must not run")
	}) {
		t.Fatal("saturated pool must reject TryGo")
	}
	close(release)
}

// TestVerifyPoolDrainsMixedKinds pins the pool's one worker and queues
// behind it signature jobs under two contexts, one corrupt signature under
// each, with a whole job among them. The worker drains them together: every
// done gets its own verdict, all of them before the whole job runs, and the
// whole job still runs.
func TestVerifyPoolDrainsMixedKinds(t *testing.T) {
	const (
		otherCtx   = "smartchain/other/v1"
		requestCtx = "smartchain/request/v1" // smr.ContextRequest
		n          = 16
	)
	p := NewVerifyPool(1, 2*n)
	defer p.Close()
	pinned, release := make(chan struct{}), make(chan struct{})
	if !p.TryGo(func() {
		close(pinned)
		<-release
	}) {
		t.Fatal("pinning job rejected by an idle pool")
	}
	<-pinned

	type verdict struct {
		i  int
		ok bool
	}
	verdicts := make(chan verdict, n)
	var delivered atomic.Int64
	bad := map[int]bool{3: true, n/2 + 4: true} // one under each context
	ranAfter := make(chan int64, 1)
	for i := 0; i < n; i++ {
		if i == n/2 && !p.TryGo(func() { ranAfter <- delivered.Load() }) {
			t.Fatal("whole job rejected")
		}
		ctx := otherCtx
		if i >= n/2 {
			ctx = requestCtx
		}
		pub, msg, sig := signedItem(t, int64(i), ctx)
		if bad[i] {
			sig = append([]byte(nil), sig...)
			sig[0] ^= 0xff
		}
		i := i
		if !p.Submit(pub, ctx, msg, sig, func(ok bool) {
			delivered.Add(1)
			verdicts <- verdict{i, ok}
		}) {
			t.Fatalf("signature job %d rejected", i)
		}
	}
	close(release)

	for k := 0; k < n; k++ {
		v := <-verdicts
		if want := !bad[v.i]; v.ok != want {
			t.Fatalf("job %d verdict %v, want %v", v.i, v.ok, want)
		}
	}
	if got := <-ranAfter; got != n {
		t.Fatalf("the whole job ran after %d of %d verdicts: not drained with them", got, n)
	}
}

func TestVerifyPoolCloseSemantics(t *testing.T) {
	p := NewVerifyPool(1, 4)
	pub, msg, sig := signedItem(t, 1, "pool")

	got := make(chan bool, 1)
	if !p.Submit(pub, "pool", msg, sig, func(ok bool) { got <- ok }) {
		t.Fatal("submit rejected")
	}
	p.Close() // queued jobs still complete
	if ok := <-got; !ok {
		t.Fatal("queued job lost its verdict across Close")
	}
	if p.Submit(pub, "pool", msg, sig, func(bool) {
		t.Error("callback after Close")
	}) {
		t.Fatal("Submit after Close must report false")
	}
	if p.TryGo(func() { t.Error("job after Close") }) {
		t.Fatal("TryGo after Close must report false")
	}
	p.Close() // idempotent

	var nilPool *VerifyPool
	if nilPool.Submit(pub, "pool", msg, sig, func(bool) {}) || nilPool.TryGo(func() {}) {
		t.Fatal("nil pool must reject Submit and TryGo")
	}
	nilPool.Close() // no-op
}

// TestVerifyPoolConcurrentSubmitClose exercises the submit/close race under
// the race detector: no send on a closed channel, no lost panics.
func TestVerifyPoolConcurrentSubmitClose(t *testing.T) {
	pub, msg, sig := signedItem(t, 1, "pool")
	for round := 0; round < 20; round++ {
		p := NewVerifyPool(2, 4)
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 50; i++ {
					if i%2 == 0 {
						p.Submit(pub, "pool", msg, sig, func(bool) {})
					} else {
						p.TryGo(func() {})
					}
				}
			}()
		}
		p.Close()
		wg.Wait()
	}
}

// Len reports the number of deferred checks.
func (b *BatchVerifier) Len() int { return len(b.items) }
