package smr

import (
	"sync"
	"sync/atomic"
	"testing"

	"smartchain/internal/crypto"
)

func signedBatch(t *testing.T, n int) []Request {
	t.Helper()
	key := crypto.SeededKeyPair("verify-test", 1)
	reqs := make([]Request, n)
	for i := range reqs {
		r, err := NewSignedRequest(1, uint64(i+1), []byte("verify-op"), key)
		if err != nil {
			t.Fatalf("sign request %d: %v", i, err)
		}
		reqs[i] = r
	}
	return reqs
}

func corrupt(r Request) Request {
	sig := append([]byte(nil), r.Sig...)
	sig[0] ^= 0xff
	r.Sig = sig
	return r
}

// TestVerifyBatchFallbackOnBadSignature is the delivery-path contract for
// both verification modes: the batched fast path must not let one rotten
// signature discard the honest requests around it, and must flag exactly the
// corrupted one.
func TestVerifyBatchFallbackOnBadSignature(t *testing.T) {
	const n, bad = 16, 5
	for _, mode := range []VerifyMode{VerifyParallel, VerifySequential} {
		t.Run(mode.String(), func(t *testing.T) {
			pool := NewVerifierPool(mode, 0)
			defer pool.Close()
			reqs := signedBatch(t, n)
			reqs[bad] = corrupt(reqs[bad])
			verdicts := pool.VerifyBatch(reqs)
			if len(verdicts) != n {
				t.Fatalf("got %d verdicts, want %d", len(verdicts), n)
			}
			for i, ok := range verdicts {
				if want := i != bad; ok != want {
					t.Fatalf("request %d verdict %v, want %v", i, ok, want)
				}
			}
		})
	}
}

func TestVerifyBatchAllValid(t *testing.T) {
	pool := NewVerifierPool(VerifyParallel, 0)
	defer pool.Close()
	for _, ok := range pool.VerifyBatch(signedBatch(t, 8)) {
		if !ok {
			t.Fatal("valid request rejected")
		}
	}
}

func TestVerifyBatchNoneModeSkipsChecks(t *testing.T) {
	pool := NewVerifierPool(VerifyNone, 0)
	defer pool.Close()
	reqs := signedBatch(t, 4)
	reqs[0] = corrupt(reqs[0])
	for i, ok := range pool.VerifyBatch(reqs) {
		if !ok {
			t.Fatalf("VerifyNone rejected request %d", i)
		}
	}
}

// TestVerifierPoolDrainedBatchKeepsEachVerdict: a burst queued faster than
// the workers take it is decided in drained batches, and every job still
// gets its own verdict — the corrupted ones false, their siblings true.
func TestVerifierPoolDrainedBatchKeepsEachVerdict(t *testing.T) {
	const n = 200
	pool := NewVerifierPool(VerifyParallel, 2)
	pool.Start()
	defer pool.Close()
	reqs := signedBatch(t, n)
	for i := 0; i < n; i += 37 {
		reqs[i] = corrupt(reqs[i])
	}
	verdicts := make(chan [2]uint64, n)
	for i := range reqs {
		if !pool.Submit(reqs[i], func(r Request, ok bool) {
			v := uint64(0)
			if ok {
				v = 1
			}
			verdicts <- [2]uint64{r.Seq, v}
		}) {
			t.Fatal("open pool refused a job")
		}
	}
	for k := 0; k < n; k++ {
		v := <-verdicts
		i := int(v[0]) - 1
		if want := i%37 != 0; (v[1] == 1) != want {
			t.Fatalf("request %d verdict %v, want %v", i, v[1] == 1, want)
		}
	}
}

// TestVerifierPoolSubmitRacingClose: submissions racing Close (and a second
// Close) neither panic nor lose a job — every Submit that reported true has
// had its callback by the time Close returns.
func TestVerifierPoolSubmitRacingClose(t *testing.T) {
	for round := 0; round < 2000; round++ {
		p := NewVerifierPool(VerifyNone, 1)
		p.Start()
		var accepted, done atomic.Int64
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for p.Submit(Request{}, func(Request, bool) { done.Add(1) }) {
					accepted.Add(1)
				}
			}()
		}
		closed := make(chan struct{})
		go func() {
			defer close(closed)
			p.Close()
		}()
		p.Close()
		<-closed
		wg.Wait()
		if a, d := accepted.Load(), done.Load(); a != d {
			t.Fatalf("round %d: %d jobs accepted, %d completed by Close", round, a, d)
		}
	}
}
