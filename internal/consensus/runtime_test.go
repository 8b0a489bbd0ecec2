package consensus

import (
	"sync"
	"testing"
	"time"

	"smartchain/internal/crypto"
	"smartchain/internal/transport"
)

// TestEngineDecidesAndStops runs four engines over a MemNetwork the way the
// benchmark's probe does: a normal-case decision through StartInstance,
// HandleMessage and Decisions, an AdvanceTo skip, and Stop closing the
// decision channel.
func TestEngineDecidesAndStops(t *testing.T) {
	keys, v := testView(4)
	net := transport.NewMemNetwork()
	engines := make([]*Engine, len(keys))
	eps := make([]transport.Endpoint, len(keys))
	var pumps sync.WaitGroup
	for i := range engines {
		ep := net.Endpoint(int32(i))
		eng := New(Config{Self: int32(i), View: v, Signer: keys[i], Timeout: 5 * time.Second,
			Send: func(to int32, typ uint16, p []byte) { _ = ep.Send(to, typ, p) }})
		engines[i], eps[i] = eng, ep
		eng.Start()
		pumps.Add(1)
		go func() {
			defer pumps.Done()
			for m := range ep.Receive() {
				eng.HandleMessage(m)
			}
		}()
	}
	decide := func(inst int64, value string) {
		t.Helper()
		for i, eng := range engines {
			if i == int(v.Leader(0)) {
				eng.StartInstance(inst, []byte(value))
			} else {
				eng.StartInstance(inst, nil)
			}
		}
		for i, eng := range engines {
			select {
			case d := <-eng.Decisions():
				if d.Instance != inst || string(d.Value) != value || d.Epoch != 0 {
					t.Fatalf("replica %d decided (%d, %q) in epoch %d, want (%d, %q) in epoch 0", i, d.Instance, d.Value, d.Epoch, inst, value)
				}
				if err := VerifyDecisionProof(v, inst, 0, crypto.HashBytes(d.Value), &d.Proof, v.Quorum()); err != nil {
					t.Fatalf("replica %d: %v", i, err)
				}
			case <-time.After(10 * time.Second):
				t.Fatalf("replica %d did not decide instance %d", i, inst)
			}
		}
	}
	decide(1, "one")
	for _, eng := range engines {
		eng.AdvanceTo(3) // instance 2 was installed via state transfer
	}
	decide(3, "three")

	for i, eng := range engines {
		eng.Stop()
		if d, open := <-eng.Decisions(); open {
			t.Fatalf("replica %d: decision %d delivered after Stop", i, d.Instance)
		}
	}
	for _, ep := range eps {
		ep.Close()
	}
	pumps.Wait()
}

// TestStopConcurrently stops one engine from four goroutines at once: every
// call must return once the loop has exited, and none may panic.
func TestStopConcurrently(t *testing.T) {
	for round := 0; round < 50; round++ {
		keys, v := testView(4)
		eng := New(Config{Self: 0, View: v, Signer: keys[0], Timeout: time.Second,
			Send: func(int32, uint16, []byte) {}})
		eng.Start()
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				eng.Stop()
			}()
		}
		wg.Wait()
	}
}
