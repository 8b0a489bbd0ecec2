package consensus

import (
	"sync"
	"testing"
	"time"
)

// validEpochSync lets the engine-level tests reach the machine's
// certificate check the way they did when it was an Engine method.
func (e *Engine) validEpochSync(msg *epochSyncMsg) (map[int64]*slotClaim, bool) {
	return e.h.m.validEpochSync(msg)
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
