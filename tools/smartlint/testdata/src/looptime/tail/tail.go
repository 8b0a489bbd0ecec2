// Package tail stands in for internal/core's second machine: looptime's
// purity rule roots at (*tail).step here, under a runtime (tailLoop) that
// blocks on purpose — on a full queue, on the timer — and owns the channel,
// the clock and the one timer.
package tail

import (
	"sync"
	"time"
)

type node struct {
	tail     *tail
	events   chan int
	released chan struct{}
	stop     chan struct{}
}

// tailLoop is the runtime: none of what it does is a finding.
func (n *node) tailLoop() {
	timer := time.NewTimer(time.Hour)
	defer timer.Stop()
	for {
		if next := n.tail.nextDeadline(); !next.IsZero() {
			timer.Reset(time.Until(next))
		}
		select {
		case <-n.stop:
			return
		case ev := <-n.events:
			n.tend(ev)
		case <-timer.C:
			n.tend(0)
		}
	}
}

func (n *node) tend(ev int) {
	for range n.tail.step(time.Now(), ev) {
		n.released <- struct{}{}
	}
}

type tail struct {
	mu      sync.Mutex
	now     time.Time
	reads   []time.Time
	release chan struct{}
	out     []int
}

func (t *tail) step(now time.Time, ev int) []int {
	t.now = now
	t.out = t.out[:0]
	t.expire()
	t.settle(ev)
	return t.out
}

// nextDeadline is machine state the runtime reads; it is not reachable from
// step, and reads no clock anyway.
func (t *tail) nextDeadline() time.Time {
	if len(t.reads) == 0 {
		return time.Time{}
	}
	return t.reads[0]
}

func (t *tail) expire() {
	for len(t.reads) > 0 && !t.now.Before(t.reads[0]) {
		t.reads = t.reads[1:]
		t.out = append(t.out, 1)
	}
	if len(t.reads) > 0 && time.Now().After(t.reads[0]) { // want `time\.Now in expire, reachable from \(\*tail\)\.step`
		t.out = append(t.out, 2)
	}
}

func (t *tail) settle(ev int) {
	t.mu.Lock() // want `sync\.Lock in settle, reachable from \(\*tail\)\.step`
	t.out = append(t.out, ev)
	t.mu.Unlock()           // want `sync\.Unlock in settle`
	t.release <- struct{}{} // want `channel send in settle, reachable from \(\*tail\)\.step`
}
