// Package driver stands in for internal/core: looptime's purity rule roots
// at (*window).step here, while the blocking-loop rule stays out — the
// runtime's loop blocks on purpose.
package driver

import (
	"sync"
	"time"
)

type node struct {
	mu   sync.Mutex
	w    *window
	work chan struct{}
}

// loop is the runtime: it owns the clock, the lock and the channels, and a
// commit may take as long as the disk does. None of it is a finding.
func (n *node) loop() {
	for range n.work {
		n.mu.Lock()
		fx := n.w.step(time.Now(), 1)
		n.mu.Unlock()
		if len(fx) > 0 {
			time.Sleep(time.Millisecond)
		}
		n.work <- struct{}{}
	}
}

type window struct {
	now      time.Time
	resyncAt time.Time
	next     func() (int, bool)
	wake     chan struct{}
	out      []int
}

func (w *window) step(now time.Time, ev int) []int {
	w.now = now
	w.out = w.out[:0]
	w.fill()
	w.tick()
	w.reviewed()
	return w.out
}

// fill reaches the queue only through the injected func: whatever lock is
// behind it is the queue's business.
func (w *window) fill() {
	if v, ok := w.next(); ok {
		w.out = append(w.out, v)
	}
	w.wake <- struct{}{} // want `channel send in fill, reachable from \(\*window\)\.step`
}

func (w *window) tick() {
	if !w.now.Before(w.resyncAt) {
		w.resyncAt = w.now.Add(time.Second)
	}
	if time.Now().After(w.resyncAt) { // want `time\.Now in tick, reachable from \(\*window\)\.step`
		w.out = append(w.out, 0)
	}
	_ = time.NewTimer(time.Second) // want `time\.NewTimer in tick`
}

func (w *window) reviewed() {
	//smartlint:allow looptime golden case for the directive under the window root
	_ = time.Since(w.now)
}

// machine is no root in this package: the scope names each package's machine types.
type machine struct{}

func (machine) step() { _ = time.Now() }
