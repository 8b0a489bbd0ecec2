// Package pool stands in for internal/catchup: looptime's purity rule roots
// at (*machine).step here. The runtime around it (Pool) has no loop of its
// own: its owner — in a node the ordering driver, whose loop blocks on
// purpose and owns the channels, the clock and the one timer — calls Handle
// and Tick, and Pool keeps the lock Stats needs.
package pool

import (
	"sync"
	"time"
)

type Pool struct {
	mu sync.Mutex
	m  *machine
}

// Handle is the runtime: it steps once under the lock and reports whether
// the round ended. None of what it does is a finding.
func (p *Pool) Handle(now time.Time, ev int) bool {
	p.mu.Lock()
	fxs := p.m.step(now, ev)
	p.mu.Unlock()
	return len(fxs) > 0
}

func (p *Pool) NextDeadline() time.Time { return p.m.nextDeadline() }

// driverLoop is the owner: it blocks, reads the clock and runs the timer,
// and none of that is a finding either.
func driverLoop(p *Pool, replies <-chan int, stop <-chan struct{}) {
	timer := time.NewTimer(time.Second)
	defer timer.Stop()
	for {
		ev := 0
		select {
		case <-stop:
			return
		case ev = <-replies:
		case <-timer.C:
		}
		if p.Handle(time.Now(), ev) {
			return
		}
		if next := p.NextDeadline(); !next.IsZero() {
			timer.Reset(time.Until(next))
		}
	}
}

type machine struct {
	mu        sync.Mutex
	now       time.Time
	graceAt   time.Time
	deadlines []time.Time
	redos     int
	out       []int
}

func (m *machine) step(now time.Time, ev int) []int {
	m.now = now
	m.out = m.out[:0]
	m.settle()
	m.assign(ev)
	m.addRedo()
	m.reviewed()
	return m.out
}

// nextDeadline is machine state the runtime reads; it is not reachable from
// step and pure anyway.
func (m *machine) nextDeadline() time.Time { return m.graceAt }

// settle compares instants the step was given: pure.
func (m *machine) settle() {
	if !m.graceAt.IsZero() && !m.now.Before(m.graceAt) {
		m.out = append(m.out, 1)
	}
	<-time.After(time.Millisecond) // want `channel receive in settle, reachable from \(\*machine\)\.step` `time\.After in settle`
}

// assign stamping each item with its own clock read is how one donor pause
// became two strikes.
func (m *machine) assign(n int) {
	for i := 0; i < n; i++ {
		m.deadlines = append(m.deadlines, time.Now().Add(time.Second)) // want `time\.Now in assign, reachable from \(\*machine\)\.step`
	}
}

func (m *machine) addRedo() {
	m.mu.Lock() // want `sync\.Lock in addRedo, reachable from \(\*machine\)\.step`
	m.redos++
	m.mu.Unlock() // want `sync\.Unlock in addRedo`
}

func (m *machine) reviewed() {
	//smartlint:allow looptime golden case for the directive under the catch-up root
	_ = time.Since(m.now)
}
