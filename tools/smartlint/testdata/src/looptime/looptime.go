package looptime

import (
	"sync"
	"time"
)

type transportT struct{}

func (transportT) Send(to int32, b []byte) {}

type Engine struct {
	mu   sync.Mutex
	out  chan int
	stop chan struct{}
	tr   transportT
}

func (e *Engine) loop() {
	for {
		e.step()
		e.lockedSend()
		e.spawn()
		e.suppressedSleep()
		closure := func() {
			e.out <- 3 // want `bare channel send in loop`
		}
		closure()
		select {
		case e.out <- 1: // select send paired with stop: fine
		case <-e.stop:
			return
		}
	}
}

func (e *Engine) step() {
	time.Sleep(time.Millisecond) // want `time\.Sleep in step`
	e.out <- 2                   // want `bare channel send in step`
}

func (e *Engine) lockedSend() {
	e.mu.Lock()
	e.tr.Send(1, nil) // want `Send called in lockedSend while e\.mu is locked`
	e.mu.Unlock()
	e.tr.Send(2, nil) // lock released: fine
}

func (e *Engine) spawn() {
	go e.worker() // worker runs on its own goroutine
	time.AfterFunc(time.Second, func() {
		time.Sleep(time.Millisecond) // timer goroutine, not the loop
	})
}

func (e *Engine) worker() {
	time.Sleep(time.Second) // not reachable from the loop: fine
	e.out <- 9
}

func (e *Engine) suppressedSleep() {
	//smartlint:allow looptime startup settling only, loop is not serving yet
	time.Sleep(time.Microsecond)
}

func (e *Engine) notReachable() {
	time.Sleep(time.Hour) // never called from loop: fine
}

// ---- The purity rule: everything reachable from (*machine).step ----

type machine struct {
	mu       sync.Mutex
	now      time.Time
	deadline time.Time
	out      chan int
	pending  []int
}

func (m *machine) step(now time.Time, ev int) []int {
	m.now = now
	m.spawns()
	m.talks()
	m.locks()
	m.readsClock()
	m.pureTime()
	m.suppressed()
	sortInts(m.pending, func(a, b int) bool {
		<-m.out // want `channel receive in step`
		return a < b
	})
	return m.pending
}

func sortInts(xs []int, less func(a, b int) bool) {}

func (m *machine) spawns() {
	go m.spawned() // want `go statement in spawns`
}

func (m *machine) talks() {
	m.out <- 1 // want `channel send in talks`
	select {   // want `select in talks`
	default:
	}
	for range m.out { // want `range over a channel in talks`
	}
	close(m.out) // want `channel close in talks`
}

func (m *machine) locks() {
	m.mu.Lock()   // want `sync\.Lock in locks`
	m.mu.Unlock() // want `sync\.Unlock in locks`
	var once sync.Once
	once.Do(func() {}) // want `sync\.Do in locks`
}

func (m *machine) readsClock() {
	m.now = time.Now()                     // want `time\.Now in readsClock`
	_ = time.Since(m.now)                  // want `time\.Since in readsClock`
	time.Sleep(time.Millisecond)           // want `time\.Sleep in readsClock`
	_ = time.After(time.Second)            // want `time\.After in readsClock`
	time.AfterFunc(time.Second, func() {}) // want `time\.AfterFunc in readsClock`
	_ = time.NewTimer(time.Second)         // want `time\.NewTimer in readsClock`
}

// pureTime uses only values and methods of package time: arithmetic on the
// instant handed to step is the deadline model, not a clock read.
func (m *machine) pureTime() {
	m.deadline = m.now.Add(time.Second)
	if m.deadline.After(m.now) && m.now.Sub(m.deadline) < time.Second/2 {
		m.deadline = time.Time{}
	}
}

func (m *machine) suppressed() {
	//smartlint:allow looptime golden case for the directive: one reviewed clock read
	_ = time.Now()
}

// spawned is only ever started by a go statement. The rule does not model
// which goroutine a callee runs on — the go statement is already a finding,
// and removing it removes this one.
func (m *machine) spawned() {
	time.Sleep(time.Hour) // want `time\.Sleep in spawned`
}

// runtimeOnly is called by nobody the machine reaches.
func (m *machine) runtimeOnly() {
	m.mu.Lock()
	defer m.mu.Unlock()
	_ = time.Now()
}

// ---- The handle rule: every method of Machine is a purity root ----

// Machine is the synchronous handle over machine: its methods step it, and
// what they reach is held to step's contract — machine.step itself is
// reported once, from its own root.
type Machine struct {
	m *machine
}

func (h *Machine) Tick(now time.Time) []int { return h.m.step(now, 0) }

func (h *Machine) Stamp() time.Time {
	return time.Now() // want `time\.Now in Stamp, reachable from a \(\*Machine\) method`
}
