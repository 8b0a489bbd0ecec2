package transport

import (
	"sync"
	"time"
)

// MemNetwork is an in-process message-passing network. Every endpoint owns
// an unbounded mailbox drained by a pump goroutine into its Receive channel,
// so senders never block on slow receivers (matching the asynchronous,
// non-blocking fair-links model).
type MemNetwork struct {
	mu        sync.RWMutex
	endpoints map[int32]*memEndpoint

	latency time.Duration

	// filters is the composable drop-predicate stack, the network's one way
	// to lose a message: it is dropped if ANY active filter says so, so
	// overlapping faults stack instead of clobbering each other.
	// filterList is the immutable snapshot deliver reads (rebuilt on every
	// Add/Remove, so the hot path never iterates a mutating map).
	filters      map[FilterID]func(Message) bool
	filterList   []func(Message) bool
	nextFilterID FilterID

	// bandwidth models each sender's uplink in bytes/s (0 = infinite):
	// messages serialize onto the sender's link, so one donor pushing a
	// giant snapshot queues behind itself while four donors push in
	// parallel. busyUntil tracks when each sender's uplink frees up.
	bandwidth float64
	bwMu      sync.Mutex
	busyUntil map[int32]time.Time
}

// FilterID names one installed drop filter so it can be removed without
// disturbing the others on the stack.
type FilterID int64

// MemOption configures a MemNetwork.
type MemOption func(*MemNetwork)

// WithLatency adds a fixed one-way delivery delay to every message.
func WithLatency(d time.Duration) MemOption {
	return func(n *MemNetwork) { n.latency = d }
}

// WithBandwidth models each sender's uplink at bytesPerSec (0 = infinite).
func WithBandwidth(bytesPerSec float64) MemOption {
	return func(n *MemNetwork) { n.bandwidth = bytesPerSec }
}

// NewMemNetwork creates an empty in-process network.
func NewMemNetwork(opts ...MemOption) *MemNetwork {
	n := &MemNetwork{
		endpoints: make(map[int32]*memEndpoint),
		busyUntil: make(map[int32]time.Time),
		filters:   make(map[FilterID]func(Message) bool),
	}
	for _, o := range opts {
		o(n)
	}
	return n
}

// Endpoint attaches (or re-attaches) process id to the network. Re-attaching
// an ID that already exists replaces the previous endpoint: this is exactly
// what a replica recovering after a crash does.
func (n *MemNetwork) Endpoint(id int32) Endpoint {
	ep := newMemEndpoint(n, id)
	n.mu.Lock()
	if old, ok := n.endpoints[id]; ok {
		old.close()
	}
	n.endpoints[id] = ep
	n.mu.Unlock()
	return ep
}

// Detach removes the endpoint for id (simulates a crash: messages to it are
// dropped until it re-attaches).
func (n *MemNetwork) Detach(id int32) {
	n.mu.Lock()
	ep, ok := n.endpoints[id]
	if ok {
		delete(n.endpoints, id)
	}
	n.mu.Unlock()
	if ok {
		ep.close()
	}
}

// Isolate cuts all traffic to and from id without detaching it: one filter
// on the stack, lifted with RemoveFilter.
//
//smartlint:allow structure test hook: core's, baselines' and transport's fault tests cut one replica off
func (n *MemNetwork) Isolate(id int32) FilterID {
	return n.AddFilter(func(m Message) bool { return m.From == id || m.To == id })
}

// AddFilter pushes a targeted drop predicate onto the filter stack: every
// message for which ANY active filter returns true is silently lost.
// Fault-injection schedules use filters to lose specific protocol messages
// (e.g. the EPOCH-SYNC certificate to one replica) the way a flaky link
// would, which coarse partitions cannot express — and because filters
// stack, overlapping fault scenarios compose instead of clobbering each
// other. The returned ID removes exactly this filter.
func (n *MemNetwork) AddFilter(f func(Message) bool) FilterID {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.nextFilterID++
	id := n.nextFilterID
	n.filters[id] = f
	n.rebuildFilterList()
	return id
}

// RemoveFilter pops one filter off the stack. Unknown IDs are ignored
// (removing twice is harmless).
//
//smartlint:allow structure test hook: core's and transport's fault tests heal a partition or an isolation with it
func (n *MemNetwork) RemoveFilter(id FilterID) {
	n.mu.Lock()
	defer n.mu.Unlock()
	delete(n.filters, id)
	n.rebuildFilterList()
}

// rebuildFilterList refreshes the immutable snapshot deliver iterates.
// Caller holds n.mu.
func (n *MemNetwork) rebuildFilterList() {
	if len(n.filters) == 0 {
		n.filterList = nil
		return
	}
	list := make([]func(Message) bool, 0, len(n.filters))
	for _, f := range n.filters {
		list = append(list, f)
	}
	n.filterList = list
}

// deliver routes a message, applying faults. Returns advisory error.
func (n *MemNetwork) deliver(m Message) error {
	n.mu.RLock()
	dst, ok := n.endpoints[m.To]
	delay := n.latency
	bandwidth := n.bandwidth
	filters := n.filterList
	n.mu.RUnlock()

	if !ok {
		return ErrUnknownDest
	}
	for _, f := range filters {
		if f(m) {
			return nil // lost, indistinguishable from the wire eating it
		}
	}
	if bandwidth > 0 {
		// Serialize the message onto the sender's uplink: it transmits only
		// after everything the sender already queued, then propagates.
		tx := time.Duration(float64(len(m.Payload)) / bandwidth * float64(time.Second))
		n.bwMu.Lock()
		now := time.Now()
		free := n.busyUntil[m.From]
		if free.Before(now) {
			free = now
		}
		free = free.Add(tx)
		n.busyUntil[m.From] = free
		n.bwMu.Unlock()
		delay += free.Sub(now)
	}
	if delay > 0 {
		time.AfterFunc(delay, func() { dst.enqueue(m) })
		return nil
	}
	dst.enqueue(m)
	return nil
}

// memEndpoint is one process's attachment: an unbounded FIFO mailbox plus a
// pump goroutine feeding the receive channel.
type memEndpoint struct {
	net *MemNetwork
	id  int32

	mu     sync.Mutex
	cond   *sync.Cond
	queue  []Message
	closed bool

	out  chan Message
	stop chan struct{} // closed by close() to interrupt the pump
	done chan struct{} // closed by the pump on exit
}

func newMemEndpoint(n *MemNetwork, id int32) *memEndpoint {
	ep := &memEndpoint{
		net:  n,
		id:   id,
		out:  make(chan Message, 1),
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	ep.cond = sync.NewCond(&ep.mu)
	go ep.pump()
	return ep
}

func (ep *memEndpoint) ID() int32 { return ep.id }

func (ep *memEndpoint) Send(to int32, typ uint16, payload []byte) error {
	ep.mu.Lock()
	closed := ep.closed
	ep.mu.Unlock()
	if closed {
		return ErrClosed
	}
	// Copy the payload: the in-process network must not alias sender
	// buffers, exactly like a real wire wouldn't.
	p := make([]byte, len(payload))
	copy(p, payload)
	return ep.net.deliver(Message{From: ep.id, To: to, Type: typ, Payload: p})
}

func (ep *memEndpoint) Receive() <-chan Message { return ep.out }

func (ep *memEndpoint) Close() error {
	ep.net.mu.Lock()
	if ep.net.endpoints[ep.id] == ep {
		delete(ep.net.endpoints, ep.id)
	}
	ep.net.mu.Unlock()
	ep.close()
	return nil
}

func (ep *memEndpoint) close() {
	ep.mu.Lock()
	if ep.closed {
		ep.mu.Unlock()
		return
	}
	ep.closed = true
	close(ep.stop)
	ep.cond.Broadcast()
	ep.mu.Unlock()
	<-ep.done
}

func (ep *memEndpoint) enqueue(m Message) {
	ep.mu.Lock()
	if ep.closed {
		ep.mu.Unlock()
		return
	}
	ep.queue = append(ep.queue, m)
	ep.cond.Signal()
	ep.mu.Unlock()
}

// pump moves messages from the mailbox into the receive channel, preserving
// FIFO per sender (actually global FIFO per endpoint).
func (ep *memEndpoint) pump() {
	defer close(ep.done)
	defer close(ep.out)
	for {
		ep.mu.Lock()
		for len(ep.queue) == 0 && !ep.closed {
			ep.cond.Wait()
		}
		if ep.closed {
			ep.mu.Unlock()
			return
		}
		m := ep.queue[0]
		ep.queue = ep.queue[1:]
		ep.mu.Unlock()

		select {
		case ep.out <- m:
		case <-ep.stop:
			return
		}
	}
}

var _ Endpoint = (*memEndpoint)(nil)
