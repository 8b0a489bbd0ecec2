package transport

import (
	"fmt"
	"sync"
	"time"
)

// TCPFabric stands up a deployment of TCPNetworks on loopback and keeps
// their peer directories consistent: every endpoint it creates is
// synchronously announced to every existing endpoint (and seeded with the
// full directory), so replicas can dial late-joining clients back without
// out-of-band configuration. It is the TCP counterpart of MemNetwork for
// the test/bench harness: same Endpoint-per-ID surface, real sockets
// underneath.
type TCPFabric struct {
	secret []byte
	opts   []TCPOption

	mu    sync.Mutex
	nets  map[int32]*TCPNetwork
	addrs map[int32]string
	delay time.Duration
}

// NewTCPFabric creates an empty fabric. opts apply to every endpoint it
// creates.
func NewTCPFabric(secret []byte, opts ...TCPOption) *TCPFabric {
	return &TCPFabric{
		secret: append([]byte(nil), secret...),
		opts:   opts,
		nets:   make(map[int32]*TCPNetwork),
		addrs:  make(map[int32]string),
	}
}

// Endpoint creates (and starts) the TCPNetwork for one process ID, bound to
// an ephemeral loopback port. The new endpoint knows every existing member
// and every existing member immediately learns the new address.
func (f *TCPFabric) Endpoint(id int32) (*TCPNetwork, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if _, ok := f.nets[id]; ok {
		return nil, fmt.Errorf("tcpfabric: duplicate endpoint %d", id)
	}
	peers := make(map[int32]string, len(f.addrs))
	for pid, a := range f.addrs {
		peers[pid] = a
	}
	n, err := NewTCPNetwork(id, "127.0.0.1:0", f.secret, peers, f.opts...)
	if err != nil {
		return nil, err
	}
	n.SetDelay(f.delay)
	addr := n.Addr()
	for _, other := range f.nets {
		other.AddPeer(id, addr)
	}
	f.nets[id] = n
	f.addrs[id] = addr
	return n, nil
}

// SetDelay applies a fixed one-way delay to every current and future
// endpoint (0 clears it) — loopback-as-WAN for experiments.
func (f *TCPFabric) SetDelay(d time.Duration) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.delay = d
	for _, n := range f.nets {
		n.SetDelay(d)
	}
}

// Detach closes one endpoint (crash emulation). Its directory entry is kept
// so survivors count dial failures rather than unknown-destination errors.
func (f *TCPFabric) Detach(id int32) {
	f.mu.Lock()
	n := f.nets[id]
	delete(f.nets, id)
	f.mu.Unlock()
	if n != nil {
		_ = n.Close()
	}
}

// Stats snapshots every live endpoint's counters, keyed by process ID.
func (f *TCPFabric) Stats() map[int32]TCPStats {
	f.mu.Lock()
	nets := make(map[int32]*TCPNetwork, len(f.nets))
	for id, n := range f.nets {
		nets[id] = n
	}
	f.mu.Unlock()
	out := make(map[int32]TCPStats, len(nets))
	for id, n := range nets {
		out[id] = n.Stats()
	}
	return out
}

// Close shuts down every endpoint.
func (f *TCPFabric) Close() {
	f.mu.Lock()
	nets := make([]*TCPNetwork, 0, len(f.nets))
	for _, n := range f.nets {
		nets = append(nets, n)
	}
	f.nets = make(map[int32]*TCPNetwork)
	f.mu.Unlock()
	for _, n := range nets {
		_ = n.Close()
	}
}
