package storage

import (
	"sync"
	"time"
)

// SimDisk models the time behaviour of a storage device: each Sync costs a
// fixed latency plus the buffered bytes divided by the device bandwidth.
// The defaults approximate the paper's testbed disk (Seagate Cheetah 15k
// SCSI HDD): ~5 ms effective sync latency and ~110 MB/s sequential
// bandwidth.
//
// The essential property for reproducing the paper's results is that sync
// latency dominates per-byte cost, so writing ten batches under one sync
// costs about the same as one batch (Dura-SMaRt's group commit,
// paper §II-C2).
type SimDisk struct {
	// SyncLatency is the fixed cost of one durability point.
	SyncLatency time.Duration
	// BytesPerSecond is the sequential write bandwidth.
	BytesPerSecond float64

	mu      sync.Mutex
	pending int64 // bytes written since the last sync
	synced  int64 // total bytes made durable
	syncs   int64 // number of syncs issued
}

// HDDProfile returns a SimDisk parameterized like the paper's SCSI HDD.
func HDDProfile() *SimDisk {
	return &SimDisk{SyncLatency: 5 * time.Millisecond, BytesPerSecond: 110e6}
}

// SSDProfile returns a faster device for sensitivity experiments.
func SSDProfile() *SimDisk {
	return &SimDisk{SyncLatency: 400 * time.Microsecond, BytesPerSecond: 900e6}
}

// Write accounts n buffered bytes. It costs no time: buffered writes hit
// the page cache.
func (d *SimDisk) Write(n int) {
	d.mu.Lock()
	d.pending += int64(n)
	d.mu.Unlock()
}

// Sync blocks for the modeled device time and marks pending bytes durable.
func (d *SimDisk) Sync() {
	d.mu.Lock()
	n := d.pending
	d.pending = 0
	d.synced += n
	d.syncs++
	d.mu.Unlock()

	if dur := d.cost(n); dur > 0 {
		time.Sleep(dur)
	}
}

// cost is the modeled device time of one sync covering n bytes: the fixed
// latency plus n at the sequential bandwidth.
func (d *SimDisk) cost(n int64) time.Duration {
	dur := d.SyncLatency
	if d.BytesPerSecond > 0 {
		dur += time.Duration(float64(n) / d.BytesPerSecond * float64(time.Second))
	}
	return dur
}

// Stats returns (bytes made durable, number of syncs).
func (d *SimDisk) Stats() (int64, int64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.synced, d.syncs
}

// SimLog is a Log whose contents live in memory but whose Sync costs
// real wall-clock time according to a SimDisk. The benchmark harness uses
// it so that storage-bound configurations exhibit the paper's behaviour
// without 100 GB of actual disk traffic.
//
// Contents survive "crashes" only up to the last Sync: Crash discards
// unsynced records, exactly like powering off a machine whose page cache
// held them.
type SimLog struct {
	disk *SimDisk

	mu      sync.Mutex
	durable [][]byte
	pending [][]byte
	closed  bool
}

// NewSimLog creates a SimLog on the given device model. A nil disk means
// zero-cost syncs (still with crash semantics).
func NewSimLog(disk *SimDisk) *SimLog {
	return &SimLog{disk: disk}
}

// Append implements Log.
func (l *SimLog) Append(record []byte) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	r := make([]byte, len(record))
	copy(r, record)
	l.pending = append(l.pending, r)
	if l.disk != nil {
		l.disk.Write(len(r))
	}
	return nil
}

// Sync implements Log: pays the device cost, then promotes pending records
// to durable.
func (l *SimLog) Sync() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return ErrClosed
	}
	moved := l.pending
	l.pending = nil
	l.mu.Unlock()

	if l.disk != nil {
		l.disk.Sync()
	}

	l.mu.Lock()
	l.durable = append(l.durable, moved...)
	l.mu.Unlock()
	return nil
}

// ReadAll implements Log: durable plus buffered records, in order.
func (l *SimLog) ReadAll() ([][]byte, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil, ErrClosed
	}
	out := make([][]byte, 0, len(l.durable)+len(l.pending))
	out = append(out, l.durable...)
	out = append(out, l.pending...)
	return out, nil
}

// Close implements Log.
func (l *SimLog) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.closed = true
	return nil
}

// Crash simulates a machine crash: unsynced records are lost. The log
// remains usable (reopened) afterwards, holding only durable records.
func (l *SimLog) Crash() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.pending = nil
	l.closed = false
}

var _ Log = (*SimLog)(nil)
