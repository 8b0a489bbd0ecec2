package smr

import (
	"sync"

	"smartchain/internal/storage"
)

// StorageMode selects how the ledger/log reaches stable storage — the
// persistence axis of Table I and Fig. 6.
type StorageMode int

const (
	// StorageSync makes replies wait for the record to be fsynced
	// (synchronous writes: the Sy configurations; with the blockchain layer
	// this yields 0-/1-Persistence depending on the variant).
	StorageSync StorageMode = iota + 1
	// StorageAsync writes in the background; a crash may lose a small
	// suffix (λ-Persistence).
	StorageAsync
	// StorageMemory keeps the log in memory only (∞-Persistence).
	StorageMemory
)

// String implements fmt.Stringer for experiment labels.
func (m StorageMode) String() string {
	switch m {
	case StorageSync:
		return "sync"
	case StorageAsync:
		return "async"
	case StorageMemory:
		return "memory"
	default:
		return "unknown"
	}
}

// DurableLogger is the Dura-SMaRt write path (paper §II-C2, [37]): records
// are appended by the delivery thread and synced by a dedicated logger
// goroutine that drains *everything* queued before issuing one fsync, so a
// burst of k batches pays ≈1 sync. The onDurable callback of each record
// fires once its durability point has been reached, which is what gates
// client replies in synchronous modes.
type DurableLogger struct {
	log  storage.Log
	mode StorageMode

	mu      sync.Mutex
	cond    *sync.Cond
	queue   []durableEntry
	closed  bool
	syncs   int64
	records int64

	done chan struct{}
}

type durableEntry struct {
	data      []byte
	onDurable func(error)
}

// NewDurableLogger starts the logger goroutine over log.
func NewDurableLogger(log storage.Log, mode StorageMode) *DurableLogger {
	d := &DurableLogger{
		log:  log,
		mode: mode,
		done: make(chan struct{}),
	}
	d.cond = sync.NewCond(&d.mu)
	go d.run()
	return d
}

// Append queues one record. onDurable (optional) fires when the record is
// durable — immediately after the group sync in Sync/Async modes, or right
// away in Memory mode. In StorageSync callers typically block on it before
// replying; in StorageAsync they don't, which is the entire difference
// between the two configurations. A record appended without onDurable
// issues no sync: it becomes durable with the next record that has one.
func (d *DurableLogger) Append(record []byte, onDurable func(error)) {
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		if onDurable != nil {
			onDurable(storage.ErrClosed)
		}
		return
	}
	cp := make([]byte, len(record))
	copy(cp, record)
	d.queue = append(d.queue, durableEntry{data: cp, onDurable: onDurable})
	d.cond.Signal()
	d.mu.Unlock()
}

// run drains the queue: append every queued record, one sync, notify all.
// A group on which no record waits (no onDurable: a PERSIST certificate, a
// block a state transfer replayed) is appended without a sync of its own.
// The log is FIFO, so the next waited sync makes it durable along with
// everything before it, and Close syncs whatever is left.
func (d *DurableLogger) run() {
	defer close(d.done)
	unsynced := false // records appended since the last sync
	for {
		d.mu.Lock()
		for len(d.queue) == 0 && !d.closed {
			d.cond.Wait()
		}
		entries, closing := d.queue, d.closed // closed: nothing is queued after this
		d.queue = nil
		d.mu.Unlock()

		var err error
		waited := false
		for _, e := range entries {
			if appendErr := d.log.Append(e.data); appendErr != nil && err == nil {
				err = appendErr
			}
			waited = waited || e.onDurable != nil
		}
		unsynced = unsynced || len(entries) > 0
		synced := err == nil && unsynced && (waited || closing) && d.mode != StorageMemory
		if synced {
			err = d.log.Sync()
			unsynced = false
		}
		d.mu.Lock()
		if synced {
			d.syncs++
		}
		d.records += int64(len(entries))
		d.mu.Unlock()
		for _, e := range entries {
			if e.onDurable != nil {
				e.onDurable(err)
			}
		}
		if closing {
			return
		}
	}
}

// Mode returns the configured storage mode.
func (d *DurableLogger) Mode() StorageMode { return d.mode }

// Close drains remaining records, syncs what no sync has covered yet, and
// stops the logger goroutine.
func (d *DurableLogger) Close() {
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		<-d.done
		return
	}
	d.closed = true
	d.cond.Broadcast()
	d.mu.Unlock()
	<-d.done
}
