package smr

import (
	"sync"

	"smartchain/internal/storage"
)

// StorageMode selects how the ledger/log reaches stable storage — the
// persistence axis of Table I and Fig. 6.
type StorageMode int

const (
	// StorageSync makes replies wait for the record's fsync (synchronous
	// writes: the Sy configurations; with the blockchain layer this yields
	// 0-/1-Persistence depending on the variant).
	StorageSync StorageMode = iota + 1
	// StorageAsync makes replies wait for the record's append only, with the
	// fsync behind it: a crash loses at most what was appended since the
	// last sync (λ-Persistence).
	StorageAsync
	// StorageMemory makes replies wait for the append and never fsyncs: the
	// log lives in memory only (∞-Persistence).
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
// fires once the mode's durability point has been reached, which is what
// gates client replies.
type DurableLogger struct {
	log  storage.Log
	mode StorageMode

	mu     sync.Mutex
	cond   *sync.Cond
	queue  []durableEntry
	closed bool

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

// Append queues one record. onDurable (optional) fires at the mode's
// durability point: after the group's sync in StorageSync, after the
// group's append and before its sync in StorageAsync, and after the append
// in StorageMemory, which never syncs. Callers reply from it. A record
// appended without onDurable issues no sync: it becomes durable with the
// next record that has one.
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

// run drains the queue: append every queued record, one sync, and notify
// all at the mode's durability point.
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
		// Sync mode waits for the group's sync; Async and Memory are done
		// once the group is appended, Async with the sync still behind it.
		if d.mode != StorageSync {
			notify(entries, err)
		}
		if synced {
			err = d.log.Sync()
			unsynced = false
		}
		if d.mode == StorageSync {
			notify(entries, err)
		}
		if closing {
			return
		}
	}
}

// notify runs each entry's onDurable, if it has one, with err.
func notify(entries []durableEntry, err error) {
	for _, e := range entries {
		if e.onDurable != nil {
			e.onDurable(err)
		}
	}
}

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
