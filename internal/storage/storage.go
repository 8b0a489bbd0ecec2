// Package storage provides the stable-storage substrate of SMARTCHAIN
// (paper §II-C2, §V-C). The durability results of the paper hinge on three
// properties of storage devices that this package models explicitly:
//
//  1. data is durable only after a sync (fsync), not after a write;
//  2. one sync has a high fixed latency compared to buffered writes, so
//     syncing once for many batches is nearly as cheap as for one — the
//     group-commit effect the Dura-SMaRt layer exploits;
//  3. a crash may tear the last, unsynced record, which recovery must
//     detect and discard.
//
// Two Log implementations are provided: FileLog (real files, real fsync)
// and SimLog (in-memory contents with a parameterized device-time model used
// by the benchmark harness to reproduce the paper's HDD testbed; with no
// device its syncs are free, and it is a node's default log).
package storage

import "errors"

// Errors reported by logs.
var (
	ErrClosed    = errors.New("storage: log closed")
	ErrCorrupted = errors.New("storage: corrupted record")
)

// Log is an append-only record log with explicit durability points.
//
// Append buffers a record; Sync makes everything appended so far durable and
// returns only once it is. Records are opaque byte strings, framed and
// checksummed by the implementation.
type Log interface {
	// Append buffers one record for writing.
	Append(record []byte) error
	// Sync flushes all buffered records to stable storage.
	Sync() error
	// ReadAll returns every durable-or-buffered record in append order.
	// Implementations discard a torn tail (a record cut short by a crash)
	// rather than failing.
	ReadAll() ([][]byte, error)
	// Close releases resources. Buffered unsynced records may be lost,
	// exactly as in a crash.
	Close() error
}
