package storage

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sync"
)

// record framing on disk: magic(2) | length(4) | crc32(4) | payload.
const (
	recHeaderSize = 10
	recMagic      = 0x5C41 // "SC" for SmartChain, version 1
)

// FileLog is a Log backed by a real file. Appends go to an in-process
// buffer; Sync writes the buffer and calls fsync. Records carry a CRC so
// ReadAll can detect and drop a torn tail after a crash.
type FileLog struct {
	mu     sync.Mutex
	f      *os.File
	buf    []byte
	closed bool
}

// OpenFileLog opens (creating if needed) the log at path.
func OpenFileLog(path string) (*FileLog, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("open log %s: %w", path, err)
	}
	if _, err := f.Seek(0, io.SeekEnd); err != nil {
		f.Close()
		return nil, fmt.Errorf("seek log %s: %w", path, err)
	}
	return &FileLog{f: f}, nil
}

// Append implements Log.
func (l *FileLog) Append(record []byte) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	l.buf = appendRecord(l.buf, record)
	return nil
}

// Sync implements Log: write buffered records, then fsync.
func (l *FileLog) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	if len(l.buf) > 0 {
		if _, err := l.f.Write(l.buf); err != nil {
			return fmt.Errorf("write log: %w", err)
		}
		l.buf = l.buf[:0]
	}
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("fsync log: %w", err)
	}
	return nil
}

// ReadAll implements Log. A record whose frame is cut short or whose CRC
// fails terminates the scan: everything before it is returned, mirroring
// recovery after a crash mid-write.
func (l *FileLog) ReadAll() ([][]byte, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil, ErrClosed
	}
	// Flush buffered records so the file view is complete (no fsync: this
	// is a read path, not a durability point).
	if len(l.buf) > 0 {
		if _, err := l.f.Write(l.buf); err != nil {
			return nil, fmt.Errorf("flush log: %w", err)
		}
		l.buf = l.buf[:0]
	}
	data, err := readFileFrom(l.f)
	if err != nil {
		return nil, err
	}
	records, _ := parseRecords(data)
	return records, nil
}

// Close implements Log. Buffered unsynced records are discarded, as a crash
// would.
func (l *FileLog) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	return l.f.Close()
}

// CorruptTail flips a byte near the end of the durable file, simulating a
// torn write for crash-recovery tests. offsetFromEnd counts backwards from
// the file end.
//
//smartlint:allow structure test hook: the torn-write recovery tests damage the file through the open log
func (l *FileLog) CorruptTail(offsetFromEnd int64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	st, err := l.f.Stat()
	if err != nil {
		return err
	}
	pos := st.Size() - offsetFromEnd
	if pos < 0 {
		pos = 0
	}
	var b [1]byte
	if _, err := l.f.ReadAt(b[:], pos); err != nil {
		return err
	}
	b[0] ^= 0xff
	_, err = l.f.WriteAt(b[:], pos)
	return err
}

func appendRecord(buf, record []byte) []byte {
	buf = binary.BigEndian.AppendUint16(buf, recMagic)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(record)))
	buf = binary.BigEndian.AppendUint32(buf, crc32.ChecksumIEEE(record))
	return append(buf, record...)
}

// parseRecords splits framed records, stopping at the first torn or corrupt
// frame. It returns the records and the number of clean bytes consumed.
func parseRecords(data []byte) ([][]byte, int) {
	var out [][]byte
	off := 0
	for off+recHeaderSize <= len(data) {
		if binary.BigEndian.Uint16(data[off:]) != recMagic {
			break
		}
		n := int(binary.BigEndian.Uint32(data[off+2:]))
		crc := binary.BigEndian.Uint32(data[off+6:])
		if off+recHeaderSize+n > len(data) {
			break // torn tail
		}
		payload := data[off+recHeaderSize : off+recHeaderSize+n]
		if crc32.ChecksumIEEE(payload) != crc {
			break // corrupted record: treat as end of clean prefix
		}
		rec := make([]byte, n)
		copy(rec, payload)
		out = append(out, rec)
		off += recHeaderSize + n
	}
	return out, off
}

func readFileFrom(f *os.File) ([]byte, error) {
	st, err := f.Stat()
	if err != nil {
		return nil, fmt.Errorf("stat: %w", err)
	}
	data := make([]byte, st.Size())
	if _, err := f.ReadAt(data, 0); err != nil && err != io.EOF {
		return nil, fmt.Errorf("read: %w", err)
	}
	return data, nil
}

var _ Log = (*FileLog)(nil)
