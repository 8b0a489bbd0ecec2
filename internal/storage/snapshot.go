package storage

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"smartchain/internal/codec"
)

// ErrNoSnapshot is returned by LoadEnvelope when no snapshot has been saved.
var ErrNoSnapshot = errors.New("storage: no snapshot")

// DefaultChunkBytes is the chunk size used when a caller passes 0. Large
// enough to amortize per-message overhead, small enough that a snapshot
// spreads across several donors during collaborative catch-up.
const DefaultChunkBytes = 256 << 10

// SnapEnvelope describes a chunked snapshot (paper §V-B3, Algorithm 1 line
// 54, extended for collaborative state transfer): the number of the last
// block the state covers, how the state bytes are split into fixed-size
// chunks, and a SHA-256 digest per chunk. The envelope is small; the chunk
// payloads are stored and transferred separately, so chunks fetched from
// different replicas compose into one verified snapshot.
type SnapEnvelope struct {
	LastBlock  int64
	ChunkBytes int32 // chunk payload size; the last chunk may be shorter
	TotalBytes int64 // total state size across all chunks
	Chunks     [][32]byte
	// Meta carries opaque caller metadata (core stores its recovery
	// envelope — view, watermarks, consensus position — here).
	Meta []byte
}

// NumChunks returns the number of chunks the envelope declares.
func (e *SnapEnvelope) NumChunks() int { return len(e.Chunks) }

// ChunkLen returns the payload length of chunk i.
func (e *SnapEnvelope) ChunkLen(i int) int {
	if i < 0 || i >= len(e.Chunks) {
		return 0
	}
	off := int64(i) * int64(e.ChunkBytes)
	n := e.TotalBytes - off
	if n > int64(e.ChunkBytes) {
		n = int64(e.ChunkBytes)
	}
	if n < 0 {
		n = 0
	}
	return int(n)
}

// VerifyChunk reports whether data matches chunk i's declared length and
// digest. This is the receiver-side integrity check of collaborative
// catch-up: a chunk from any donor is accepted only if it hashes to the
// digest the envelope quorum agreed on.
func (e *SnapEnvelope) VerifyChunk(i int, data []byte) bool {
	if i < 0 || i >= len(e.Chunks) || len(data) != e.ChunkLen(i) {
		return false
	}
	return sha256.Sum256(data) == e.Chunks[i]
}

// Validate checks internal consistency: the chunk count must match the
// declared total size and chunk size.
func (e *SnapEnvelope) Validate() error {
	if e.TotalBytes < 0 {
		return fmt.Errorf("snapshot envelope: negative total size: %w", ErrCorrupted)
	}
	if e.TotalBytes == 0 {
		if len(e.Chunks) != 0 {
			return fmt.Errorf("snapshot envelope: chunks without payload: %w", ErrCorrupted)
		}
		return nil
	}
	if e.ChunkBytes <= 0 {
		return fmt.Errorf("snapshot envelope: bad chunk size %d: %w", e.ChunkBytes, ErrCorrupted)
	}
	want := (e.TotalBytes + int64(e.ChunkBytes) - 1) / int64(e.ChunkBytes)
	if int64(len(e.Chunks)) != want {
		return fmt.Errorf("snapshot envelope: %d chunks, want %d: %w", len(e.Chunks), want, ErrCorrupted)
	}
	return nil
}

// Encode serializes the envelope with the codec wire format.
func (e *SnapEnvelope) Encode() []byte {
	enc := codec.NewEncoder(8 + 4 + 8 + 4 + 32*len(e.Chunks) + 4 + len(e.Meta))
	enc.Int64(e.LastBlock)
	enc.Int32(e.ChunkBytes)
	enc.Int64(e.TotalBytes)
	enc.Uint32(uint32(len(e.Chunks)))
	for _, c := range e.Chunks {
		enc.Bytes32(c)
	}
	enc.WriteBytes(e.Meta)
	return enc.Bytes()
}

// DecodeSnapEnvelopeFrom decodes an envelope from d.
func DecodeSnapEnvelopeFrom(d *codec.Decoder) (SnapEnvelope, error) {
	var e SnapEnvelope
	e.LastBlock = d.Int64()
	e.ChunkBytes = d.Int32()
	e.TotalBytes = d.Int64()
	e.Chunks = codec.List(d, 32, (*codec.Decoder).Bytes32)
	e.Meta = d.ReadBytesCopy()
	if err := d.Err(); err != nil {
		return SnapEnvelope{}, err
	}
	if err := e.Validate(); err != nil {
		return SnapEnvelope{}, err
	}
	return e, nil
}

// DecodeSnapEnvelope decodes a standalone envelope encoding.
func DecodeSnapEnvelope(data []byte) (SnapEnvelope, error) {
	d := codec.NewDecoder(data)
	e, err := DecodeSnapEnvelopeFrom(d)
	if err != nil {
		return SnapEnvelope{}, err
	}
	if err := d.Finish(); err != nil {
		return SnapEnvelope{}, err
	}
	return e, nil
}

// clone deep-copies the envelope so stores don't alias caller memory.
func (e *SnapEnvelope) clone() SnapEnvelope {
	out := *e
	out.Chunks = append([][32]byte(nil), e.Chunks...)
	out.Meta = append([]byte(nil), e.Meta...)
	return out
}

// BuildEnvelope splits state into chunks of chunkBytes (DefaultChunkBytes
// when 0) and returns the envelope describing it.
func BuildEnvelope(lastBlock int64, meta, state []byte, chunkBytes int) SnapEnvelope {
	if chunkBytes <= 0 {
		chunkBytes = DefaultChunkBytes
	}
	env := SnapEnvelope{
		LastBlock:  lastBlock,
		ChunkBytes: int32(chunkBytes),
		TotalBytes: int64(len(state)),
		Meta:       append([]byte(nil), meta...),
	}
	for off := 0; off < len(state); off += chunkBytes {
		end := off + chunkBytes
		if end > len(state) {
			end = len(state)
		}
		env.Chunks = append(env.Chunks, sha256.Sum256(state[off:end]))
	}
	return env
}

// SnapshotStore persists one chunk-addressed snapshot. StoreEnvelope
// replaces the stored snapshot's envelope and resets its chunk slots;
// WriteChunk/ReadChunk address individual chunk payloads, so a donor can
// serve any chunk without materializing the whole state and an installer
// can persist chunks as they arrive from different peers.
//
// Crash semantics are deliberately relaxed: a save torn between
// StoreEnvelope and the last WriteChunk loads with chunk digests that fail
// verification, which LoadSnapshot reports as corruption and recovery
// treats as "no snapshot" (the block log remains the durability anchor).
type SnapshotStore interface {
	// StoreEnvelope replaces the stored snapshot envelope and clears all
	// chunk slots.
	StoreEnvelope(env SnapEnvelope) error
	// LoadEnvelope returns the stored envelope, or ErrNoSnapshot.
	LoadEnvelope() (SnapEnvelope, error)
	// WriteChunk stores the payload of chunk i of the current envelope.
	WriteChunk(i int, data []byte) error
	// ReadChunk returns the payload of chunk i of the current envelope.
	ReadChunk(i int) ([]byte, error)
	// Close releases resources.
	Close() error
}

// SaveSnapshot stores a complete snapshot: envelope plus every chunk of
// state, split at chunkBytes (DefaultChunkBytes when 0).
func SaveSnapshot(s SnapshotStore, lastBlock int64, meta, state []byte, chunkBytes int) error {
	env := BuildEnvelope(lastBlock, meta, state, chunkBytes)
	if err := s.StoreEnvelope(env); err != nil {
		return err
	}
	cb := int(env.ChunkBytes)
	for i := range env.Chunks {
		off := i * cb
		end := off + env.ChunkLen(i)
		if err := s.WriteChunk(i, state[off:end]); err != nil {
			return err
		}
	}
	return nil
}

// LoadSnapshot reads the stored snapshot, reassembles the state from its
// chunks, and verifies every chunk digest. A digest mismatch (torn save,
// bit rot, or tampering) is reported as ErrCorrupted.
func LoadSnapshot(s SnapshotStore) (lastBlock int64, meta, state []byte, err error) {
	env, err := s.LoadEnvelope()
	if err != nil {
		return 0, nil, nil, err
	}
	if err := env.Validate(); err != nil {
		return 0, nil, nil, err
	}
	state = make([]byte, 0, env.TotalBytes)
	for i := range env.Chunks {
		data, err := s.ReadChunk(i)
		if err != nil {
			return 0, nil, nil, fmt.Errorf("snapshot chunk %d: %w", i, err)
		}
		if !env.VerifyChunk(i, data) {
			return 0, nil, nil, fmt.Errorf("snapshot chunk %d digest: %w", i, ErrCorrupted)
		}
		state = append(state, data...)
	}
	return env.LastBlock, env.Meta, state, nil
}

// MemSnapshotStore keeps the snapshot in memory (used with SimLog).
type MemSnapshotStore struct {
	mu     sync.Mutex
	has    bool
	env    SnapEnvelope
	chunks [][]byte
	// disk, when non-nil, charges device time for writes so the harness
	// can model snapshot cost.
	disk *SimDisk
}

// NewMemSnapshotStore returns an empty in-memory snapshot store. A non-nil
// disk charges device time for saves.
func NewMemSnapshotStore(disk *SimDisk) *MemSnapshotStore {
	return &MemSnapshotStore{disk: disk}
}

// StoreEnvelope implements SnapshotStore.
func (s *MemSnapshotStore) StoreEnvelope(env SnapEnvelope) error {
	if err := env.Validate(); err != nil {
		return err
	}
	if s.disk != nil {
		s.disk.Write(len(env.Meta) + 32*len(env.Chunks) + 24)
		s.disk.Sync()
	}
	s.mu.Lock()
	s.has = true
	s.env = env.clone()
	s.chunks = make([][]byte, env.NumChunks())
	s.mu.Unlock()
	return nil
}

// LoadEnvelope implements SnapshotStore.
func (s *MemSnapshotStore) LoadEnvelope() (SnapEnvelope, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.has {
		return SnapEnvelope{}, ErrNoSnapshot
	}
	return s.env.clone(), nil
}

// WriteChunk implements SnapshotStore.
func (s *MemSnapshotStore) WriteChunk(i int, data []byte) error {
	cp := append([]byte(nil), data...)
	if s.disk != nil {
		s.disk.Write(len(data))
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.has {
		return ErrNoSnapshot
	}
	if i < 0 || i >= len(s.chunks) {
		return fmt.Errorf("storage: chunk %d out of range (%d chunks)", i, len(s.chunks))
	}
	s.chunks[i] = cp
	return nil
}

// ReadChunk implements SnapshotStore.
func (s *MemSnapshotStore) ReadChunk(i int) ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.has {
		return nil, ErrNoSnapshot
	}
	if i < 0 || i >= len(s.chunks) {
		return nil, fmt.Errorf("storage: chunk %d out of range (%d chunks)", i, len(s.chunks))
	}
	if s.chunks[i] == nil {
		return nil, fmt.Errorf("storage: chunk %d not written: %w", i, ErrCorrupted)
	}
	return append([]byte(nil), s.chunks[i]...), nil
}

// Close implements SnapshotStore.
func (s *MemSnapshotStore) Close() error { return nil }

// FileSnapshotStore stores the snapshot in one file:
//
//	envLen(4) | envelope | chunk payloads at fixed ChunkBytes offsets
//
// StoreEnvelope writes the header atomically (temp + rename) and
// pre-extends the file to its final size; WriteChunk/ReadChunk then address
// payloads in place. A torn save fails chunk digest verification on load.
type FileSnapshotStore struct {
	mu   sync.Mutex
	path string
}

// NewFileSnapshotStore stores snapshots at path.
func NewFileSnapshotStore(path string) *FileSnapshotStore {
	return &FileSnapshotStore{path: path}
}

// StoreEnvelope implements SnapshotStore.
func (s *FileSnapshotStore) StoreEnvelope(env SnapEnvelope) error {
	if err := env.Validate(); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	encoded := env.Encode()
	header := make([]byte, 0, 4+len(encoded))
	header = append(header,
		byte(len(encoded)>>24), byte(len(encoded)>>16), byte(len(encoded)>>8), byte(len(encoded)))
	header = append(header, encoded...)

	dir := filepath.Dir(s.path)
	tmp, err := os.CreateTemp(dir, ".snapshot-*")
	if err != nil {
		return fmt.Errorf("snapshot temp: %w", err)
	}
	tmpName := tmp.Name()
	fail := func(op string, err error) error {
		tmp.Close()
		os.Remove(tmpName)
		return fmt.Errorf("snapshot %s: %w", op, err)
	}
	if _, err := tmp.Write(header); err != nil {
		return fail("write", err)
	}
	if err := tmp.Truncate(int64(len(header)) + env.TotalBytes); err != nil {
		return fail("truncate", err)
	}
	if err := tmp.Sync(); err != nil {
		return fail("sync", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("snapshot close: %w", err)
	}
	if err := os.Rename(tmpName, s.path); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("snapshot rename: %w", err)
	}
	return nil
}

// loadEnvelopeLocked reads the header and returns the envelope plus the
// file offset where chunk payloads begin.
func (s *FileSnapshotStore) loadEnvelopeLocked(f *os.File) (SnapEnvelope, int64, error) {
	var lenBuf [4]byte
	if _, err := f.ReadAt(lenBuf[:], 0); err != nil {
		return SnapEnvelope{}, 0, fmt.Errorf("snapshot header: %w", ErrCorrupted)
	}
	n := int(lenBuf[0])<<24 | int(lenBuf[1])<<16 | int(lenBuf[2])<<8 | int(lenBuf[3])
	if n <= 0 || n > codec.MaxBytesLen {
		return SnapEnvelope{}, 0, fmt.Errorf("snapshot header length %d: %w", n, ErrCorrupted)
	}
	buf := make([]byte, n)
	if _, err := f.ReadAt(buf, 4); err != nil {
		return SnapEnvelope{}, 0, fmt.Errorf("snapshot envelope: %w", ErrCorrupted)
	}
	env, err := DecodeSnapEnvelope(buf)
	if err != nil {
		return SnapEnvelope{}, 0, err
	}
	return env, int64(4 + n), nil
}

func (s *FileSnapshotStore) open() (*os.File, error) {
	f, err := os.OpenFile(s.path, os.O_RDWR, 0)
	if errors.Is(err, os.ErrNotExist) {
		return nil, ErrNoSnapshot
	}
	if err != nil {
		return nil, fmt.Errorf("snapshot open: %w", err)
	}
	return f, nil
}

// LoadEnvelope implements SnapshotStore.
func (s *FileSnapshotStore) LoadEnvelope() (SnapEnvelope, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	f, err := s.open()
	if err != nil {
		return SnapEnvelope{}, err
	}
	defer f.Close()
	env, _, err := s.loadEnvelopeLocked(f)
	return env, err
}

// WriteChunk implements SnapshotStore.
func (s *FileSnapshotStore) WriteChunk(i int, data []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	f, err := s.open()
	if err != nil {
		return err
	}
	defer f.Close()
	env, base, err := s.loadEnvelopeLocked(f)
	if err != nil {
		return err
	}
	if i < 0 || i >= env.NumChunks() {
		return fmt.Errorf("storage: chunk %d out of range (%d chunks)", i, env.NumChunks())
	}
	if len(data) != env.ChunkLen(i) {
		return fmt.Errorf("storage: chunk %d size %d, want %d", i, len(data), env.ChunkLen(i))
	}
	if _, err := f.WriteAt(data, base+int64(i)*int64(env.ChunkBytes)); err != nil {
		return fmt.Errorf("snapshot chunk write: %w", err)
	}
	return f.Sync()
}

// ReadChunk implements SnapshotStore.
func (s *FileSnapshotStore) ReadChunk(i int) ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	f, err := s.open()
	if err != nil {
		return nil, err
	}
	defer f.Close()
	env, base, err := s.loadEnvelopeLocked(f)
	if err != nil {
		return nil, err
	}
	if i < 0 || i >= env.NumChunks() {
		return nil, fmt.Errorf("storage: chunk %d out of range (%d chunks)", i, env.NumChunks())
	}
	buf := make([]byte, env.ChunkLen(i))
	if _, err := f.ReadAt(buf, base+int64(i)*int64(env.ChunkBytes)); err != nil {
		return nil, fmt.Errorf("snapshot chunk read: %w", ErrCorrupted)
	}
	return buf, nil
}

// Close implements SnapshotStore.
func (s *FileSnapshotStore) Close() error { return nil }

var (
	_ SnapshotStore = (*MemSnapshotStore)(nil)
	_ SnapshotStore = (*FileSnapshotStore)(nil)
)
