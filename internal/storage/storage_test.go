package storage

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"path/filepath"
	"testing"
	"testing/quick"
	"time"
)

func testLogRoundTrip(t *testing.T, l Log) {
	t.Helper()
	records := [][]byte{[]byte("a"), []byte("bb"), {}, []byte("dddd")}
	for _, r := range records {
		if err := l.Append(r); err != nil {
			t.Fatalf("append: %v", err)
		}
	}
	if err := l.Sync(); err != nil {
		t.Fatalf("sync: %v", err)
	}
	got, err := l.ReadAll()
	if err != nil {
		t.Fatalf("readall: %v", err)
	}
	if len(got) != len(records) {
		t.Fatalf("got %d records, want %d", len(got), len(records))
	}
	for i := range records {
		if !bytes.Equal(got[i], records[i]) {
			t.Fatalf("record %d: got %q want %q", i, got[i], records[i])
		}
	}
}

func TestSimLogRoundTrip(t *testing.T) { testLogRoundTrip(t, NewSimLog(nil)) }
func TestFileLogRoundTrip(t *testing.T) {
	l, err := OpenFileLog(filepath.Join(t.TempDir(), "log"))
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer l.Close()
	testLogRoundTrip(t, l)
}

func TestLogClosedErrors(t *testing.T) {
	logs := map[string]Log{
		"sim": NewSimLog(nil),
	}
	fl, err := OpenFileLog(filepath.Join(t.TempDir(), "log"))
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	logs["file"] = fl
	for name, l := range logs {
		if err := l.Close(); err != nil {
			t.Fatalf("%s close: %v", name, err)
		}
		if err := l.Append([]byte("x")); !errors.Is(err, ErrClosed) {
			t.Errorf("%s append after close: %v", name, err)
		}
		if err := l.Sync(); !errors.Is(err, ErrClosed) {
			t.Errorf("%s sync after close: %v", name, err)
		}
		if _, err := l.ReadAll(); !errors.Is(err, ErrClosed) {
			t.Errorf("%s readall after close: %v", name, err)
		}
	}
}

func TestFileLogPersistsAcrossReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log")
	l, err := OpenFileLog(path)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	l.Append([]byte("one"))
	l.Append([]byte("two"))
	if err := l.Sync(); err != nil {
		t.Fatalf("sync: %v", err)
	}
	l.Close()

	l2, err := OpenFileLog(path)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer l2.Close()
	got, err := l2.ReadAll()
	if err != nil {
		t.Fatalf("readall: %v", err)
	}
	if len(got) != 2 || string(got[0]) != "one" || string(got[1]) != "two" {
		t.Fatalf("bad records after reopen: %q", got)
	}
	// Appending after reopen continues the log.
	l2.Append([]byte("three"))
	if err := l2.Sync(); err != nil {
		t.Fatalf("sync: %v", err)
	}
	got, _ = l2.ReadAll()
	if len(got) != 3 || string(got[2]) != "three" {
		t.Fatalf("bad records after append: %q", got)
	}
}

func TestFileLogUnsyncedRecordsLostOnClose(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log")
	l, err := OpenFileLog(path)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	l.Append([]byte("durable"))
	l.Sync()
	l.Append([]byte("buffered-only"))
	l.Close() // crash: buffered record never hit the file

	l2, err := OpenFileLog(path)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer l2.Close()
	got, _ := l2.ReadAll()
	if len(got) != 1 || string(got[0]) != "durable" {
		t.Fatalf("crash semantics violated: %q", got)
	}
}

func TestFileLogTornTailDiscarded(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log")
	l, err := OpenFileLog(path)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	l.Append([]byte("good-1"))
	l.Append([]byte("good-2"))
	l.Append([]byte("torn-record"))
	l.Sync()
	// Corrupt a byte inside the last record's payload.
	if err := l.CorruptTail(3); err != nil {
		t.Fatalf("corrupt: %v", err)
	}
	l.Close()

	l2, err := OpenFileLog(path)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer l2.Close()
	got, err := l2.ReadAll()
	if err != nil {
		t.Fatalf("readall: %v", err)
	}
	if len(got) != 2 || string(got[0]) != "good-1" || string(got[1]) != "good-2" {
		t.Fatalf("torn tail handling: %q", got)
	}
}

func TestParseRecordsProperty(t *testing.T) {
	// Round trip property: any record sequence frames and parses back.
	f := func(records [][]byte) bool {
		var buf []byte
		for _, r := range records {
			buf = appendRecord(buf, r)
		}
		got, consumed := parseRecords(buf)
		if consumed != len(buf) || len(got) != len(records) {
			return false
		}
		for i := range records {
			if !bytes.Equal(got[i], records[i]) {
				return false
			}
		}
		// Any truncation of the final frame drops exactly that record.
		if len(buf) > 0 {
			cut, _ := parseRecords(buf[:len(buf)-1])
			if len(cut) != len(records)-1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSimLogCrashLosesUnsynced(t *testing.T) {
	l := NewSimLog(nil)
	l.Append([]byte("durable"))
	l.Sync()
	l.Append([]byte("lost"))
	l.Crash()
	got, err := l.ReadAll()
	if err != nil {
		t.Fatalf("readall: %v", err)
	}
	if len(got) != 1 || string(got[0]) != "durable" {
		t.Fatalf("crash semantics: %q", got)
	}
	// Still usable after crash.
	if err := l.Append([]byte("after")); err != nil {
		t.Fatalf("append after crash: %v", err)
	}
}

func TestSimDiskTiming(t *testing.T) {
	d := &SimDisk{SyncLatency: 20 * time.Millisecond, BytesPerSecond: 1e6}
	d.Write(10_000) // 10ms of bandwidth at 1MB/s
	start := time.Now()
	d.Sync()
	elapsed := time.Since(start)
	if elapsed < 25*time.Millisecond {
		t.Fatalf("sync too fast: %v (want ≥ latency+bandwidth ≈ 30ms)", elapsed)
	}
	synced, syncs := d.Stats()
	if synced != 10_000 || syncs != 1 {
		t.Fatalf("stats: %d bytes %d syncs", synced, syncs)
	}
}

func TestSimDiskGroupCommitAmortization(t *testing.T) {
	// The property Dura-SMaRt exploits: k batches under one sync cost far
	// less than k batches under k syncs. The model says by how much: with
	// 16 KiB batches one sync of 160 KiB is 5 ms + 1.6 ms, ten syncs of
	// 16 KiB are 10 × (5 ms + 0.16 ms) — 7.8×. (At 64 KiB it is 4.9×.) The
	// comparison is of the modeled device time, not of the sleeps, which a
	// loaded host stretches by whatever it likes.
	disk := &SimDisk{SyncLatency: 5 * time.Millisecond, BytesPerSecond: 100e6}
	const batches, batchSize = 10, 16 << 10

	groupedTime := disk.cost(batches * batchSize)
	var individualTime time.Duration
	for i := 0; i < batches; i++ {
		individualTime += disk.cost(batchSize)
	}
	if individualTime < 5*groupedTime {
		t.Fatalf("group commit should amortize: grouped=%v individual=%v", groupedTime, individualTime)
	}

	// Sync charges what cost models and counts one sync per call.
	grouped := &SimDisk{}
	for i := 0; i < batches; i++ {
		grouped.Write(batchSize)
	}
	grouped.Sync()
	individual := &SimDisk{}
	for i := 0; i < batches; i++ {
		individual.Write(batchSize)
		individual.Sync()
	}
	if bytes, syncs := grouped.Stats(); bytes != batches*batchSize || syncs != 1 {
		t.Fatalf("grouped: %d bytes under %d syncs, want %d under 1", bytes, syncs, batches*batchSize)
	}
	if bytes, syncs := individual.Stats(); bytes != batches*batchSize || syncs != batches {
		t.Fatalf("individual: %d bytes under %d syncs, want %d under %d", bytes, syncs, batches*batchSize, batches)
	}
}

func TestMemSnapshotStore(t *testing.T) {
	s := NewMemSnapshotStore(nil)
	if _, err := s.LoadEnvelope(); !errors.Is(err, ErrNoSnapshot) {
		t.Fatalf("want ErrNoSnapshot, got %v", err)
	}
	state := []byte("state-at-100")
	if err := SaveSnapshot(s, 100, []byte("meta"), state, 5); err != nil {
		t.Fatalf("save: %v", err)
	}
	state[0] = 'X' // snapshot must have copied
	blk, meta, got, err := LoadSnapshot(s)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	if blk != 100 || string(got) != "state-at-100" || string(meta) != "meta" {
		t.Fatalf("load: block=%d meta=%q state=%q", blk, meta, got)
	}
	// Overwrite.
	if err := SaveSnapshot(s, 200, nil, []byte("newer"), 0); err != nil {
		t.Fatalf("save 2: %v", err)
	}
	blk, _, got, _ = LoadSnapshot(s)
	if blk != 200 || string(got) != "newer" {
		t.Fatalf("load 2: block=%d state=%q", blk, got)
	}
}

func TestFileSnapshotStore(t *testing.T) {
	path := filepath.Join(t.TempDir(), "snap")
	s := NewFileSnapshotStore(path)
	if _, err := s.LoadEnvelope(); !errors.Is(err, ErrNoSnapshot) {
		t.Fatalf("want ErrNoSnapshot, got %v", err)
	}
	if err := SaveSnapshot(s, 7, nil, []byte("seven"), 2); err != nil {
		t.Fatalf("save: %v", err)
	}
	blk, _, state, err := LoadSnapshot(s)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	if blk != 7 || string(state) != "seven" {
		t.Fatalf("load: %d %q", blk, state)
	}
	// Atomic overwrite survives reopen by a second store instance.
	if err := SaveSnapshot(s, 9, nil, []byte("nine"), 0); err != nil {
		t.Fatalf("save 2: %v", err)
	}
	s2 := NewFileSnapshotStore(path)
	blk, _, state, err = LoadSnapshot(s2)
	if err != nil {
		t.Fatalf("load from second store: %v", err)
	}
	if blk != 9 || string(state) != "nine" {
		t.Fatalf("load 2: %d %q", blk, state)
	}
}

func TestSnapshotChunkAddressing(t *testing.T) {
	for name, s := range map[string]SnapshotStore{
		"mem":  NewMemSnapshotStore(nil),
		"file": NewFileSnapshotStore(filepath.Join(t.TempDir(), "snap")),
	} {
		state := make([]byte, 1000)
		for i := range state {
			state[i] = byte(i % 251) // period coprime to the chunk size
		}
		if err := SaveSnapshot(s, 42, []byte("m"), state, 256); err != nil {
			t.Fatalf("%s: save: %v", name, err)
		}
		env, err := s.LoadEnvelope()
		if err != nil {
			t.Fatalf("%s: envelope: %v", name, err)
		}
		if env.NumChunks() != 4 || env.ChunkLen(3) != 1000-3*256 {
			t.Fatalf("%s: chunks=%d last=%d", name, env.NumChunks(), env.ChunkLen(3))
		}
		// Every chunk reads back individually and verifies against its digest.
		for i := 0; i < env.NumChunks(); i++ {
			data, err := s.ReadChunk(i)
			if err != nil {
				t.Fatalf("%s: read chunk %d: %v", name, i, err)
			}
			if !env.VerifyChunk(i, data) {
				t.Fatalf("%s: chunk %d fails digest", name, i)
			}
		}
		// Chunk verification rejects wrong-index and corrupt payloads.
		c0, _ := s.ReadChunk(0)
		if env.VerifyChunk(1, c0) {
			t.Fatalf("%s: chunk 0 data verified as chunk 1", name)
		}
		c0[0] ^= 0xff
		if env.VerifyChunk(0, c0) {
			t.Fatalf("%s: corrupt chunk verified", name)
		}
	}
}

func TestSnapshotCorruptChunkDetected(t *testing.T) {
	for name, s := range map[string]SnapshotStore{
		"mem":  NewMemSnapshotStore(nil),
		"file": NewFileSnapshotStore(filepath.Join(t.TempDir(), "snap")),
	} {
		state := make([]byte, 300)
		for i := range state {
			state[i] = byte(i)
		}
		if err := SaveSnapshot(s, 5, nil, state, 100); err != nil {
			t.Fatalf("%s: save: %v", name, err)
		}
		// Overwrite a committed chunk in place (models bit rot or a
		// Byzantine donor's store) — LoadSnapshot must refuse the state.
		bad := make([]byte, 100)
		if err := s.WriteChunk(1, bad); err != nil {
			t.Fatalf("%s: corrupt write: %v", name, err)
		}
		if _, _, _, err := LoadSnapshot(s); !errors.Is(err, ErrCorrupted) {
			t.Fatalf("%s: want ErrCorrupted, got %v", name, err)
		}
	}
}

func TestSnapshotTornSaveLoadsAsCorrupt(t *testing.T) {
	s := NewMemSnapshotStore(nil)
	env := BuildEnvelope(9, nil, []byte("abcdefgh"), 4)
	if err := s.StoreEnvelope(env); err != nil {
		t.Fatalf("store envelope: %v", err)
	}
	if err := s.WriteChunk(0, []byte("abcd")); err != nil {
		t.Fatalf("write chunk: %v", err)
	}
	// Chunk 1 never arrives: the torn snapshot must not load.
	if _, _, _, err := LoadSnapshot(s); !errors.Is(err, ErrCorrupted) {
		t.Fatalf("want ErrCorrupted for torn save, got %v", err)
	}
}

func TestSnapEnvelopeRoundTrip(t *testing.T) {
	env := BuildEnvelope(77, []byte("meta"), make([]byte, 1024+3), 256)
	dec, err := DecodeSnapEnvelope(env.Encode())
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if dec.LastBlock != 77 || dec.NumChunks() != 5 || dec.TotalBytes != 1027 ||
		string(dec.Meta) != "meta" || dec.Root() != env.Root() {
		t.Fatalf("round trip mismatch: %+v", dec)
	}
	// Inconsistent chunk counts are rejected at decode time.
	bad := env
	bad.Chunks = bad.Chunks[:3]
	if _, err := DecodeSnapEnvelope(bad.Encode()); err == nil {
		t.Fatal("decode accepted inconsistent chunk count")
	}
}

// Root returns a digest over the full envelope encoding (including Meta): a
// single fingerprint that commits to the chunk digest chain.
func (e *SnapEnvelope) Root() [32]byte {
	return sha256.Sum256(e.Encode())
}
