package smr

import (
	"bytes"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"smartchain/internal/crypto"
	"smartchain/internal/storage"
)

func signedReq(t *testing.T, client int64, seq uint64, op string) Request {
	t.Helper()
	key := crypto.SeededKeyPair("client", client)
	r, err := NewSignedRequest(client, seq, []byte(op), key)
	if err != nil {
		t.Fatalf("sign request: %v", err)
	}
	return r
}

func TestRequestSignVerify(t *testing.T) {
	r := signedReq(t, 1, 1, "op")
	if err := r.VerifySig(); err != nil {
		t.Fatalf("verify: %v", err)
	}
	tampered := r
	tampered.Op = []byte("other")
	if err := tampered.VerifySig(); err == nil {
		t.Fatal("tampered op must fail verification")
	}
	tampered = r
	tampered.Seq = 99
	if err := tampered.VerifySig(); err == nil {
		t.Fatal("tampered seq must fail verification")
	}
	tampered = r
	tampered.PubKey = crypto.SeededKeyPair("client", 2).Public()
	if err := tampered.VerifySig(); err == nil {
		t.Fatal("swapped key must fail verification")
	}
}

func TestRequestEncodeDecode(t *testing.T) {
	r := signedReq(t, 42, 7, "transfer")
	got, err := DecodeRequest(r.Encode())
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if got.ClientID != r.ClientID || got.Seq != r.Seq ||
		!bytes.Equal(got.Op, r.Op) || !got.PubKey.Equal(r.PubKey) ||
		!bytes.Equal(got.Sig, r.Sig) {
		t.Fatalf("round trip mismatch: %+v vs %+v", got, r)
	}
	if err := got.VerifySig(); err != nil {
		t.Fatalf("decoded request must still verify: %v", err)
	}
	if got.Digest() != r.Digest() {
		t.Fatal("digest must survive round trip")
	}
}

func TestDecodeRequestRejectsGarbage(t *testing.T) {
	if _, err := DecodeRequest([]byte("nonsense")); err == nil {
		t.Fatal("garbage must not decode")
	}
	r := signedReq(t, 1, 1, "x")
	enc := r.Encode()
	if _, err := DecodeRequest(enc[:len(enc)-3]); err == nil {
		t.Fatal("truncated request must not decode")
	}
	if _, err := DecodeRequest(append(enc, 0)); err == nil {
		t.Fatal("trailing bytes must not decode")
	}
}

func TestBatchEncodeDecode(t *testing.T) {
	b := Batch{Requests: []Request{
		signedReq(t, 1, 1, "a"),
		signedReq(t, 2, 1, "b"),
		signedReq(t, 1, 2, "c"),
	}}
	got, err := DecodeBatch(b.Encode())
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(got.Requests) != 3 {
		t.Fatalf("got %d requests", len(got.Requests))
	}
	if got.Digest() != b.Digest() {
		t.Fatal("batch digest must survive round trip")
	}
	empty := Batch{}
	gotE, err := DecodeBatch(empty.Encode())
	if err != nil || len(gotE.Requests) != 0 {
		t.Fatalf("empty batch round trip: %v %d", err, len(gotE.Requests))
	}
}

func TestBatchDigestDeterministicProperty(t *testing.T) {
	f := func(clientID int64, seq uint64, op []byte) bool {
		key := crypto.SeededKeyPair("p", clientID)
		r1, err1 := NewSignedRequest(clientID, seq, op, key)
		r2, err2 := NewSignedRequest(clientID, seq, op, key)
		if err1 != nil || err2 != nil {
			return false
		}
		b1 := Batch{Requests: []Request{r1}}
		b2 := Batch{Requests: []Request{r2}}
		return b1.Digest() == b2.Digest()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeBatchRejectsImplausibleCount(t *testing.T) {
	// A 4-byte buffer claiming 2^31 requests must fail fast, not allocate.
	data := []byte{0x7f, 0xff, 0xff, 0xff}
	if _, err := DecodeBatch(data); err == nil {
		t.Fatal("implausible count must be rejected")
	}
}

func TestReplyEncodeDecode(t *testing.T) {
	r := Reply{ReplicaID: 3, ClientID: 9, Seq: 4, Result: []byte("ok")}
	got, err := DecodeReply(r.Encode())
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if got.ReplicaID != 3 || got.ClientID != 9 || got.Seq != 4 || string(got.Result) != "ok" {
		t.Fatalf("round trip: %+v", got)
	}
}

func TestVerifierPoolModes(t *testing.T) {
	good := signedReq(t, 1, 1, "good")
	bad := good
	bad.Sig = make([]byte, crypto.SignatureSize)

	for _, mode := range []VerifyMode{VerifyParallel, VerifySequential} {
		p := NewVerifierPool(mode, 0)
		verdicts := p.VerifyBatch([]Request{good, bad, good})
		if !verdicts[0] || verdicts[1] || !verdicts[2] {
			t.Fatalf("mode %v: verdicts %v", mode, verdicts)
		}
		p.Close()
	}

	p := NewVerifierPool(VerifyNone, 0)
	defer p.Close()
	verdicts := p.VerifyBatch([]Request{good, bad})
	if !verdicts[0] || !verdicts[1] {
		t.Fatalf("none mode must accept everything: %v", verdicts)
	}
}

func TestVerifierPoolSubmitAsync(t *testing.T) {
	p := NewVerifierPool(VerifyParallel, 4)
	p.Start()
	defer p.Close()
	const n = 64
	var accepted atomic.Int64
	var wg sync.WaitGroup
	wg.Add(n)
	for i := 0; i < n; i++ {
		req := signedReq(t, int64(i%4), uint64(i), "op")
		if i%5 == 0 {
			req.Sig = make([]byte, crypto.SignatureSize) // forged
		}
		ok := p.Submit(req, func(_ Request, valid bool) {
			if valid {
				accepted.Add(1)
			}
			wg.Done()
		})
		if !ok {
			t.Fatal("submit to live pool must succeed")
		}
	}
	wg.Wait()
	want := int64(n - (n+4)/5)
	if accepted.Load() != want {
		t.Fatalf("accepted %d, want %d", accepted.Load(), want)
	}
}

func TestVerifierPoolSubmitAfterClose(t *testing.T) {
	p := NewVerifierPool(VerifyNone, 1)
	p.Start()
	p.Close()
	if p.Submit(Request{}, func(Request, bool) {}) {
		t.Fatal("submit after close must fail")
	}
	p.Close() // double close must be safe
}

func TestBatcherBasics(t *testing.T) {
	b := NewBatcher(2)
	defer b.Close()
	if !b.Add(signedReq(t, 1, 1, "a")) {
		t.Fatal("add must succeed")
	}
	if b.Add(signedReq(t, 1, 1, "a")) {
		t.Fatal("duplicate (client,seq) must be rejected")
	}
	b.Add(signedReq(t, 1, 2, "b"))
	b.Add(signedReq(t, 1, 3, "c"))
	batch, ok := b.TryNext()
	if !ok || len(batch.Requests) != 2 {
		t.Fatalf("first batch: ok=%v len=%d", ok, len(batch.Requests))
	}
	batch2, ok := b.TryNext()
	if !ok || len(batch2.Requests) != 1 {
		t.Fatalf("second batch: ok=%v len=%d", ok, len(batch2.Requests))
	}
	if _, ok := b.TryNext(); ok {
		t.Fatal("empty batcher TryNext must fail")
	}
}

func TestBatcherMarkDeliveredReplayProtection(t *testing.T) {
	b := NewBatcher(10)
	defer b.Close()
	r := signedReq(t, 5, 1, "x")
	b.Add(r)
	batch, _ := b.TryNext()
	if b.Add(r) {
		t.Fatal("in-flight duplicate must be rejected")
	}
	b.MarkDelivered(batch.Requests)
	// Replays of an executed request must never be ordered again.
	if b.Add(r) {
		t.Fatal("executed request must be rejected on replay")
	}
	// But the client's next sequence number is accepted.
	if !b.Add(signedReq(t, 5, 2, "y")) {
		t.Fatal("next sequence must be accepted")
	}
}

func TestBatcherMarkDeliveredPurgesPendingCopies(t *testing.T) {
	// A request queued locally but ordered via another replica's proposal
	// must be purged so it is never proposed again.
	b := NewBatcher(10)
	defer b.Close()
	r1 := signedReq(t, 1, 1, "a")
	r2 := signedReq(t, 1, 2, "b")
	b.Add(r1)
	b.Add(r2)
	b.MarkDelivered([]Request{r1}) // delivered elsewhere
	batch, ok := b.TryNext()
	if !ok || len(batch.Requests) != 1 || batch.Requests[0].Seq != 2 {
		t.Fatalf("pending after purge: %+v", batch.Requests)
	}
}

// A forged copy of a request — same identity and sequence number, another
// operation under the honest signature — that took the dedupe slot and then
// failed its signature check is discarded: the slot and its queued copy go,
// the executed record stays as it was, and the honest request is ordered.
func TestBatcherDiscardFreesTheSlotAForgeryTook(t *testing.T) {
	b := NewBatcher(10)
	defer b.Close()
	honest := signedReq(t, 5, 1, "x")
	forged := honest
	forged.Op = []byte("y")
	if !b.Add(forged) || b.Add(honest) {
		t.Fatal("the forged copy should hold the slot and shut the honest request out")
	}
	b.Discard([]Request{forged})
	if b.Pending() != 0 {
		t.Fatalf("%d requests queued after the discard, want the forged copy gone", b.Pending())
	}
	if fresh := b.Fresh([]Request{honest}); !fresh[0] {
		t.Fatal("the discard marked the sequence number executed")
	}
	if !b.Add(honest) {
		t.Fatal("the honest request is still shut out")
	}
}

func TestBatcherReadySignal(t *testing.T) {
	b := NewBatcher(10)
	defer b.Close()
	select {
	case <-b.Ready():
		t.Fatal("no ready token before Add")
	default:
	}
	b.Add(signedReq(t, 1, 1, "x"))
	select {
	case <-b.Ready():
	case <-time.After(time.Second):
		t.Fatal("ready token missing after Add")
	}
	// Close wakes a driver waiting on Ready, and nothing enters or leaves
	// the queue afterwards.
	b.Close()
	select {
	case <-b.Ready():
	case <-time.After(time.Second):
		t.Fatal("ready token missing after Close")
	}
	if _, ok := b.TryNext(); ok {
		t.Fatal("TryNext after Close must fail")
	}
	if b.Add(signedReq(t, 1, 2, "y")) {
		t.Fatal("Add after Close must fail")
	}
}

func TestBatcherRequeueDropsExecuted(t *testing.T) {
	b := NewBatcher(10)
	defer b.Close()
	r1 := signedReq(t, 1, 1, "a")
	r2 := signedReq(t, 1, 2, "b")
	b.Add(r1)
	b.Add(r2)
	batch, _ := b.TryNext()
	b.MarkDelivered([]Request{r1})
	b.Requeue(batch.Requests) // r1 already executed: must be dropped
	got, _ := b.TryNext()
	if len(got.Requests) != 1 || got.Requests[0].Seq != 2 {
		t.Fatalf("requeue kept executed request: %+v", got.Requests)
	}
}

func TestBatcherRequeuePreservesOrder(t *testing.T) {
	b := NewBatcher(10)
	defer b.Close()
	r1 := signedReq(t, 1, 1, "one")
	r2 := signedReq(t, 1, 2, "two")
	b.Add(r1)
	b.Add(r2)
	batch, _ := b.TryNext()
	if len(batch.Requests) != 2 {
		t.Fatalf("expected both requests, got %d", len(batch.Requests))
	}
	b.Add(signedReq(t, 1, 3, "three"))
	b.Requeue(batch.Requests)
	got, _ := b.TryNext()
	if len(got.Requests) != 3 || got.Requests[0].Seq != 1 || got.Requests[1].Seq != 2 || got.Requests[2].Seq != 3 {
		t.Fatalf("requeue order wrong: %+v", got.Requests)
	}
}

// countingLog counts the Append and Sync calls that reach a log.
type countingLog struct {
	storage.Log
	appends, syncs atomic.Int64
}

func (l *countingLog) Append(record []byte) error {
	l.appends.Add(1)
	return l.Log.Append(record)
}

func (l *countingLog) Sync() error {
	l.syncs.Add(1)
	return l.Log.Sync()
}

func TestDurableLoggerGroupCommit(t *testing.T) {
	log := &countingLog{Log: storage.NewSimLog(nil)}
	d := NewDurableLogger(log, StorageSync)

	const n = 50
	var wg sync.WaitGroup
	wg.Add(n)
	for i := 0; i < n; i++ {
		d.Append([]byte{byte(i)}, func(err error) {
			if err != nil {
				t.Errorf("durable callback error: %v", err)
			}
			wg.Done()
		})
	}
	wg.Wait()
	records, syncs := log.appends.Load(), log.syncs.Load()
	if records != n {
		t.Fatalf("records: %d", records)
	}
	if syncs >= n {
		t.Fatalf("group commit must batch syncs: %d syncs for %d records", syncs, records)
	}
	d.Close()
	entries, err := log.ReadAll()
	if err != nil {
		t.Fatalf("readall: %v", err)
	}
	if len(entries) != n {
		t.Fatalf("log has %d entries", len(entries))
	}
	// FIFO order preserved.
	for i, e := range entries {
		if len(e) != 1 || e[0] != byte(i) {
			t.Fatalf("entry %d out of order: %v", i, e)
		}
	}
}

func TestDurableLoggerMemoryModeSkipsSync(t *testing.T) {
	disk := &storage.SimDisk{SyncLatency: 50 * time.Millisecond}
	log := &countingLog{Log: storage.NewSimLog(disk)}
	d := NewDurableLogger(log, StorageMemory)
	defer d.Close()

	done := make(chan error, 1)
	start := time.Now()
	d.Append([]byte("x"), func(err error) { done <- err })
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("callback err: %v", err)
		}
	case <-time.After(time.Second):
		t.Fatal("callback never fired")
	}
	if time.Since(start) > 25*time.Millisecond {
		t.Fatal("memory mode must not pay sync latency")
	}
	if records, syncs := log.appends.Load(), log.syncs.Load(); records != 1 || syncs != 0 {
		t.Fatalf("memory mode counted %d syncs for %d records, want none", syncs, records)
	}
}

// A group on which no record waits issues no sync: k unwaited appends and
// then one waited block cost exactly one sync, a crash before that block
// loses only the unwaited tail, and Close syncs what is left.
func TestDurableLoggerUnwaitedRecordsRideTheNextSync(t *testing.T) {
	disk := &storage.SimDisk{}
	sim := storage.NewSimLog(disk)
	log := &countingLog{Log: sim}
	d := NewDurableLogger(log, StorageSync)
	defer d.Close()
	const k = 5
	waited := func(rec byte) {
		t.Helper()
		done := make(chan error, 1)
		d.Append([]byte{rec}, func(err error) { done <- err })
		if err := <-done; err != nil {
			t.Fatalf("durable callback: %v", err)
		}
	}
	unwaited := func(from byte) {
		for i := byte(0); i < k; i++ {
			d.Append([]byte{from + i}, nil)
		}
	}
	logged := func() [][]byte {
		t.Helper()
		entries, err := log.ReadAll()
		if err != nil {
			t.Fatalf("readall: %v", err)
		}
		return entries
	}
	appended := func(n int) { // the logger goroutine has taken every record
		t.Helper()
		for deadline := time.Now().Add(5 * time.Second); len(logged()) < n; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("%d of %d records appended", len(logged()), n)
			}
		}
	}
	syncs := func() int64 {
		_, n := disk.Stats()
		return n
	}

	waited(0)
	unwaited(1)
	appended(1 + k)
	if n := syncs(); n != 1 {
		t.Fatalf("%d syncs after one waited record and %d unwaited ones, want 1", n, k)
	}
	sim.Crash()
	if got := logged(); len(got) != 1 || got[0][0] != 0 {
		t.Fatalf("a crash left %v, want only the synced record", got)
	}

	unwaited(10)
	waited(20)
	if n := syncs(); n != 2 {
		t.Fatalf("%d unwaited records and a waited one cost %d syncs, want 1", k, n-1)
	}
	sim.Crash()
	if got := logged(); len(got) != k+2 || got[1][0] != 10 || got[k+1][0] != 20 {
		t.Fatalf("a crash after the waited sync left %v, want it and every record before it", got)
	}

	unwaited(30)
	appended(2*k + 2)
	d.Close()
	sim.Crash()
	if n, got := syncs(), logged(); n != 3 || len(got) != 2*k+2 {
		t.Fatalf("after Close and a crash: %d syncs, %d records; want 3 and %d", n, len(got), 2*k+2)
	}
	if records, n := log.appends.Load(), log.syncs.Load(); records != 3*k+2 || n != 3 {
		t.Fatalf("logger counted %d records under %d syncs, want %d under 3", records, n, 3*k+2)
	}
}

// gatedLog is a SimLog whose Sync announces itself on entered and then
// blocks until release is closed.
type gatedLog struct {
	*storage.SimLog
	entered chan struct{}
	release chan struct{}
}

func (l *gatedLog) Sync() error {
	l.entered <- struct{}{}
	<-l.release
	return l.SimLog.Sync()
}

// Each mode fires onDurable at its own durability point: Sync after the
// group's sync, Async once the group is appended while its sync is still
// blocked, Memory with no sync at all. A crash after Close keeps the record
// exactly when a sync ran.
func TestDurableLoggerModesFireAtTheirDurabilityPoint(t *testing.T) {
	for _, tc := range []struct {
		mode         StorageMode
		waitsForSync bool
		syncs        bool
	}{
		{StorageSync, true, true},
		{StorageAsync, false, true},
		{StorageMemory, false, false},
	} {
		t.Run(tc.mode.String(), func(t *testing.T) {
			log := &gatedLog{SimLog: storage.NewSimLog(nil), entered: make(chan struct{}, 4), release: make(chan struct{})}
			d := NewDurableLogger(log, tc.mode)
			fired := make(chan error, 1)
			d.Append([]byte("x"), func(err error) { fired <- err })
			if tc.syncs {
				select {
				case <-log.entered:
				case <-time.After(5 * time.Second):
					t.Fatalf("%s: Sync never called", tc.mode)
				}
			}
			if tc.waitsForSync {
				select {
				case <-fired:
					t.Fatalf("%s: onDurable fired while Sync was blocked", tc.mode)
				case <-time.After(50 * time.Millisecond):
				}
			} else {
				select {
				case err := <-fired:
					if err != nil {
						t.Fatalf("%s: onDurable: %v", tc.mode, err)
					}
				case <-time.After(5 * time.Second):
					t.Fatalf("%s: onDurable waits for Sync", tc.mode)
				}
			}
			close(log.release)
			if tc.waitsForSync {
				if err := <-fired; err != nil {
					t.Fatalf("%s: onDurable: %v", tc.mode, err)
				}
			}
			d.Close()
			if n := len(log.entered); n != 0 {
				t.Fatalf("%s: %d more syncs after the first", tc.mode, n)
			}
			log.Crash()
			if got, _ := log.ReadAll(); (len(got) == 1) != tc.syncs {
				t.Fatalf("%s: a crash after Close left %d records", tc.mode, len(got))
			}
		})
	}
}

func TestDurableLoggerAppendAfterClose(t *testing.T) {
	d := NewDurableLogger(storage.NewSimLog(nil), StorageSync)
	d.Close()
	got := make(chan error, 1)
	d.Append([]byte("x"), func(err error) { got <- err })
	select {
	case err := <-got:
		if !errors.Is(err, storage.ErrClosed) {
			t.Fatalf("want ErrClosed, got %v", err)
		}
	case <-time.After(time.Second):
		t.Fatal("callback never fired after close")
	}
	d.Close() // double close safe
}

func TestDurableLoggerDrainsOnClose(t *testing.T) {
	log := storage.NewSimLog(nil)
	d := NewDurableLogger(log, StorageSync)
	for i := 0; i < 20; i++ {
		d.Append([]byte{byte(i)}, nil)
	}
	d.Close()
	entries, _ := log.ReadAll()
	if len(entries) != 20 {
		t.Fatalf("close must drain queue: %d/20 entries", len(entries))
	}
}

func TestModeStrings(t *testing.T) {
	if VerifyParallel.String() != "parallel" || VerifySequential.String() != "sequential" ||
		VerifyNone.String() != "none" || VerifyMode(0).String() != "unknown" {
		t.Fatal("VerifyMode strings")
	}
	if StorageSync.String() != "sync" || StorageAsync.String() != "async" ||
		StorageMemory.String() != "memory" || StorageMode(0).String() != "unknown" {
		t.Fatal("StorageMode strings")
	}
}

// Digest hashes the encoded batch.
func (b *Batch) Digest() crypto.Hash {
	return crypto.HashBytes(b.Encode())
}
