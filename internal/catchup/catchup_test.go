package catchup

import (
	"bytes"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"smartchain/internal/blockchain"
	"smartchain/internal/crypto"
	"smartchain/internal/storage"
)

// fakeWorld is a simulated cluster for driving a Pool without transport
// or consensus: a canonical snapshot + chain, per-donor behaviors, and a
// Fetcher whose verification methods check fetched material against the
// canonical truth (standing in for real decision-proof verification).
type fakeWorld struct {
	mu sync.Mutex

	inbox []Response // donor replies runSync has not handed to the Pool yet

	// canonical truth
	env    *Envelope
	state  []byte
	blocks []blockchain.Block // numbers env.Snap.LastBlock+1 .. tip

	donors map[int32]*fakeDonor

	// local replica state
	height    int64
	installed int
	restored  []byte
	applied   []int64 // block numbers replayed/applied, in order

	reqEnvelope map[int32]int
}

type fakeDonor struct {
	silent      bool // never answers anything
	corrupt     bool // serves chunks with flipped bytes
	pruned      bool // answers chunk requests with empty data
	forgedEnv   *Envelope
	forgedState []byte
}

func fakeChain(from, to int64) []blockchain.Block {
	var out []blockchain.Block
	for n := from; n <= to; n++ {
		out = append(out, blockchain.Block{Header: blockchain.Header{Number: n}})
	}
	return out
}

func newFakeWorld(snapHeight, tip int64, donors int) *fakeWorld {
	state := make([]byte, 3000)
	for i := range state {
		state[i] = byte(i % 251)
	}
	snap := storage.BuildEnvelope(snapHeight, []byte("meta"), state, 1024)
	w := &fakeWorld{
		env:         &Envelope{Snap: snap, Tip: tip},
		state:       state,
		blocks:      fakeChain(snapHeight+1, tip),
		donors:      make(map[int32]*fakeDonor),
		reqEnvelope: make(map[int32]int),
	}
	for i := 0; i < donors; i++ {
		w.donors[int32(i)] = &fakeDonor{}
	}
	return w
}

func (w *fakeWorld) peers() []int32 {
	out := make([]int32, 0, len(w.donors))
	for i := 0; i < len(w.donors); i++ {
		out = append(out, int32(i))
	}
	return out
}

func (w *fakeWorld) donorEnv(d *fakeDonor) (*Envelope, []byte) {
	if d.forgedEnv != nil {
		return d.forgedEnv, d.forgedState
	}
	return w.env, w.state
}

// Fetcher implementation. A reply is queued while the request is being
// performed and handed to the Pool by runSync, as a transport would.

func (w *fakeWorld) deliver(r Response) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.inbox = append(w.inbox, r)
}

func (w *fakeWorld) Height() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.height
}

func (w *fakeWorld) RequestEnvelope(peer int32) error {
	w.mu.Lock()
	d := w.donors[peer]
	w.reqEnvelope[peer]++
	w.mu.Unlock()
	if d == nil || d.silent {
		return nil
	}
	env, _ := w.donorEnv(d)
	e := *env
	w.deliver(Response{Peer: peer, Kind: KindEnvelope, Envelope: &e})
	return nil
}

func (w *fakeWorld) RequestChunk(peer int32, height int64, index int) error {
	d := w.donors[peer]
	if d == nil || d.silent {
		return nil
	}
	env, state := w.donorEnv(d)
	if height != env.Snap.LastBlock {
		return nil
	}
	var data []byte
	if !d.pruned {
		off := index * int(env.Snap.ChunkBytes)
		data = append([]byte(nil), state[off:off+env.Snap.ChunkLen(index)]...)
		if d.corrupt {
			data[0] ^= 0xff
		}
	}
	w.deliver(Response{Peer: peer, Kind: KindChunk, Height: height, Index: index, Data: data})
	return nil
}

func (w *fakeWorld) RequestRange(peer int32, from, to int64) error {
	d := w.donors[peer]
	if d == nil || d.silent {
		return nil
	}
	env, _ := w.donorEnv(d)
	var out []blockchain.Block
	for _, b := range w.blocks {
		if b.Header.Number >= from && b.Header.Number <= to {
			out = append(out, b)
		}
	}
	if env != w.env {
		out = fakeChain(from, to) // forged continuation of the forged envelope
	}
	w.deliver(Response{Peer: peer, Kind: KindRange, From: from, Blocks: out})
	return nil
}

// VerifyBlocks stands in for decision-proof verification: blocks bind to
// the envelope only when both match the canonical truth.
func (w *fakeWorld) VerifyBlocks(env *Envelope, blocks []blockchain.Block) error {
	if env.Fingerprint() != w.env.Fingerprint() {
		return errors.New("fake: envelope does not match committed chain")
	}
	for i, b := range blocks {
		if b.Header.Number != env.Snap.LastBlock+1+int64(i) {
			return errors.New("fake: range does not extend envelope")
		}
	}
	return nil
}

func (w *fakeWorld) InstallSnapshot(env *Envelope, state []byte) error {
	if int64(len(state)) != env.Snap.TotalBytes {
		return errors.New("fake: state length mismatch")
	}
	for i := range env.Snap.Chunks {
		off := i * int(env.Snap.ChunkBytes)
		if !env.Snap.VerifyChunk(i, state[off:off+env.Snap.ChunkLen(i)]) {
			return errors.New("fake: chunk digest mismatch")
		}
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	w.installed++
	w.restored = append([]byte(nil), state...)
	w.height = env.Snap.LastBlock
	return nil
}

func (w *fakeWorld) applyAt(blocks []blockchain.Block, verify bool) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	for _, b := range blocks {
		if b.Header.Number != w.height+1 {
			return errors.New("fake: apply out of order")
		}
		if verify {
			for _, cb := range w.blocks {
				if cb.Header.Number == b.Header.Number && cb.Header.Hash() != b.Header.Hash() {
					return errors.New("fake: proof verification failed")
				}
			}
		}
		w.height = b.Header.Number
		w.applied = append(w.applied, b.Header.Number)
	}
	return nil
}

func (w *fakeWorld) ApplyBlocks(blocks []blockchain.Block) error  { return w.applyAt(blocks, true) }
func (w *fakeWorld) ReplayBlocks(blocks []blockchain.Block) error { return w.applyAt(blocks, false) }

var _ Fetcher = (*fakeWorld)(nil)

// runSync plays a round's owner under virtual time: every queued reply is
// handed over at once, and when none is left the clock jumps to the Pool's
// next deadline.
func runSync(t *testing.T, src *Pool, w *fakeWorld) (bool, error) {
	t.Helper()
	now := time.Unix(1_000_000, 0)
	done, progressed, err := src.Begin(now, w, w.peers(), 10*time.Second)
	for !done {
		if len(w.inbox) > 0 {
			resp := w.inbox[0]
			w.inbox = w.inbox[1:]
			done, progressed, err = src.Handle(now, resp)
			continue
		}
		now = src.NextDeadline() // at the latest the instant the round is given up
		done, progressed, err = src.Tick(now)
	}
	return progressed, err
}

func (p *Pool) isBanned(id int32) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.m.banned[id]
}

func testConfig() Config {
	return Config{InFlightPerPeer: 2, PeerTimeout: 40 * time.Millisecond, RangeBlocks: 8}
}

func TestPoolMultiDonorHappyPath(t *testing.T) {
	w := newFakeWorld(100, 160, 4)
	p := NewPool(testConfig())
	progressed, err := runSync(t, p, w)
	if err != nil || !progressed {
		t.Fatalf("sync: progressed=%v err=%v", progressed, err)
	}
	if w.installed != 1 || !bytes.Equal(w.restored, w.state) {
		t.Fatalf("snapshot: installed=%d, state match=%v", w.installed, bytes.Equal(w.restored, w.state))
	}
	if w.height != 160 {
		t.Fatalf("height = %d, want 160", w.height)
	}
	st := p.Stats()
	if st.ChunksFetched != int64(w.env.Snap.NumChunks()) {
		t.Fatalf("ChunksFetched = %d, want %d", st.ChunksFetched, w.env.Snap.NumChunks())
	}
	if st.BlocksFetched != 60 || st.Installs != 1 || st.Banned != 0 {
		t.Fatalf("stats = %+v", st)
	}
	if st.PeersUsed < 2 {
		t.Fatalf("PeersUsed = %d, want work spread across donors", st.PeersUsed)
	}
}

func TestPoolTimeoutReassignsWork(t *testing.T) {
	w := newFakeWorld(100, 140, 4)
	w.donors[2].silent = true
	p := NewPool(testConfig())
	progressed, err := runSync(t, p, w)
	if err != nil || !progressed {
		t.Fatalf("sync: progressed=%v err=%v", progressed, err)
	}
	if w.height != 140 {
		t.Fatalf("height = %d, want 140", w.height)
	}
	st := p.Stats()
	if st.Banned != 0 {
		t.Fatalf("silent donor must be demoted, not banned: %+v", st)
	}
	if p.isBanned(2) {
		t.Fatal("silent donor ended up banned")
	}
}

func TestPoolCorruptChunkBansDonor(t *testing.T) {
	w := newFakeWorld(100, 160, 4)
	w.donors[1].corrupt = true
	p := NewPool(testConfig())
	progressed, err := runSync(t, p, w)
	if err != nil || !progressed {
		t.Fatalf("sync: progressed=%v err=%v", progressed, err)
	}
	if !bytes.Equal(w.restored, w.state) {
		t.Fatal("restored state diverges from canonical state")
	}
	if w.height != 160 {
		t.Fatalf("height = %d, want 160", w.height)
	}
	st := p.Stats()
	if st.Banned != 1 || !p.isBanned(1) {
		t.Fatalf("corrupt donor not banned: %+v", st)
	}
	if st.Redos == 0 {
		t.Fatal("banned donor's work was never reassigned")
	}

	// The ban persists: a later round must not even ask donor 1.
	w.height = 150 // pretend we fell behind again (below donors' tip)
	w.reqEnvelope = map[int32]int{}
	if _, err := runSync(t, p, w); err != nil {
		t.Fatalf("second round: %v", err)
	}
	if w.reqEnvelope[1] != 0 {
		t.Fatal("banned donor was asked for an envelope in a later round")
	}
}

func TestPoolPrunedDonorStruckNotBanned(t *testing.T) {
	w := newFakeWorld(100, 120, 4)
	w.donors[0].pruned = true
	p := NewPool(testConfig())
	progressed, err := runSync(t, p, w)
	if err != nil || !progressed {
		t.Fatalf("sync: progressed=%v err=%v", progressed, err)
	}
	st := p.Stats()
	if st.Banned != 0 || p.isBanned(0) {
		t.Fatalf("pruned donor must not be banned: %+v", st)
	}
	if st.Redos == 0 {
		t.Fatal("empty chunk replies should count as redos")
	}
}

func TestPoolForgedEnvelopeNeverInstalled(t *testing.T) {
	// Every donor colludes on a forged envelope claiming a higher snapshot
	// over fabricated state. The chunk digests are self-consistent, so only
	// block verification can expose the forgery — InstallSnapshot must never
	// run on it.
	w := newFakeWorld(100, 160, 4)
	forgedState := make([]byte, 2048)
	forged := &Envelope{Snap: storage.BuildEnvelope(500, []byte("forged meta"), forgedState, 1024), Tip: 560}
	for _, d := range w.donors {
		d.forgedEnv = forged
		d.forgedState = forgedState
	}
	p := NewPool(testConfig())
	progressed, err := runSync(t, p, w)
	if err == nil {
		t.Fatal("sync accepted a forged envelope")
	}
	if progressed || w.installed != 0 {
		t.Fatalf("forged snapshot reached Restore: progressed=%v installs=%d", progressed, w.installed)
	}
}

func TestPoolNoSnapshotTailOnly(t *testing.T) {
	w := newFakeWorld(100, 160, 4)
	w.height = 130 // ahead of the snapshot: only blocks 131..160 needed
	p := NewPool(testConfig())
	progressed, err := runSync(t, p, w)
	if err != nil || !progressed {
		t.Fatalf("sync: progressed=%v err=%v", progressed, err)
	}
	if w.installed != 0 {
		t.Fatal("snapshot installed although local state was ahead of it")
	}
	if w.height != 160 || w.applied[0] != 131 {
		t.Fatalf("height=%d first applied=%d", w.height, w.applied[0])
	}
}

func TestPoolAlreadyCaughtUp(t *testing.T) {
	w := newFakeWorld(100, 160, 4)
	w.height = 160
	p := NewPool(testConfig())
	progressed, err := runSync(t, p, w)
	if err != nil || progressed {
		t.Fatalf("sync: progressed=%v err=%v, want no-op", progressed, err)
	}
}

// A lone donor offering a bare snapshot (no tail blocks to verify against)
// has nothing binding the claimed height to the committed chain: the pool
// must refuse it rather than trust one peer.
func TestSingleDonorSnapshotOnlyRefused(t *testing.T) {
	w := newFakeWorld(100, 100, 1) // tip == snapshot height: no tail
	w.blocks = nil
	w.env.Tip = 100

	_, err := runSync(t, NewPool(testConfig()), w)
	if err == nil || !strings.Contains(err.Error(), "unverifiable") {
		t.Fatalf("err = %v, want unverifiable-offer refusal", err)
	}
	if w.installed != 0 {
		t.Fatal("installed a snapshot nothing vouches for")
	}
}

// TestEnvelopeFingerprint: the fingerprint covers the snapshot's block hash,
// which only the metadata carries, and leaves out the donor's own Tip.
func TestEnvelopeFingerprint(t *testing.T) {
	state := bytes.Repeat([]byte{7}, 3000)
	offer := func(block string, tip int64) *Envelope {
		meta := crypto.HashBytes([]byte(block)) // core's meta holds the block hash
		return &Envelope{Snap: storage.BuildEnvelope(100, meta[:], state, 1024), Tip: tip}
	}
	if offer("a", 160).Fingerprint() == offer("b", 160).Fingerprint() {
		t.Fatal("offers of different block hashes share a fingerprint")
	}
	if offer("a", 160).Fingerprint() != offer("a", 200).Fingerprint() {
		t.Fatal("offers that differ only in Tip have different fingerprints")
	}
}
