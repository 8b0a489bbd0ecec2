package core

import (
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"smartchain/internal/catchup"
	"smartchain/internal/storage"
)

// gatedStore is a file-backed snapshot store whose first chunk write waits
// for the test: the state of a donor in the middle of a checkpoint, with
// the new envelope published over a zero-extended file.
type gatedStore struct {
	*storage.FileSnapshotStore
	reach, open sync.Once
	reached     chan struct{} // closed when the first WriteChunk is entered
	release     chan struct{} // closed to let it (and every later one) through
}

func (g *gatedStore) WriteChunk(i int, data []byte) error {
	g.reach.Do(func() { close(g.reached) })
	<-g.release
	return g.FileSnapshotStore.WriteChunk(i, data)
}

// TestDonorMidCheckpointServesNoUnwrittenChunk: a snapshot save is one step
// to the donor side. While a replica's StoreEnvelope has returned and its
// chunk 0 is still unwritten, a chunk request for the new snapshot must not
// be answered with the file's zero bytes — the receiver would ban an honest
// donor for good. It waits out the save and serves the real chunk.
func TestDonorMidCheckpointServesNoUnwrittenChunk(t *testing.T) {
	c, minter := testCluster(t, 4, func(cfg *ClusterConfig) {
		cfg.CheckpointPeriod = 2
	})
	gate := &gatedStore{
		FileSnapshotStore: storage.NewFileSnapshotStore(filepath.Join(t.TempDir(), "snapshot")),
		reached:           make(chan struct{}),
		release:           make(chan struct{}),
	}
	defer gate.open.Do(func() { close(gate.release) })
	if err := c.Crash(3); err != nil {
		t.Fatalf("crash: %v", err)
	}
	c.Nodes[3].Snapshots = gate
	if err := c.Recover(3); err != nil {
		t.Fatalf("recover: %v", err)
	}

	// The other three replicas are a quorum: the client is served while
	// replica 3 sits in its first checkpoint.
	p := registeredClient(t, c, minter)
	mint(t, p, 1, 1)
	mint(t, p, 2, 1)
	select {
	case <-gate.reached:
	case <-time.After(10 * time.Second):
		t.Fatal("replica 3 never began a checkpoint")
	}
	env, err := gate.LoadEnvelope()
	if err != nil {
		t.Fatalf("envelope of the save under way: %v", err)
	}

	asker := c.ClientEndpoint()
	defer asker.Close()
	req := chunkReq{Height: env.LastBlock, Index: 0}
	if err := asker.Send(3, MsgChunkReq, req.encode()); err != nil {
		t.Fatalf("send chunk request: %v", err)
	}
	served := func(wait time.Duration) bool {
		t.Helper()
		select {
		case m := <-asker.Receive():
			rep, err := catchup.DecodeResponse(catchup.KindChunk, m.Payload)
			if err != nil || m.Type != MsgChunkRep {
				t.Fatalf("reply type %d: %v", m.Type, err)
			}
			if !env.VerifyChunk(0, rep.Data) {
				t.Fatalf("donor served %d bytes for chunk 0 that fail the envelope digest", len(rep.Data))
			}
			return true
		case <-time.After(wait):
			return false
		}
	}
	// Long enough for a donor that does not wait to have answered.
	if served(200 * time.Millisecond) {
		t.Fatal("chunk 0 served before it was written")
	}
	gate.open.Do(func() { close(gate.release) })
	if !served(10 * time.Second) {
		t.Fatal("no reply after the save completed")
	}
}

// heldStore is a snapshot store whose chunk reads, once armed, wait for the
// test: a donor in the middle of serving a chunk.
type heldStore struct {
	storage.SnapshotStore
	armed   atomic.Bool
	reached chan struct{} // receives when an armed ReadChunk is entered
	release chan struct{} // closed to let it through
}

func (h *heldStore) ReadChunk(i int) ([]byte, error) {
	if h.armed.Load() {
		h.reached <- struct{}{}
		<-h.release
	}
	return h.SnapshotStore.ReadChunk(i)
}

// TestStopWaitsForDonorSideReads: catchupServer is one of the node's loops.
// Stop — and Cluster.Crash, which discards the unsynced log right after it —
// must not return while a donor-side serveChunk is still reading the
// snapshot store and about to send.
func TestStopWaitsForDonorSideReads(t *testing.T) {
	c, minter := testCluster(t, 4, func(cfg *ClusterConfig) {
		cfg.CheckpointPeriod = 2
	})
	held := &heldStore{SnapshotStore: c.Nodes[3].Snapshots, reached: make(chan struct{}, 1), release: make(chan struct{})}
	var open sync.Once
	defer open.Do(func() { close(held.release) })
	if err := c.Crash(3); err != nil {
		t.Fatalf("crash: %v", err)
	}
	c.Nodes[3].Snapshots = held
	if err := c.Recover(3); err != nil {
		t.Fatalf("recover: %v", err)
	}
	p := registeredClient(t, c, minter)
	mint(t, p, 1, 1)
	mint(t, p, 2, 1)
	if err := c.WaitHeight(2, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	var env storage.SnapEnvelope
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		var err error
		if env, err = held.LoadEnvelope(); err == nil && env.LastBlock >= 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("replica 3 wrote no checkpoint: %v", err)
		}
	}

	// The load is over: nothing but the chunk request is in flight on replica 3.
	held.armed.Store(true)
	asker := c.ClientEndpoint()
	defer asker.Close()
	req := chunkReq{Height: env.LastBlock, Index: 0}
	if err := asker.Send(3, MsgChunkReq, req.encode()); err != nil {
		t.Fatalf("send chunk request: %v", err)
	}
	select {
	case <-held.reached:
	case <-time.After(10 * time.Second):
		t.Fatal("the donor never read the chunk")
	}
	stopped := make(chan struct{})
	go func() {
		c.Nodes[3].Node.Stop()
		close(stopped)
	}()
	select {
	case <-stopped:
		t.Fatal("Stop returned while serveChunk was still reading the snapshot store")
	case <-time.After(200 * time.Millisecond): // long enough for a Stop that does not wait
	}
	open.Do(func() { close(held.release) })
	select {
	case <-stopped:
	case <-time.After(10 * time.Second):
		t.Fatal("Stop did not return after the read was released")
	}
}
