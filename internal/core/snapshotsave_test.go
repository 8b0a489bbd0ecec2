package core

import (
	"path/filepath"
	"sync"
	"testing"
	"time"

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
			rep, err := decodeChunkRep(m.Payload)
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
