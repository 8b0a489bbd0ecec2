package core

import (
	"bytes"
	"context"
	"sync/atomic"
	"testing"
	"time"

	"smartchain/internal/blockchain"
	"smartchain/internal/catchup"
	"smartchain/internal/codec"
	"smartchain/internal/codec/codectest"
	"smartchain/internal/coin"
	"smartchain/internal/crypto"
	"smartchain/internal/smr"
	"smartchain/internal/transport"
)

// mintSpec fabricates a chain of minter-issued MINT transactions: the
// simplest traffic the coin application executes successfully, with one
// unique nonce per request.
func mintSpec(t *testing.T, minter *crypto.KeyPair, blocks, snapshotAt int64, txPerBlock int) *ChainSpec {
	t.Helper()
	return &ChainSpec{
		Blocks:     blocks,
		TxPerBlock: txPerBlock,
		SnapshotAt: snapshotAt,
		MakeRequests: func(block int64, clientID int64, firstSeq uint64) []smr.Request {
			reqs := make([]smr.Request, 0, txPerBlock)
			for i := 0; i < txPerBlock; i++ {
				seq := firstSeq + uint64(i)
				tx, err := coin.NewMint(minter, seq, 1)
				if err != nil {
					t.Fatalf("fabricate mint: %v", err)
				}
				reqs = append(reqs, smr.Request{
					ClientID: clientID,
					Seq:      seq,
					Op:       WrapAppOp(tx.Encode()),
					PubKey:   minter.Public(),
				})
			}
			return reqs
		},
	}
}

// withChunkBytes lowers the checkpoint chunk size for one test, so a small
// primed state spreads over several chunks and donors. Call it before the
// cluster starts: the cluster stops before the size is restored.
func withChunkBytes(t *testing.T, n int) {
	old := checkpointChunkBytes
	checkpointChunkBytes = n
	t.Cleanup(func() { checkpointChunkBytes = old })
}

func catchupCluster(t *testing.T, blocks, snapshotAt int64, mutate func(*ClusterConfig)) (*Cluster, *crypto.KeyPair) {
	t.Helper()
	minter := crypto.SeededKeyPair("catchup-minter", 0)
	cfg := ClusterConfig{
		N:                5,
		AppFactory:       func() Application { return coin.NewService([]crypto.PublicKey{minter.Public()}) },
		Persistence:      PersistenceStrong,
		Storage:          smr.StorageSync,
		Verify:           smr.VerifyParallel,
		Pipeline:         true,
		CheckpointPeriod: 0,
		MaxBatch:         64,
		Minters:          []crypto.PublicKey{minter.Public()},
		ConsensusTimeout: 250 * time.Millisecond,
		ChainID:          "catchup-test",
		Prime:            mintSpec(t, minter, blocks, snapshotAt, 4),
		Deferred:         []int32{4},
	}
	if mutate != nil {
		mutate(&cfg)
	}
	c, err := NewCluster(cfg)
	if err != nil {
		t.Fatalf("cluster: %v", err)
	}
	t.Cleanup(c.Stop)
	return c, minter
}

// syncUntil drives explicit catch-up rounds until the replica reaches
// height, failing the test on deadline.
func syncUntil(t *testing.T, n *Node, peers []int32, height int64, deadline time.Duration) {
	t.Helper()
	limit := time.Now().Add(deadline)
	for n.Ledger().Height() < height {
		if time.Now().After(limit) {
			t.Fatalf("catch-up stalled at height %d, want %d", n.Ledger().Height(), height)
		}
		if err := n.SyncFromPeers(peers, 10*time.Second); err != nil {
			t.Logf("sync round at height %d: %v", n.Ledger().Height(), err)
		}
	}
}

// TestClusterCatchupUnderDonorFaults is the tentpole fault gate: a fresh
// replica joins a 4-donor cluster holding a fabricated 300-block chain
// (snapshot at 240) while (a) one donor serves corrupt snapshot chunks,
// (b) two donors are partitioned away mid-transfer, and (c) a client keeps
// committing transactions throughout. The transfer must complete from the
// single surviving correct donor, the corrupt donor must be banned, client
// goodput must never drop to zero, and the synced replica's application
// state must be bit-identical to the donors'.
func TestClusterCatchupUnderDonorFaults(t *testing.T) {
	const blocks, snapAt = 300, 240
	withChunkBytes(t, 4096)
	c, minter := catchupCluster(t, blocks, snapAt, func(cfg *ClusterConfig) {
		cfg.CatchupPeerTimeout = 150 * time.Millisecond
	})

	// Donor 1 keeps its correct envelope (so it joins the quorum) but every
	// chunk it serves is corrupt.
	store := c.Nodes[1].Snapshots
	env, err := store.LoadEnvelope()
	if err != nil {
		t.Fatalf("donor 1 envelope: %v", err)
	}
	for i := 0; i < env.NumChunks(); i++ {
		data, err := store.ReadChunk(i)
		if err != nil {
			t.Fatalf("donor 1 chunk %d: %v", i, err)
		}
		data[0] ^= 0xff
		if err := store.WriteChunk(i, data); err != nil {
			t.Fatalf("corrupt donor 1 chunk %d: %v", i, err)
		}
	}

	// Donors 2 and 3 die mid-transfer: their first few replies reach the
	// joiner (they are counted into the envelope quorum and may serve some
	// early chunks), then the links go permanently dark.
	var fromDead atomic.Int32
	dark := c.Net.AddFilter(func(m transport.Message) bool {
		if (m.From == 2 || m.From == 3) && m.To == 4 {
			return fromDead.Add(1) > 6
		}
		return false
	})
	defer c.Net.RemoveFilter(dark)

	// Sustained client load for the whole transfer: the cluster must keep
	// serving while it donates state.
	p := registeredClient(t, c, minter)
	var goodput atomic.Int64
	stopLoad := make(chan struct{})
	loadDone := make(chan struct{})
	go func() {
		defer close(loadDone)
		for nonce := uint64(1 << 20); ; nonce++ {
			select {
			case <-stopLoad:
				return
			default:
			}
			tx, err := coin.NewMint(minter, nonce, 1)
			if err != nil {
				return
			}
			if _, err := p.Invoke(context.Background(), WrapAppOp(tx.Encode())); err == nil {
				goodput.Add(1)
			}
		}
	}()

	if err := c.StartDeferred(4, nil); err != nil {
		t.Fatalf("start deferred: %v", err)
	}
	n4 := c.Nodes[4].Node
	peers := []int32{0, 1, 2, 3}
	syncUntil(t, n4, peers, blocks, 60*time.Second)
	close(stopLoad)
	<-loadDone
	if goodput.Load() == 0 {
		t.Fatal("client goodput dropped to zero during the transfer")
	}

	// Quiesce: heal the dead links (with one donor banned and two dark, a
	// lone survivor can never re-form the f+1 envelope quorum — by design),
	// then catch the joiner up to the final load-extended tip before
	// comparing state.
	c.Net.RemoveFilter(dark)
	tip := c.Nodes[0].Node.Ledger().Height()
	syncUntil(t, n4, peers, tip, 60*time.Second)

	st := n4.Stats().Catchup
	if st.Banned < 1 {
		t.Fatalf("corrupt donor was never banned: %+v", st)
	}
	if st.Installs < 1 || st.ChunksFetched < 1 || st.BlocksFetched < 1 {
		t.Fatalf("transfer did not use the chunk+range path: %+v", st)
	}
	if st.Redos < 1 {
		t.Fatalf("no work was ever reassigned despite dead and corrupt donors: %+v", st)
	}
	if got, want := c.Nodes[4].App.Snapshot(), c.Nodes[0].App.Snapshot(); !bytes.Equal(got, want) {
		t.Fatalf("synced application state diverges from donor state (%d vs %d bytes)", len(got), len(want))
	}
}

// TestClusterCatchupMultiDonorSpread: with healthy donors the pool must
// actually spread accepted payloads across multiple peers — the whole point
// of collaborative transfer.
func TestClusterCatchupMultiDonorSpread(t *testing.T) {
	const blocks, snapAt = 200, 160
	withChunkBytes(t, 2048)
	c, _ := catchupCluster(t, blocks, snapAt, nil)
	if err := c.StartDeferred(4, nil); err != nil {
		t.Fatalf("start deferred: %v", err)
	}
	n4 := c.Nodes[4].Node
	syncUntil(t, n4, []int32{0, 1, 2, 3}, blocks, 60*time.Second)

	st := n4.Stats().Catchup
	if st.PeersUsed < 2 {
		t.Fatalf("pool used %d donors, want the work spread: %+v", st.PeersUsed, st)
	}
	if got, want := c.Nodes[4].App.Snapshot(), c.Nodes[0].App.Snapshot(); !bytes.Equal(got, want) {
		t.Fatalf("synced application state diverges (%d vs %d bytes)", len(got), len(want))
	}
}

// TestRetiredStateTransferFramesDropped: frames of the retired single-donor
// state-transfer types (220 request, 221 reply; the numbers stay reserved)
// reach a running replica from a client and from a fellow member. They
// must be dropped: no reply, no catch-up activity, no state change, and
// ordering carries on.
func TestRetiredStateTransferFramesDropped(t *testing.T) {
	c, minter := testCluster(t, 4, nil)
	p := registeredClient(t, c, minter)
	mint(t, p, 1, 100)
	if err := c.WaitHeight(1, 5*time.Second); err != nil {
		t.Fatalf("height: %v", err)
	}
	before := c.Nodes[0].Node.Stats()

	oldReq := make([]byte, 8) // the retired request body: HaveBlock int64
	outsider := c.ClientEndpoint()
	defer outsider.Close()
	if err := c.Crash(3); err != nil { // free replica 3's address (f = 1 allows it)
		t.Fatalf("crash: %v", err)
	}
	member := c.Net.Endpoint(3) // speaks to replica 0 as its peer 3
	defer member.Close()
	for _, typ := range []uint16{220, 221} {
		for _, payload := range [][]byte{oldReq, nil, bytes.Repeat([]byte{0xff}, 64)} {
			if err := outsider.Send(0, typ, payload); err != nil {
				t.Fatalf("send type %d: %v", typ, err)
			}
			if err := member.Send(0, typ, payload); err != nil {
				t.Fatalf("send type %d as member: %v", typ, err)
			}
		}
	}
	select {
	case m := <-outsider.Receive():
		t.Fatalf("replica answered a retired frame with type %d", m.Type)
	case <-time.After(300 * time.Millisecond):
	}

	mint(t, p, 2, 50) // the dispatch loop survived and ordering carries on
	after := c.Nodes[0].Node.Stats()
	if after.StateTransfers != before.StateTransfers || after.Catchup != before.Catchup ||
		after.ViewChanges != before.ViewChanges || after.EpochChanges != before.EpochChanges {
		t.Fatalf("retired frames changed replica state: before %+v after %+v", before, after)
	}
}

// FuzzDecodeCatchupWire covers the four catch-up frames of the chunk and
// range paths (the envelope reply is catchup.FuzzDecodeEnvelope's): the two
// requests the donor side reads off any sender, and the two replies the
// dispatch goroutine decodes for the ordering driver. Each under the contract
// of codectest.
func FuzzDecodeCatchupWire(f *testing.F) {
	blocks := make([]blockchain.Block, 3)
	for i := range blocks {
		batch := testBatch(7, uint64(4*i+1), 4)
		blocks[i] = blockchain.Block{
			Header: blockchain.Header{Number: int64(i + 1), LastReconfig: 0, TxRoot: blockchain.TxRootOf(&batch)},
			Body: blockchain.Body{Kind: blockchain.KindTransactions, ConsensusID: int64(i + 1), BatchData: batch.Encode(),
				Results: [][]byte{{1}, {1}, {1}, {1}}},
		}
	}
	f.Add((&chunkReq{Height: 240, Index: 3}).encode())
	f.Add((&rangeReq{From: 241, To: 304}).encode())
	f.Add((&catchup.Response{Kind: catchup.KindChunk, Height: 240, Index: 3, Data: bytes.Repeat([]byte{7}, 300)}).Encode())
	f.Add((&catchup.Response{Kind: catchup.KindRange, From: 1, Blocks: blocks}).Encode())
	f.Add((&catchup.Response{Kind: catchup.KindRange, From: 1}).Encode())
	// 2^20 blocks declared, none carried; and one block whose body declares
	// 2^20 results and carries none (24 MiB to a loop that reads on past the
	// end of its input — what this target found in blockchain's body decoder).
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 1, 0, 16, 0, 0})
	bomb := blocks[0]
	bomb.Body.Results = nil
	body := bomb.Body.Encode()
	body = append(body[:len(body)-5], 0, 16, 0, 0) // the result count, then nothing
	blk := codec.NewEncoder(256)
	blk.Raw(bomb.Header.Encode())
	blk.WriteBytes(body)
	bomb.Cert.EncodeInto(blk)
	rep := codec.NewEncoder(256)
	rep.Int64(1)
	rep.Uint32(1)
	rep.WriteBytes(blk.Bytes())
	f.Add(rep.Bytes())
	rows := []codectest.Row{
		codectest.Of("decodeChunkReq", decodeChunkReq, (*chunkReq).encode),
		codectest.Of("decodeRangeReq", decodeRangeReq, (*rangeReq).encode),
		codectest.Of("DecodeResponse(KindChunk)", replyDecoder(catchup.KindChunk), (*catchup.Response).Encode),
		codectest.Of("DecodeResponse(KindRange)", replyDecoder(catchup.KindRange), (*catchup.Response).Encode),
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, row := range rows {
			row.Check(t, data)
		}
	})
}

// replyDecoder is catchup.DecodeResponse for replies of one kind.
func replyDecoder(kind catchup.Kind) func([]byte) (catchup.Response, error) {
	return func(data []byte) (catchup.Response, error) { return catchup.DecodeResponse(kind, data) }
}
