package main

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"smartchain/internal/blockchain"
	"smartchain/internal/coin"
	"smartchain/internal/consensus"
	"smartchain/internal/core"
	"smartchain/internal/crypto"
	"smartchain/internal/smr"
	"smartchain/internal/storage"
	"smartchain/internal/transport"
	"smartchain/internal/view"
)

// Probes time one layer's public functions in isolation, on input made from
// the seed. They say what a layer costs when nothing else contends for the
// cores, which is the number to hold an end-to-end change against.

const (
	probeItems   = 256
	probeItemLen = 300
	probeRepeats = 5
)

// medianOf runs fn probeRepeats times and returns the median of what it
// measured.
func medianOf(fn func() float64) float64 {
	vals := make([]float64, probeRepeats)
	for i := range vals {
		vals[i] = fn()
	}
	return median(vals)
}

// runProbes runs every probe. scale (0 < scale ≤ 1) shrinks the long ones in
// step with a shortened run, so a one-second miniature stays short.
func runProbes(res *runResult, d *deployment, seed int64, scale float64) error {
	rng := rand.New(rand.NewSource(seed))
	probeCrypto(res, rng)
	if err := probeSMR(res, rng); err != nil {
		return err
	}
	probeLedger(res, rng)
	probeSnapshotSave(res, d)
	for _, probe := range []func(*runResult, int64, float64) error{probeTCP, probeConsensus, probeSingleNode, probeJoin} {
		if err := probe(res, seed, scale); err != nil {
			return err
		}
	}
	return nil
}

// scaled shrinks a probe's size, keeping at least min.
func scaled(n int, scale float64, min int) int {
	if m := int(float64(n) * scale); m > min {
		return m
	}
	return min
}

func randomItems(rng *rand.Rand) [][]byte {
	items := make([][]byte, probeItems)
	for i := range items {
		items[i] = make([]byte, probeItemLen)
		rng.Read(items[i])
	}
	return items
}

func probeCrypto(res *runResult, rng *rand.Rand) {
	const ctx = "bench/probe"
	key := crypto.KeyPairFromSeed(randomItems(rng)[0])
	items := randomItems(rng)
	sigs := make([][]byte, len(items))
	res.set("crypto.sign_us", medianOf(func() float64 {
		t0 := time.Now()
		for i, m := range items {
			sigs[i] = key.MustSign(ctx, m)
		}
		return us(time.Since(t0)) / probeItems
	}), "us", probeItems)
	res.set("crypto.verify_us", medianOf(func() float64 {
		t0 := time.Now()
		for i, m := range items {
			if !crypto.Verify(key.Public(), ctx, m, sigs[i]) {
				return -1
			}
		}
		return us(time.Since(t0)) / probeItems
	}), "us", probeItems)
	res.set("crypto.batch_verify_us_per_sig", medianOf(func() float64 {
		bv := crypto.NewBatchVerifier(probeItems)
		for i, m := range items {
			bv.Add(key.Public(), ctx, m, sigs[i])
		}
		t0 := time.Now()
		if !bv.Verify(0) {
			return -1
		}
		return us(time.Since(t0)) / probeItems
	}), "us", probeItems)
}

func probeSMR(res *runResult, rng *rand.Rand) error {
	key := crypto.KeyPairFromSeed(randomItems(rng)[0])
	items := randomItems(rng)
	reqs := make([]smr.Request, len(items))
	for i, m := range items {
		var err error
		if reqs[i], err = smr.NewSignedRequest(7, uint64(i+1), m, key); err != nil {
			return fmt.Errorf("smr probe: %w", err)
		}
	}
	pool := smr.NewVerifierPool(smr.VerifyParallel, 0)
	defer pool.Close()
	res.set("smr.verify_batch_us_per_req", medianOf(func() float64 {
		t0 := time.Now()
		for _, ok := range pool.VerifyBatch(reqs) {
			if !ok {
				return -1
			}
		}
		return us(time.Since(t0)) / probeItems
	}), "us", probeItems)

	b := smr.NewBatcher(512)
	defer b.Close()
	cycle := int64(0)
	res.set("smr.batcher_cycle_us_per_req", medianOf(func() float64 {
		cycle++
		t0 := time.Now()
		for i := range reqs {
			r := reqs[i]
			r.Seq = uint64(cycle)*probeItems + uint64(i)
			b.Add(r)
		}
		batch, _ := b.TryNext()
		b.MarkDeliveredAt(cycle, batch.Requests)
		return us(time.Since(t0)) / probeItems
	}), "us", probeItems)
	return nil
}

func probeLedger(res *runResult, rng *rand.Rand) {
	const blocks, opsPerBlock = 100, 64
	genesis := blockchain.Genesis{ChainID: "bench-probe", MaxBatchSize: 512,
		Replicas: []blockchain.ReplicaInfo{{ID: 0, PermanentPub: crypto.SeededKeyPair("bench-probe/perm", 0).Public(),
			ConsensusPub: crypto.SeededKeyPair("bench-probe/cons", 0).Public()}}}
	items := randomItems(rng)
	batch := smr.Batch{Timestamp: 1}
	results := make([][]byte, opsPerBlock)
	for i := 0; i < opsPerBlock; i++ {
		batch.Requests = append(batch.Requests, smr.Request{ClientID: 7, Seq: uint64(i + 1), Op: items[i]})
		results[i] = []byte{coin.ResultOK}
	}
	data := batch.Encode()
	res.set("blockchain.build_commit_us_per_block", medianOf(func() float64 {
		ledger := blockchain.NewLedger(genesis)
		t0 := time.Now()
		for n := int64(1); n <= blocks; n++ {
			blk, err := ledger.BuildBlock(blockchain.KindTransactions, n, 0, data, crypto.Certificate{}, results, nil)
			if err != nil || ledger.Commit(&blk) != nil {
				return -1
			}
			_ = blockchain.EncodeBlockRecord(&blk)
		}
		return us(time.Since(t0)) / blocks
	}), "us", blocks)
}

// probeSnapshotSave times storing the workload's end state as a checkpoint
// on an HDD-profile device: the part of a checkpoint stall that is not the
// application's own Snapshot call.
func probeSnapshotSave(res *runResult, d *deployment) {
	state := d.cluster.Nodes[d.ref].App.Snapshot()
	res.set("storage.snapshot_save_ms", medianOf(func() float64 {
		store := storage.NewMemSnapshotStore(storage.HDDProfile())
		t0 := time.Now()
		if err := storage.SaveSnapshot(store, 1, []byte("meta"), state, 0); err != nil {
			return -1
		}
		return ms(time.Since(t0))
	}), "ms", len(state))
}

// probeTCP measures the real wire alone: a 1 KiB ping-pong and a one-way
// flood of 512 B frames between two loopback TCPNetworks.
func probeTCP(res *runResult, seed int64, scale float64) error {
	secret := []byte(fmt.Sprintf("bench-probe-%d", seed))
	a, err := transport.NewTCPNetwork(0, "127.0.0.1:0", secret, nil)
	if err != nil {
		return fmt.Errorf("tcp probe: %w", err)
	}
	defer a.Close()
	b, err := transport.NewTCPNetwork(1, "127.0.0.1:0", secret, map[int32]string{0: a.Addr()})
	if err != nil {
		return fmt.Errorf("tcp probe: %w", err)
	}
	defer b.Close()
	a.AddPeer(1, b.Addr())

	pings, flood := scaled(400, scale, 50), scaled(20000, scale, 1000)
	echoDone := make(chan struct{})
	go func() {
		defer close(echoDone)
		for i := 0; i < pings; i++ {
			m, ok := <-b.Receive()
			if !ok || b.Send(0, 1, m.Payload) != nil {
				return
			}
		}
	}()
	ping := make([]byte, 1024)
	rtts := make([]float64, 0, pings)
	for i := 0; i < pings; i++ {
		t0 := time.Now()
		if err := a.Send(1, 1, ping); err != nil {
			return fmt.Errorf("tcp probe: ping: %w", err)
		}
		select {
		case <-a.Receive():
		case <-time.After(5 * time.Second):
			return fmt.Errorf("tcp probe: ping %d unanswered", i)
		}
		rtts = append(rtts, us(time.Since(t0)))
	}
	<-echoDone
	res.set("transport.tcp_rtt_us_p50", percentile(rtts[pings/10:], 50), "us", pings-pings/10)

	// The default queue policy evicts the oldest frame when the queue is
	// full, so the flood keeps fewer frames in flight than the queue holds.
	frame := make([]byte, 512)
	received := make(chan time.Time, 1)
	go func() {
		for i := 0; i < flood; i++ {
			if _, ok := <-b.Receive(); !ok {
				return
			}
		}
		received <- time.Now()
	}()
	t0 := time.Now()
	for i := 0; i < flood; i++ {
		for i%512 == 0 {
			st := a.Stats().Peers[1]
			if st.Enqueued-st.Sent < 2048 {
				break
			}
			time.Sleep(50 * time.Microsecond)
		}
		if err := a.Send(1, 2, frame); err != nil {
			return fmt.Errorf("tcp probe: flood: %w", err)
		}
	}
	select {
	case end := <-received:
		res.set("transport.tcp_frames_per_s", float64(flood)/end.Sub(t0).Seconds(), "1/s", flood)
	case <-time.After(10 * time.Second):
		return fmt.Errorf("tcp probe: flood lost frames (%+v)", a.Stats().Peers[1])
	}
	return nil
}

// probeConsensus runs four engines over a zero-delay in-memory network on a
// 4 KiB value: the latency of one instance with a single slot open, and the
// decision rate with eight.
func probeConsensus(res *runResult, seed int64, scale float64) error {
	const n, depth = 4, 8
	sequential, windowed := scaled(150, scale, 20), scaled(400, scale, 40)
	net := transport.NewMemNetwork()
	members := make([]int32, n)
	keys := make([]*crypto.KeyPair, n)
	pubs := make(map[int32]crypto.PublicKey, n)
	for i := range members {
		members[i] = int32(i)
		keys[i] = crypto.SeededKeyPair(fmt.Sprintf("bench-probe-%d/cons", seed), int64(i))
		pubs[int32(i)] = keys[i].Public()
	}
	v := view.New(0, members, pubs)
	engines := make([]*consensus.Engine, n)
	var pumps sync.WaitGroup // ends once every endpoint is closed and every engine stopped
	defer pumps.Wait()
	var refused atomic.Int64
	for i := range engines {
		ep := net.Endpoint(int32(i))
		eng := consensus.New(consensus.Config{
			Self: int32(i), View: v, Signer: keys[i], Timeout: 5 * time.Second,
			Send: func(to int32, typ uint16, p []byte) {
				if ep.Send(to, typ, p) != nil {
					refused.Add(1)
				}
			},
		})
		engines[i] = eng
		eng.Start()
		eng.AdvanceTo(1)
		pumps.Add(1)
		go func() {
			defer pumps.Done()
			for m := range ep.Receive() {
				eng.HandleMessage(m)
			}
		}()
		defer ep.Close() //nolint:errcheck
		defer eng.Stop()
	}
	leader := int(v.Leader(0))
	value := make([]byte, 4096)
	rand.New(rand.NewSource(seed)).Read(value)
	start := func(inst int64) {
		for i, eng := range engines {
			if i == leader {
				eng.StartInstance(inst, value)
			} else {
				eng.StartInstance(inst, nil)
			}
		}
	}
	// Followers' decisions are drained so their engines never block.
	for i, eng := range engines {
		if i != leader {
			pumps.Add(1)
			go func() {
				defer pumps.Done()
				for range eng.Decisions() {
				}
			}()
		}
	}
	await := func() error {
		select {
		case _, ok := <-engines[leader].Decisions():
			if ok {
				return nil
			}
		case <-time.After(5 * time.Second):
		}
		return fmt.Errorf("consensus probe: no decision within 5 s")
	}

	next := int64(1)
	lat := make([]float64, 0, sequential)
	for i := 0; i < sequential; i++ {
		t0 := time.Now()
		start(next)
		next++
		if err := await(); err != nil {
			return err
		}
		lat = append(lat, us(time.Since(t0)))
	}
	res.set("consensus.decide_us_p50", percentile(lat, 50), "us", len(lat))

	t0 := time.Now()
	for i := 0; i < depth; i++ {
		start(next)
		next++
	}
	for i := 0; i < windowed; i++ {
		if err := await(); err != nil {
			return err
		}
		if i+depth < windowed {
			start(next)
			next++
		}
	}
	res.set("consensus.decide_per_s_w8", float64(windowed)/time.Since(t0).Seconds(), "1/s", windowed)
	if n := refused.Load(); n > 0 {
		return fmt.Errorf("consensus probe: the in-memory network refused %d sends", n)
	}
	return nil
}

// probeSingleNode is the single-node baseline: the strong_disk deployment
// with one replica, so there is no wire and every quorum is the node itself.
// What the four-replica run loses against it is the cost of replication.
// Two things differ from strong_disk because a lone node at this commit does
// not survive them (README.md, "Findings"): checkpoints are off, since the
// node stops committing after its first one, and an op gets two seconds, not
// ten, since now and then a reply never reaches the client; such an op is
// left out of the two numbers.
func probeSingleNode(res *runResult, seed int64, scale float64) error {
	strong, err := findWorkload("strong_disk")
	if err != nil {
		return err
	}
	w := *strong
	w.ckptPeriod = 0
	d, err := deploy(&w, seed, 1, hooks{})
	if err != nil {
		return err
	}
	defer d.stop()
	window := time.Duration(scale * float64(2*time.Second))
	warm := window / 4
	sat := &phase{d: d, length: warm + window, opTimeout: 2 * time.Second}
	n := 0
	for _, s := range sat.run() {
		if s.ok && s.done >= warm && s.done < warm+window {
			n++
		}
	}
	rate := &phase{d: d, length: warm + window, rate: w.rate, opTimeout: 2 * time.Second}
	var lat []float64
	for _, s := range rate.run() {
		if s.ok && s.due >= warm {
			lat = append(lat, ms(s.latency()))
		}
	}
	if sat.genErr != nil || rate.genErr != nil {
		return fmt.Errorf("single-node probe: %v %v", sat.genErr, rate.genErr)
	}
	res.set("core.n1_tps_sat", float64(n)/window.Seconds(), "ops/s", n)
	res.set("core.n1_lat_p50_ms", percentile(lat, 50), "ms", len(lat))
	return nil
}

// probeJoin times bulk state transfer: a fresh fifth replica syncs a
// fabricated chain (snapshot at 80 %) from four donors over 16 MB/s links
// through the catch-up pool.
func probeJoin(res *runResult, seed int64, scale float64) error {
	const txPerBlock = 8
	blocks := int64(scaled(3000, scale, 200))
	label := fmt.Sprintf("bench-join-%d", seed)
	minter := crypto.SeededKeyPair(label+"/minter", 0)
	cluster, err := core.NewCluster(core.ClusterConfig{
		N:           5,
		AppFactory:  func() core.Application { return coin.NewService([]crypto.PublicKey{minter.Public()}) },
		Persistence: core.PersistenceWeak, Storage: smr.StorageMemory, Verify: smr.VerifyNone,
		Pipeline: true, MaxBatch: 64, Minters: []crypto.PublicKey{minter.Public()},
		ConsensusTimeout: time.Second, NetBandwidth: 16 << 20, ChainID: label,
		Deferred: []int32{4}, CatchupPeerTimeout: 2 * time.Second,
		Prime: &core.ChainSpec{
			Blocks: blocks, TxPerBlock: txPerBlock, SnapshotAt: blocks * 4 / 5,
			// Unsigned mints: replay trusts the decision proofs, not the
			// request signatures, which keeps fabrication cheap.
			MakeRequests: func(block int64, clientID int64, firstSeq uint64) []smr.Request {
				reqs := make([]smr.Request, txPerBlock)
				for i := range reqs {
					seq := firstSeq + uint64(i)
					tx := coin.Tx{Type: coin.TxMint, Issuer: minter.Public(), Nonce: seq,
						Outputs: []coin.Output{{Owner: minter.Public(), Value: 1}}}
					reqs[i] = smr.Request{ClientID: clientID, Seq: seq, Op: core.WrapAppOp(tx.Encode()), PubKey: minter.Public()}
				}
				return reqs
			},
		},
	})
	if err != nil {
		return fmt.Errorf("join probe: %w", err)
	}
	defer cluster.Stop()
	if err := cluster.StartDeferred(4, nil); err != nil {
		return fmt.Errorf("join probe: %w", err)
	}
	joiner := cluster.Nodes[4].Node
	t0 := time.Now()
	var lastErr error // a round can fail transiently; the loop retries until the deadline
	for joiner.Ledger().Height() < blocks {
		if time.Since(t0) > 60*time.Second {
			return fmt.Errorf("join probe: stalled at height %d of %d (last round: %v)", joiner.Ledger().Height(), blocks, lastErr)
		}
		lastErr = joiner.SyncFromPeers([]int32{0, 1, 2, 3}, 30*time.Second)
	}
	res.set("catchup.join_ms", ms(time.Since(t0)), "ms", int(blocks))
	return nil
}
