package core

import (
	"context"
	"encoding/binary"
	"fmt"
	"testing"
	"time"

	"smartchain/internal/blockchain"
	"smartchain/internal/coin"
	"smartchain/internal/consensus"
	"smartchain/internal/crypto"
	"smartchain/internal/smr"
	"smartchain/internal/storage"
	"smartchain/internal/transport"
	"smartchain/internal/view"
)

// sendLog is a transport endpoint that only records what is sent: the
// driver rig runs in the test goroutine and delivers by hand.
type sendLog struct {
	id   int32
	sent []transport.Message
}

func (e *sendLog) ID() int32 { return e.id }
func (e *sendLog) Send(to int32, typ uint16, payload []byte) error {
	e.sent = append(e.sent, transport.Message{From: e.id, To: to, Type: typ, Payload: payload})
	return nil
}
func (e *sendLog) Receive() <-chan transport.Message { return nil }
func (e *sendLog) Close() error                      { return nil }

// driverRig is one un-started replica of a four-member view whose ordering
// driver the test steps through its plain methods — no goroutine of its
// own, and a virtual clock: every method is handed the rig's now — and the
// other three members as bare consensus machines that talk to each other in
// the test goroutine and to the replica only when the test hands it what
// they sent. The replica has the logger and the commit tail Start would
// build; the test tends the tail.
type driverRig struct {
	n      *Node
	ep     *sendLog
	now    time.Time
	view   view.View
	peers  map[int32]*consensus.Machine
	flight []transport.Message
	toNode []transport.Message // what the peers sent the replica, in order
	// For run: the replica's sends already routed, the highest instance the
	// peers started, and the peers cut off (nothing reaches or leaves them).
	routed  int
	started int64
	down    map[int32]bool
}

func newDriverRig(t *testing.T, self int32, timeout time.Duration, pipeline bool, verify smr.VerifyMode) *driverRig {
	t.Helper()
	var replicas []blockchain.ReplicaInfo
	perms, cons := map[int32]*crypto.KeyPair{}, map[int32]*crypto.KeyPair{}
	for id := int32(0); id < 4; id++ {
		perms[id], cons[id] = crypto.SeededKeyPair("driver-rig/perm", int64(id)), crypto.SeededKeyPair("driver-rig/cons", int64(id))
		replicas = append(replicas, blockchain.ReplicaInfo{ID: id, PermanentPub: perms[id].Public(), ConsensusPub: cons[id].Public()})
	}
	r := &driverRig{ep: &sendLog{id: self}, now: time.Unix(1_000_000, 0), peers: map[int32]*consensus.Machine{}}
	n, err := NewNode(Config{
		Self: self, Genesis: blockchain.Genesis{ChainID: "driver-rig", MaxBatchSize: 8, Replicas: replicas},
		Permanent: perms[self], InitialConsensusKey: cons[self], Transport: r.ep,
		App: coin.NewService(nil), Storage: smr.StorageMemory, Pipeline: pipeline, ConsensusTimeout: timeout,
		Verify: verify, // VerifyNone when the peers propose unsigned requests
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := n.build(smr.NewDurableLogger(n.cfg.Log, n.cfg.Storage)); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(n.Stop)
	r.n, r.view = n, n.View()
	for id := range cons {
		if id == self {
			continue
		}
		from := id
		r.peers[id] = consensus.NewMachine(consensus.Config{Self: id, View: r.view, Signer: cons[id], Timeout: time.Minute,
			Send: func(to int32, typ uint16, p []byte) {
				r.flight = append(r.flight, transport.Message{From: from, To: to, Type: typ, Payload: p})
			}})
	}
	n.beginOrdering(r.now)
	// Offsets from the rig's instant: a method that read the wall clock would
	// put them decades off.
	if got, want := n.w.nextDeadline(), r.now.Add(max(4*timeout, 2*time.Second)); !got.Equal(want) {
		t.Fatalf("resync instant %v, want %v", got, want)
	}
	if got, want := n.cons.NextDeadline(), r.now.Add(timeout); !got.Equal(want) {
		t.Fatalf("first slot deadline %v, want %v", got, want)
	}
	return r
}

// settlePeers delivers what the peers send each other until nothing is in
// flight, keeping what they send the replica.
func (r *driverRig) settlePeers() {
	for len(r.flight) > 0 {
		m := r.flight[0]
		r.flight = r.flight[1:]
		if r.down[m.From] || r.down[m.To] {
			continue
		}
		if m.To == r.n.cfg.Self {
			r.toNode = append(r.toNode, m)
			continue
		}
		consensus.PreVerify(m, r.view, nil, nil, func(in consensus.Input) { r.peers[m.To].Message(r.now, in) })
	}
}

// queue puts the peers' messages to the replica of type typ in its inbox —
// as dispatch does, minus the verification pool, so they are there on
// return — and reports how many.
func (r *driverRig) queue(typ uint16) int {
	queued := 0
	for _, m := range r.toNode {
		if m.Type == typ {
			consensus.PreVerify(m, r.view, nil, nil, func(in consensus.Input) { r.n.postMessage(r.view.ID, in) })
			queued++
		}
	}
	return queued
}

// The inbox-before-tick rule. Executing a block, a checkpoint or a catch-up
// apply can hold the driver past a slot's progress deadline; the votes that
// arrived meanwhile wait in the inbox, and
// when the timer fires they are stepped before the tick: the slot decides
// and nothing campaigns. Stepping the tick first finds slot 1 due with a
// proposal and broadcasts an EPOCH-STOP against a healthy leader.
func TestDriverStepsQueuedVotesBeforeTick(t *testing.T) {
	r := newDriverRig(t, 1, time.Nanosecond, true, smr.VerifyNone) // every deadline is due by the next step
	r.peers[0].Start(r.now, 1, []byte{})                           // the leader proposes an empty batch
	r.peers[2].Start(r.now, 1, nil)
	r.peers[3].Start(r.now, 1, nil)
	r.settlePeers()

	if r.queue(consensus.MsgPropose) != 1 {
		t.Fatalf("the leader sent the replica no proposal: %v", r.toNode)
	}
	r.n.onInput(r.now, <-r.n.inbox) // adopted: the replica votes WRITE
	if w, a := r.queue(consensus.MsgWrite), r.queue(consensus.MsgAccept); w != 3 || a != 3 {
		t.Fatalf("%d WRITEs and %d ACCEPTs queued, want the three peers' each", w, a)
	}
	if r.n.nextInstance.Load() != 1 {
		t.Fatal("slot 1 decided before the timer fired")
	}

	r.now = r.now.Add(time.Millisecond)
	r.n.onTimer(r.now)
	for _, m := range r.ep.sent {
		if m.Type == consensus.MsgEpochStop {
			t.Fatal("an EPOCH-STOP left the replica: the tick was stepped before the queued votes")
		}
	}
	if got := r.n.nextInstance.Load(); got != 2 {
		t.Fatalf("commit floor %d after the timer fired, want 2: the queued ACCEPT quorum decides slot 1", got)
	}
	if got := r.n.Stats().EpochChanges; got != 0 {
		t.Fatalf("%d regencies installed, want 0", got)
	}
}

// A catch-up round can replay this replica's own removal: installView drops
// the seat mid-round, and the window hears only at the round's outcome. Work
// arriving meanwhile reaches a window that still believes it leads — replica
// 0 leads regency 0 — and its effects must go nowhere, not into a machine
// that is gone; the outcome then halts the window and gives the batch back.
func TestDriverSeatDroppedMidRoundStepsNoMachine(t *testing.T) {
	r := newDriverRig(t, 0, time.Minute, true, smr.VerifyNone)
	r.n.drive(r.now, event{kind: evSyncAsk, peers: []int32{1}, timeout: time.Minute})
	if r.n.w.inFlight != fxSync {
		t.Fatal("no round in flight")
	}
	r.n.installView(&blockchain.ViewUpdate{NewViewID: 1, Members: []int32{1, 2, 3}})
	if !r.n.batcher.Add(smr.Request{ClientID: 7, Seq: 1, Op: []byte{OpApp}}) {
		t.Fatal("request refused")
	}
	r.n.drive(r.now, event{kind: evWork})
	for _, m := range r.ep.sent {
		if m.Type >= consensus.MsgPropose && m.Type < 120 {
			t.Fatalf("consensus message %d left a replica without a seat", m.Type)
		}
	}

	r.n.settle(r.n.synced(false, nil)) // the round ends
	r.n.drive(r.now)
	if r.n.w.live {
		t.Fatal("the window still orders for a dropped seat")
	}
	if got := r.n.batcher.Pending(); got != 1 {
		t.Fatalf("%d requests pending after the window halted, want the one given back", got)
	}
}

// deliver hands the replica what the peers sent it, as dispatch does, and
// steps each input as driverLoop's inbox case does.
func (r *driverRig) deliver() {
	for _, m := range r.toNode {
		consensus.PreVerify(m, r.view, nil, nil, func(in consensus.Input) { r.n.postMessage(r.view.ID, in) })
	}
	r.toNode = r.toNode[:0]
	for len(r.n.inbox) > 0 {
		r.n.onInput(r.now, <-r.n.inbox)
	}
}

// run steps the replica as driverLoop does on what is queued — the inbox
// first, then a wake from the unverified set or the batcher — and carries
// consensus messages between it and the peers until none is in flight. The
// peers start every instance the replica's window has opened.
func (r *driverRig) run() {
	for moved := true; moved; {
		moved = len(r.n.inbox) > 0
		for len(r.n.inbox) > 0 {
			r.n.onInput(r.now, <-r.n.inbox)
		}
		select {
		case <-r.n.unverified.ready:
			r.n.drive(r.now, event{kind: evWork})
			moved = true
		case <-r.n.batcher.Ready():
			r.n.drive(r.now, event{kind: evWork})
			moved = true
		default:
		}
		for ; r.started < r.n.w.nextStart-1; r.started++ {
			for id, p := range r.peers {
				if !r.down[id] {
					p.Start(r.now, r.started+1, nil)
				}
			}
		}
		for ; r.routed < len(r.ep.sent); r.routed++ {
			if m := r.ep.sent[r.routed]; r.peers[m.To] != nil && m.Type >= consensus.MsgPropose && m.Type < 120 {
				r.flight = append(r.flight, m)
			}
		}
		r.settlePeers()
		if len(r.toNode) > 0 {
			r.deliver()
			moved = true
		}
	}
}

// committed is every request in the replica's blocks since its last checkpoint.
func (r *driverRig) committed(t *testing.T) map[crypto.Hash]bool {
	t.Helper()
	out := make(map[crypto.Hash]bool)
	for _, b := range r.n.ledger.CachedBlocks() {
		batch, err := b.Body.Batch()
		if err != nil {
			t.Fatal(err)
		}
		for i := range batch.Requests {
			out[batch.Requests[i].Digest()] = true
		}
	}
	return out
}

// sentFor reports whether the replica sent a consensus message for instance
// inst (every per-instance message leads with its instance number).
func (r *driverRig) sentFor(inst int64) bool {
	for _, m := range r.ep.sent {
		if m.Type >= consensus.MsgPropose && m.Type < 120 && len(m.Payload) >= 8 && int64(binary.BigEndian.Uint64(m.Payload)) == inst {
			return true
		}
	}
	return false
}

// The naive arm of Table I — execute, write, sync, reply, then the next
// instance — with the commit held as window state, not as a wait: block 1
// commits and is held while the driver keeps stepping what arrives. The
// peers decide instance 2 meanwhile and the replica steps their votes, yet it
// starts instance 2 only once the tail has released block 1, and a round
// asked for during the hold begins after it. A commit that waited for the
// tail's release inline would block this test's one goroutine for good.
func TestDriverHeldCommitKeepsSteppingAndStaysSerial(t *testing.T) {
	r := newDriverRig(t, 1, time.Minute, false, smr.VerifyNone)
	batch := testBatch(7, 1, 1)
	r.peers[0].Start(r.now, 1, batch.Encode())
	r.peers[2].Start(r.now, 1, nil)
	r.peers[3].Start(r.now, 1, nil)
	r.settlePeers()
	r.deliver()
	if r.n.held == nil || r.n.ledger.Height() != 1 || r.n.nextInstance.Load() != 1 || r.n.w.inFlight != fxCommit {
		t.Fatalf("block 1 not held: held %v, height %d, floor %d", r.n.held != nil, r.n.ledger.Height(), r.n.nextInstance.Load())
	}

	// During the hold: the peers decide instance 2 and the replica steps every
	// vote (its machine buffers them: slot 2 is not started), and a caller asks
	// for a round.
	r.peers[0].Start(r.now, 2, []byte{})
	r.peers[2].Start(r.now, 2, nil)
	r.peers[3].Start(r.now, 2, nil)
	r.settlePeers()
	r.deliver()
	done := make(chan error, 1)
	r.n.onAsk(r.now, syncAsk{event{kind: evSyncAsk, peers: []int32{2}, timeout: time.Second}, done})
	asked := func() bool {
		for _, m := range r.ep.sent {
			if m.Type == MsgEnvelopeReq {
				return true
			}
		}
		return false
	}
	if r.sentFor(2) || asked() || len(done) != 0 {
		t.Fatalf("during the hold: instance 2 started %v, round begun %v, ask answered %v", r.sentFor(2), asked(), len(done) != 0)
	}

	for len(r.n.released) == 0 { // write, sync, reply
		select {
		case ev := <-r.n.tailCh:
			r.n.tend(r.now, ev)
		case <-time.After(10 * time.Second):
			t.Fatal("the tail never released block 1")
		}
	}
	if r.n.lastReplyBlock.Load() != 1 || r.sentFor(2) {
		t.Fatalf("released: block 1 replied %v, instance 2 started %v; want replied, not started", r.n.lastReplyBlock.Load() == 1, r.sentFor(2))
	}
	<-r.n.released
	r.n.onReleased(r.now)
	if r.n.nextInstance.Load() != 2 || !r.sentFor(2) || !asked() || len(done) != 0 {
		t.Fatalf("after the release: floor %d, instance 2 started %v, round begun %v, ask answered %v; want 2, started, begun, not yet",
			r.n.nextInstance.Load(), r.sentFor(2), asked(), len(done) != 0)
	}
	if got, want := r.n.w.nextDeadline(), r.now.Add(4*time.Minute); !got.Equal(want) {
		t.Fatalf("resync instant %v after the commit, want one period (4 min) on: %v", got, want)
	}

	// The round times out; the decision for instance 2, parked behind it,
	// commits. Nothing was delivered since the hold: the votes stepped during
	// it decided instance 2 the moment the slot started.
	r.now = r.now.Add(time.Second)
	r.n.onTimer(r.now)
	if r.n.nextInstance.Load() != 3 || len(done) != 1 {
		t.Fatalf("after the round: floor %d, ask answered %v; want 3 and answered", r.n.nextInstance.Load(), len(done) == 1)
	}
}

// A held block (Pipeline=false here; every reconfiguration block too) must
// not wedge the receive loop: whatever settles it in the tail — a PERSIST
// share, say — comes through dispatch, which blocks on a full inbox, and the
// driver keeps taking the inbox in its one inbox case while the block is
// held. End to end: a faulty member floods replica 0 with PROPOSEs — passed
// on unvalidated — while each held block waits out a slow disk; every mint
// must still be released, replica 0's replies included.
func TestDriverReleasesCommitUnderInboxFlood(t *testing.T) {
	c, minter := testCluster(t, 4, func(cfg *ClusterConfig) {
		cfg.Pipeline = false
		cfg.ConsensusTimeout = 5 * time.Second
		cfg.DiskFactory = func() *storage.SimDisk { return &storage.SimDisk{SyncLatency: 50 * time.Millisecond} }
	})
	p := registeredClient(t, c, minter)
	if err := c.Crash(3); err != nil { // free replica 3's address (f = 1 allows it)
		t.Fatalf("crash: %v", err)
	}
	member := c.Net.Endpoint(3) // speaks to replica 0 as its peer 3
	defer member.Close()

	done := make(chan struct{})
	flooded := make(chan struct{})
	go func() {
		defer close(flooded)
		for sent := 0; sent < 40_000; sent += 500 { // ~100 per ms: a 4096 inbox fills inside one wait
			for range 500 {
				if member.Send(0, consensus.MsgPropose, []byte{0xff}) != nil {
					return
				}
			}
			select {
			case <-done:
				return
			case <-time.After(5 * time.Millisecond):
			}
		}
	}()
	defer func() { close(done); <-flooded }()

	const mints = 4
	for nonce := uint64(1); nonce <= mints; nonce++ {
		mint(t, p, nonce, 10)
	}
	deadline := time.Now().Add(10 * time.Second)
	for c.Nodes[0].Node.lastReplyBlock.Load() < mints {
		if time.Now().After(deadline) {
			t.Fatalf("replica 0 released %d of %d blocks", c.Nodes[0].Node.lastReplyBlock.Load(), mints)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// A single replica is its own quorum: a proposal decides inside the step
// that made it, and the commit — a checkpoint every 20 blocks on a synced
// HDD log — runs inline right behind it. Under 32 closed-loop clients that
// is the configuration bench/README.md's first finding saw stop committing
// after its first checkpoint; every op must be answered.
func TestSingleReplicaCheckpointsUnderLoad(t *testing.T) {
	const clients, opsEach = 32, 60
	keys := make([]*crypto.KeyPair, clients)
	pubs := make([]crypto.PublicKey, clients)
	for i := range keys {
		keys[i] = crypto.SeededKeyPair("single-replica-minter", int64(i))
		pubs[i] = keys[i].Public()
	}
	c, _ := testCluster(t, 1, func(cfg *ClusterConfig) {
		cfg.CheckpointPeriod = 20
		cfg.MaxBatch = 3 // ≥ 640 blocks whatever the batching: 32 checkpoints
		cfg.DiskFactory = storage.HDDProfile
		cfg.ConsensusTimeout = 2 * time.Second
		cfg.AppFactory = func() Application { return coin.NewService(pubs) }
		cfg.Minters = pubs
	})
	errs := make(chan error, clients)
	for i := range keys {
		p := coinClient(t, c, keys[i])
		defer p.Close()
		go func(key *crypto.KeyPair) {
			failed := 0
			for nonce := uint64(1); nonce <= opsEach; nonce++ {
				tx, err := coin.NewMint(key, nonce, 1)
				if err == nil {
					_, err = p.Invoke(context.Background(), WrapAppOp(tx.Encode()))
				}
				if err != nil {
					failed++
				}
			}
			if failed > 0 {
				errs <- fmt.Errorf("%d of %d mints failed", failed, opsEach)
				return
			}
			errs <- nil
		}(keys[i])
	}
	for range keys {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if h := c.Nodes[0].Node.Ledger().Height(); h < 600 {
		t.Fatalf("height %d after %d mints, want ≥ 600", h, clients*opsEach)
	}
}
