// Package baselines implements the comparison systems of the paper's
// evaluation: the Dura-SMaRt durability layer (plain BFT-SMaRt with
// efficient durable logging, no blockchain — the baseline of Table I and
// Fig. 6), and architecturally-faithful models of Tendermint and Hyperledger
// Fabric (Table II).
//
// All three share a replica chassis: the same Byzantine consensus machine,
// request batching, and signature verification as SMARTCHAIN — so measured
// differences come from each system's commit discipline, not from a
// different consensus implementation. One leader holds each regency, as in
// SMARTCHAIN. What differs per system:
//
//   - Dura-SMaRt: group-committed durable log written in parallel with
//     execution; replies after both (external durability).
//   - Tendermint-style: transactions reach replicas through gossip (an
//     ingest delay before a request becomes proposable), each block is
//     written synchronously both before and after execution (two syncs in
//     the critical path, §VII-a), and timeout_commit pauses the chain after
//     every block.
//   - Fabric-style: execute-order-validate — endorsement round trips before
//     ordering, then sequential per-transaction validation (endorsement
//     signature checks + MVCC) and a synchronous commit per block.
package baselines

import (
	"sync"
	"sync/atomic"
	"time"

	"smartchain/internal/consensus"
	"smartchain/internal/crypto"
	"smartchain/internal/smr"
	"smartchain/internal/transport"
	"smartchain/internal/view"
)

// Chassis message types: the shared client⇄replica wire contract defined
// in the smr package, so baseline replicas answer the same client proxy as
// SMARTCHAIN nodes.
const (
	msgRequest = smr.MsgRequest
	msgReply   = smr.MsgReply
)

// CommitFunc is a system's commit discipline: given the decided batch, make
// it durable per the system's rules, execute, and release the replies via
// send. It runs on the driver goroutine; blocking in it serializes block
// processing exactly like the modeled system would.
type CommitFunc func(d consensus.Decision, batch smr.Batch, send func([]smr.Reply))

// ChassisConfig parameterizes a baseline replica.
type ChassisConfig struct {
	Self      int32
	View      view.View
	Signer    *crypto.KeyPair
	Transport transport.Endpoint
	Verify    smr.VerifyMode
	MaxBatch  int
	Timeout   time.Duration
	// VerifyOp deeply verifies a request payload (application signature).
	VerifyOp func(*smr.Request) bool
	// Commit is the system's commit discipline.
	Commit CommitFunc
	// IngestDelay delays request admission (models gossip dissemination in
	// the Tendermint baseline).
	IngestDelay time.Duration
}

// Replica is one baseline replica process, two goroutines: receiveLoop
// admits requests and queues consensus frames in the inbox; driverLoop
// alone steps the consensus machine, one instance at a time, and runs the
// commit discipline on each decision.
type Replica struct {
	cfg      ChassisConfig
	cons     *consensus.Machine
	batcher  *smr.Batcher
	verifier *smr.VerifierPool
	inbox    chan consensus.Input

	// Driver state: the instance being ordered, the installed regency (this
	// replica leads it iff View.Leader(regency) == Self), and whether the
	// instance began in that regency with no proposal from this replica yet.
	nextInstance int64
	regency      int64
	wantsValue   bool

	executedTxs atomic.Int64
	// droppedSends counts protocol and reply sends the transport refused
	// (peer down, queue full). Written on the driver, read from anywhere.
	droppedSends atomic.Int64

	stop     chan struct{}
	done     chan struct{}
	recvDone chan struct{}
	stopOnce sync.Once
}

// NewReplica builds a chassis replica.
func NewReplica(cfg ChassisConfig) *Replica {
	if cfg.MaxBatch <= 0 {
		cfg.MaxBatch = 512
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 500 * time.Millisecond
	}
	r := &Replica{
		cfg:          cfg,
		batcher:      smr.NewBatcher(cfg.MaxBatch),
		verifier:     smr.NewVerifierPool(cfg.Verify, 0),
		inbox:        make(chan consensus.Input, 4096), // as the node's: the next instance's traffic waits out a blocking Commit here
		nextInstance: 1,
		stop:         make(chan struct{}),
		done:         make(chan struct{}),
		recvDone:     make(chan struct{}),
	}
	ep := cfg.Transport
	r.cons = consensus.NewMachine(consensus.Config{
		Self:   cfg.Self,
		View:   cfg.View,
		Signer: cfg.Signer,
		Send: func(to int32, typ uint16, p []byte) {
			// Consensus tolerates message loss (retransmit + view change),
			// but a silent drop skews baseline measurements — count it.
			if err := ep.Send(to, typ, p); err != nil {
				r.droppedSends.Add(1)
			}
		},
		Timeout: cfg.Timeout,
		Validate: func(_ int64, value []byte) bool {
			if len(value) == 0 {
				return true
			}
			return smr.ValidBatchValue(value)
		},
		RequestValue: func(int64) []byte {
			value, _ := r.nextValue()
			return value
		},
		HasPending: func() bool { return r.batcher.Pending() > 0 },
	})
	return r
}

// nextValue encodes the next batch, if one is ready, stamped with this
// (proposing) replica's clock.
func (r *Replica) nextValue() ([]byte, bool) {
	batch, ok := r.batcher.TryNext()
	if !ok {
		return nil, false
	}
	batch.Timestamp = time.Now().UnixNano()
	return batch.Encode(), true
}

// Start launches the replica's loops.
func (r *Replica) Start() {
	go r.receiveLoop()
	go r.driverLoop()
}

// Stop shuts the replica down.
func (r *Replica) Stop() {
	r.stopOnce.Do(func() {
		close(r.stop)
		r.batcher.Close()
		<-r.done
		<-r.recvDone
		r.verifier.Close()
	})
}

// ExecutedTxs returns the number of transactions executed so far.
func (r *Replica) ExecutedTxs() int64 {
	return r.executedTxs.Load()
}

// DroppedSends returns the number of outbound messages (protocol and
// client replies) the transport refused to accept.
func (r *Replica) DroppedSends() int64 {
	return r.droppedSends.Load()
}

func (r *Replica) receiveLoop() {
	defer close(r.recvDone)
	for {
		select {
		case <-r.stop:
			return
		case m, ok := <-r.cfg.Transport.Receive():
			if !ok {
				return
			}
			switch {
			case m.Type >= 100 && m.Type < 120:
				if r.cfg.View.Contains(m.From) {
					consensus.PreVerify(m, r.cfg.View, nil, r.post)
				}
			case m.Type == msgRequest:
				req, err := smr.DecodeRequest(m.Payload)
				if err != nil {
					continue
				}
				r.admit(req)
			}
		}
	}
}

// post queues a consensus input for the driver, waiting for room; after Stop
// a no-op.
func (r *Replica) post(in consensus.Input) {
	select {
	case r.inbox <- in:
	case <-r.stop:
	}
}

// admit verifies and queues a request according to the verification mode,
// applying the ingest delay (gossip model) if configured.
func (r *Replica) admit(req smr.Request) {
	enqueue := func(q smr.Request) {
		if r.cfg.IngestDelay > 0 {
			time.AfterFunc(r.cfg.IngestDelay, func() { r.batcher.Add(q) })
		} else {
			r.batcher.Add(q)
		}
	}
	switch r.cfg.Verify {
	case smr.VerifyNone, smr.VerifySequential:
		enqueue(req)
	default:
		r.verifier.Submit(req, func(q smr.Request, ok bool) {
			if !ok {
				return
			}
			if r.cfg.VerifyOp != nil && !r.cfg.VerifyOp(&q) {
				return
			}
			enqueue(q)
		})
	}
}

// driverLoop is the replica's consensus runtime: it alone steps the machine,
// reading the clock once per step, and re-arms its one timer only for a
// deadline earlier than the armed one (a tick that finds nothing due is
// harmless).
func (r *Replica) driverLoop() {
	defer close(r.done)
	r.wantsValue = true
	r.stepped(r.cons.Start(time.Now(), r.nextInstance, nil))
	armed, timer := time.Now().Add(time.Hour), time.NewTimer(time.Hour) // armed: when it fires; zero once it has
	defer timer.Stop()
	for {
		work := r.propose()
		if next := r.cons.NextDeadline(); !next.IsZero() && (armed.IsZero() || next.Before(armed)) {
			timer.Reset(time.Until(next))
			armed = next
		}
		select {
		case <-r.stop:
			return
		case in := <-r.inbox:
			r.stepped(r.cons.Message(time.Now(), in))
		case <-work:
		case <-timer.C:
			armed = time.Time{}
			r.stepped(r.cons.Tick(time.Now()))
		}
	}
}

// propose hands the current instance this replica's next batch while it
// leads and owes one. It returns the channel that signals new work, nil
// when no batch is wanted.
func (r *Replica) propose() <-chan struct{} {
	for r.wantsValue && r.cfg.View.Leader(r.regency) == r.cfg.Self {
		value, ok := r.nextValue()
		if !ok {
			return r.batcher.Ready()
		}
		r.wantsValue = false
		r.stepped(r.cons.Propose(time.Now(), r.nextInstance, value))
	}
	return nil
}

// stepped acts on what a consensus step returned: the regency it installed,
// then each decision in order, committed before the next instance starts —
// itself a step that may decide. decided aliases a buffer the next step
// overwrites; every decision in it is handled before that step.
func (r *Replica) stepped(decided []consensus.Decision, installed int64) {
	for {
		if installed > 0 {
			// An instance begun before the round takes its value from the SYNC.
			r.regency, r.wantsValue = installed, false
		}
		inst := r.nextInstance
		for _, d := range decided {
			r.handleDecision(d)
		}
		if r.nextInstance == inst {
			return
		}
		r.wantsValue = true
		decided, installed = r.cons.Start(time.Now(), r.nextInstance, nil)
	}
}

func (r *Replica) handleDecision(d consensus.Decision) {
	if d.Instance < r.nextInstance {
		return
	}
	r.nextInstance = d.Instance + 1
	if len(d.Value) == 0 {
		return
	}
	batch, err := smr.DecodeBatch(d.Value)
	if err != nil {
		return
	}
	r.batcher.MarkDelivered(batch.Requests)
	r.executedTxs.Add(int64(len(batch.Requests)))
	r.cfg.Commit(d, batch, r.sendReplies)
}

func (r *Replica) sendReplies(replies []smr.Reply) {
	for i := range replies {
		// A lost reply is recovered by client retransmission, but the drop
		// still inflates measured latency — count it so runs can report it.
		if err := r.cfg.Transport.Send(int32(replies[i].ClientID), msgReply, replies[i].Encode()); err != nil {
			r.droppedSends.Add(1)
		}
	}
}

// MakeReplies builds the reply set for a batch and its results.
func MakeReplies(self int32, batch smr.Batch, results [][]byte) []smr.Reply {
	replies := make([]smr.Reply, len(batch.Requests))
	for i := range batch.Requests {
		replies[i] = smr.Reply{
			ReplicaID: self,
			ClientID:  batch.Requests[i].ClientID,
			Seq:       batch.Requests[i].Seq,
			Digest:    batch.Requests[i].Digest(),
			Result:    results[i],
		}
	}
	return replies
}
