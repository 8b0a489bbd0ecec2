// Package baselines implements the comparison systems of the paper's
// evaluation: the Dura-SMaRt durability layer (plain BFT-SMaRt with
// efficient durable logging, no blockchain — the baseline of Table I and
// Fig. 6), and architecturally-faithful models of Tendermint and Hyperledger
// Fabric (Table II).
//
// All three share a replica chassis: the same Byzantine consensus engine,
// request batching, and signature verification as SMARTCHAIN — so measured
// differences come from each system's commit discipline, not from a
// different consensus implementation. What differs per system:
//
//   - Dura-SMaRt: group-committed durable log written in parallel with
//     execution; replies after both (external durability).
//   - Tendermint-style: rotating leader every block, transactions reach
//     replicas through gossip (extra hop), and the block is written
//     synchronously both before and after execution (two fsyncs in the
//     critical path, §VII-a).
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

// Replica is one baseline replica process.
type Replica struct {
	cfg      ChassisConfig
	engine   *consensus.Engine
	batcher  *smr.Batcher
	verifier *smr.VerifierPool

	nextInstance int64
	executedTxs  int64
	statsMu      sync.Mutex
	// droppedSends counts protocol and reply sends the transport refused
	// (peer down, queue full). Atomic: the consensus engine's send hook
	// runs on engine goroutines while sendReplies runs on the driver.
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
		nextInstance: 1,
		stop:         make(chan struct{}),
		done:         make(chan struct{}),
		recvDone:     make(chan struct{}),
	}
	ep := cfg.Transport
	r.engine = consensus.New(consensus.Config{
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
	r.engine.Start()
	go r.receiveLoop()
	go r.driverLoop()
}

// Stop shuts the replica down.
func (r *Replica) Stop() {
	r.stopOnce.Do(func() {
		close(r.stop)
		r.batcher.Close()
		r.engine.Stop()
		<-r.done
		<-r.recvDone
		r.verifier.Close()
	})
}

// ExecutedTxs returns the number of transactions executed so far.
func (r *Replica) ExecutedTxs() int64 {
	r.statsMu.Lock()
	defer r.statsMu.Unlock()
	return r.executedTxs
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
					r.engine.HandleMessage(m)
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

func (r *Replica) driverLoop() {
	defer close(r.done)
	for {
		select {
		case <-r.stop:
			return
		default:
		}
		inst := r.nextInstance
		r.engine.StartInstance(inst, nil)

		proposed := false
		for !proposed {
			if r.engine.Leader() != r.cfg.Self {
				break
			}
			if value, ok := r.nextValue(); ok {
				r.engine.ProposeValue(inst, value)
				proposed = true
				break
			}
			select {
			case <-r.stop:
				return
			case <-r.batcher.Ready():
			case d, ok := <-r.engine.Decisions():
				if !ok {
					return
				}
				r.handleDecision(d)
				proposed = true
			}
		}
		if r.nextInstance != inst {
			continue
		}
		select {
		case <-r.stop:
			return
		case d, ok := <-r.engine.Decisions():
			if !ok {
				return
			}
			r.handleDecision(d)
		}
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
	r.statsMu.Lock()
	r.executedTxs += int64(len(batch.Requests))
	r.statsMu.Unlock()
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
