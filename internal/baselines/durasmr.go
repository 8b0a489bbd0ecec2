package baselines

import (
	"sync"

	"smartchain/internal/codec"
	"smartchain/internal/consensus"
	"smartchain/internal/smr"
	"smartchain/internal/storage"
)

// DuraSMaRt is the paper's durability-layer baseline ([37], §II-C2): plain
// BFT state machine replication whose request log is written to stable
// storage by a dedicated logger that accumulates several batches per fsync,
// in parallel with execution. It offers external durability but no
// blockchain: the log carries batches and consensus proofs, with no
// self-verifiable structure, no per-block results, and no certificates.
type DuraSMaRt struct {
	replica *Replica
	logger  *smr.DurableLogger
	app     Executor

	mu      sync.Mutex
	pending []pendingReply
}

// Executor is the minimal application contract the baselines need — the
// same batch-execution shape as core.Application, so one service
// implementation (e.g. coin.Service) runs under SMARTCHAIN and every
// baseline unchanged.
type Executor interface {
	ExecuteBatch(bc smr.BatchContext, reqs []smr.Request) [][]byte
}

type pendingReply struct {
	replies []smr.Reply
	send    func([]smr.Reply)
}

// NewDuraSMaRt builds a Dura-SMaRt replica over the given log.
func NewDuraSMaRt(cfg ChassisConfig, log storage.Log, mode smr.StorageMode, app Executor) *DuraSMaRt {
	d := &DuraSMaRt{
		logger: smr.NewDurableLogger(log, mode),
		app:    app,
	}
	cfg.Commit = d.commit
	d.replica = NewReplica(cfg)
	return d
}

// Replica exposes the underlying chassis.
func (d *DuraSMaRt) Replica() *Replica { return d.replica }

// Start launches the replica.
func (d *DuraSMaRt) Start() { d.replica.Start() }

// Stop shuts it down, draining the durable log.
func (d *DuraSMaRt) Stop() {
	d.replica.Stop()
	d.logger.Close()
}

// commit implements the Dura-SMaRt discipline: the batch (with its decision
// proof) goes to the durable logger while execution proceeds in parallel on
// this goroutine; replies wait for BOTH — the external durability point.
func (d *DuraSMaRt) commit(dec consensus.Decision, batch smr.Batch, send func([]smr.Reply)) {
	record := encodeDuraRecord(&dec)

	var wg sync.WaitGroup
	wg.Add(1)
	var logErr error
	d.logger.Append(record, func(err error) {
		logErr = err
		wg.Done()
	})

	// Execution overlaps the (group-committed) log write. Dura-SMaRt has
	// no blockchain, so the consensus instance doubles as the "block"
	// coordinate of the ordering context.
	bc := smr.NewBatchContext(dec.Instance, dec.Instance, dec.Epoch, &batch)
	results := d.app.ExecuteBatch(bc, batch.Requests)
	wg.Wait()
	if logErr != nil {
		return
	}
	send(MakeReplies(d.replica.cfg.Self, batch, results))
}

// encodeDuraRecord frames one decided batch with its proof for the log.
func encodeDuraRecord(d *consensus.Decision) []byte {
	e := codec.NewEncoder(64 + len(d.Value))
	e.Int64(d.Instance)
	e.Int64(d.Epoch)
	e.WriteBytes(d.Value)
	e.Bytes32(d.Proof.Digest)
	e.Uint32(uint32(len(d.Proof.Sigs)))
	for _, s := range d.Proof.Sigs {
		e.Int32(s.Signer)
		e.WriteBytes(s.Sig)
	}
	return e.Bytes()
}
