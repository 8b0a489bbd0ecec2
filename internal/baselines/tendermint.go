package baselines

import (
	"time"

	"smartchain/internal/codec"
	"smartchain/internal/consensus"
	"smartchain/internal/crypto"
	"smartchain/internal/smr"
	"smartchain/internal/storage"
)

// Tendermint models the Tendermint commit discipline the paper compares
// against (§VII-a) by what it charges on top of the shared chassis:
// transactions propagate via gossip (an ingest delay before a request
// becomes proposable), each block is written to stable storage
// synchronously both *before* and *after* execution — "making it less
// efficient than SMARTCHAIN, without further coordination between the
// replicas" — for weak persistence only, and timeout_commit pauses the
// chain after every block. Like every chassis replica, one leader holds
// each regency; the proposer does not rotate per block.
type Tendermint struct {
	replica *Replica
	log     storage.Log
	app     Executor
	// commitInterval models Tendermint's timeout_commit: the fixed pause
	// after each commit during which the node gathers precommits for the
	// next height before proposing (default 250 ms; upstream default is
	// 1 s). It is the dominant reason Tendermint's throughput sits an
	// order of magnitude below SMARTCHAIN's in Table II.
	commitInterval time.Duration
	height         int64 // committed blocks; commit runs on the driver goroutine only
}

// NewTendermint builds a Tendermint-style replica. The ingest delay models
// mempool gossip; the paper's LAN deployment suggests a few hundred
// microseconds to low milliseconds.
func NewTendermint(cfg ChassisConfig, log storage.Log, app Executor) *Tendermint {
	tm := &Tendermint{log: log, app: app, commitInterval: 250 * time.Millisecond}
	cfg.Commit = tm.commit
	tm.replica = NewReplica(cfg)
	return tm
}

// Replica exposes the underlying chassis.
func (t *Tendermint) Replica() *Replica { return t.replica }

// Start launches the replica.
func (t *Tendermint) Start() { t.replica.Start() }

// Stop shuts it down.
func (t *Tendermint) Stop() { t.replica.Stop() }

// commit implements the double-write discipline: block first (sync), then
// execute, then state commit (sync), then replies — all in the critical
// path; the next height cannot start earlier.
func (t *Tendermint) commit(dec consensus.Decision, batch smr.Batch, send func([]smr.Reply)) {
	t.height++
	height := t.height

	// Write 1: the proposed block, before execution.
	blockRec := codec.NewEncoder(32 + len(dec.Value))
	blockRec.String("block")
	blockRec.Int64(height)
	blockRec.WriteBytes(dec.Value)
	if t.log.Append(blockRec.Bytes()) != nil {
		return
	}
	if t.log.Sync() != nil {
		return
	}

	results := t.app.ExecuteBatch(smr.NewBatchContext(height, dec.Instance, dec.Epoch, &batch), batch.Requests)

	// Write 2: the post-execution state commit (app hash + results).
	appHash := crypto.MerkleRoot(results)
	commitRec := codec.NewEncoder(64)
	commitRec.String("commit")
	commitRec.Int64(height)
	commitRec.Bytes32(appHash)
	if t.log.Append(commitRec.Bytes()) != nil {
		return
	}
	if t.log.Sync() != nil {
		return
	}

	send(MakeReplies(t.replica.cfg.Self, batch, results))

	// timeout_commit: the chain waits before the next height regardless of
	// pending load.
	if t.commitInterval > 0 {
		time.Sleep(t.commitInterval)
	}
}
