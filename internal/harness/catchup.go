package harness

import (
	"bytes"
	"context"
	"fmt"
	"time"

	"smartchain/internal/chaos"
	"smartchain/internal/coin"
	"smartchain/internal/core"
	"smartchain/internal/crypto"
	"smartchain/internal/smr"
)

// CatchupPoint is one time-to-sync measurement: a fresh replica joining a
// cluster that holds a fabricated pre-committed chain through the
// collaborative multi-peer pool, optionally under fault injection.
type CatchupPoint struct {
	Label  string
	Blocks int64
	// Fault names the injected fault: "", "donor-death" (two of four
	// donors partitioned mid-transfer), "corrupt-chunk" (one donor serves
	// chunks failing their digests).
	Fault         string
	SyncMS        int64
	PeersUsed     int64
	ChunksFetched int64
	BlocksFetched int64
	Redos         int64
	Banned        int64
	BytesFetched  int64
	MBPerSec      float64
	// Diverged reports whether the synced replica's application state
	// differs from the donors' — must always be false.
	Diverged bool
}

func (p CatchupPoint) String() string {
	fault := p.Fault
	if fault == "" {
		fault = "none"
	}
	return fmt.Sprintf("%-26s sync %6d ms   %5.1f MB/s   peers %d   chunks %3d   blocks %5d   redos %3d   banned %d",
		p.Label, p.SyncMS, p.MBPerSec, p.PeersUsed, p.ChunksFetched, p.BlocksFetched, p.Redos, p.Banned)
}

// catchupBandwidth models each donor's uplink: one donor serializes on its
// own link, while four donors shipping chunks and ranges in parallel add up.
const catchupBandwidth = 16 << 20 // 16 MB/s per process

// catchupSpec fabricates minter-issued MINT traffic. The transactions are
// unsigned — replay never verifies request signatures (the decision proofs
// carry the trust) — which keeps fabricating a 10k-block chain cheap.
func catchupSpec(minter *crypto.KeyPair, blocks int64) *core.ChainSpec {
	return &core.ChainSpec{
		Blocks:     blocks,
		TxPerBlock: 8,
		SnapshotAt: blocks * 4 / 5,
		MakeRequests: func(block int64, clientID int64, firstSeq uint64) []smr.Request {
			reqs := make([]smr.Request, 0, 8)
			for i := 0; i < 8; i++ {
				seq := firstSeq + uint64(i)
				tx := coin.Tx{
					Type:    coin.TxMint,
					Issuer:  minter.Public(),
					Nonce:   seq,
					Outputs: []coin.Output{{Owner: minter.Public(), Value: 1}},
				}
				reqs = append(reqs, smr.Request{
					ClientID: clientID,
					Seq:      seq,
					Op:       core.WrapAppOp(tx.Encode()),
					PubKey:   minter.Public(),
				})
			}
			return reqs
		},
	}
}

// catchupScenario measures one join: 4 donors with a fabricated chain, a
// deferred fifth replica that syncs via explicit rounds.
func catchupScenario(label string, blocks int64, fault string) (CatchupPoint, error) {
	p := CatchupPoint{Label: label, Blocks: blocks, Fault: fault}
	minter := crypto.SeededKeyPair(label+"/minter", 0)
	cluster, err := core.NewCluster(core.ClusterConfig{
		N:                  5,
		AppFactory:         func() core.Application { return coin.NewService([]crypto.PublicKey{minter.Public()}) },
		Persistence:        core.PersistenceWeak,
		Storage:            smr.StorageMemory,
		Verify:             smr.VerifyNone,
		Pipeline:           true,
		MaxBatch:           64,
		Minters:            []crypto.PublicKey{minter.Public()},
		ConsensusTimeout:   time.Second,
		NetBandwidth:       catchupBandwidth,
		ChainID:            label,
		Prime:              catchupSpec(minter, blocks),
		Deferred:           []int32{4},
		CatchupPeerTimeout: 2 * time.Second,
	})
	if err != nil {
		return p, err
	}
	defer cluster.Stop()

	var faultSched *chaos.Schedule
	switch fault {
	case "corrupt-chunk":
		// Donor 1 joins the envelope quorum honestly but serves flipped
		// bytes for every chunk.
		store := cluster.Nodes[1].Snapshots
		env, err := store.LoadEnvelope()
		if err != nil {
			return p, fmt.Errorf("corrupt donor envelope: %w", err)
		}
		for i := 0; i < env.NumChunks(); i++ {
			data, err := store.ReadChunk(i)
			if err != nil {
				return p, fmt.Errorf("corrupt donor chunk %d: %w", i, err)
			}
			data[0] ^= 0xff
			if err := store.WriteChunk(i, data); err != nil {
				return p, fmt.Errorf("corrupt donor chunk %d: %w", i, err)
			}
		}
	case "donor-death":
		// Donors 2 and 3 answer the opening requests (enough to be counted
		// on and assigned work), then a chaos schedule takes their links to
		// the joiner permanently dark: Dur == 0 holds the one-way fault for
		// the rest of the transfer.
		faultSched = &chaos.Schedule{Steps: []chaos.Step{{
			At:     250 * time.Millisecond,
			Action: &chaos.OneWayAction{From: []int32{2, 3}, To: []int32{4}},
		}}}
	}

	if err := cluster.StartDeferred(4, nil); err != nil {
		return p, err
	}
	joiner := cluster.Nodes[4].Node
	peers := []int32{0, 1, 2, 3}

	start := time.Now()
	if faultSched != nil {
		// The schedule clock starts with the measured sync: the fault lands
		// mid-transfer, exactly where the ad-hoc filter used to flip.
		go chaos.Run(context.Background(), &chaos.Env{Net: cluster.Net}, *faultSched)
	}
	deadline := start.Add(5 * time.Minute)
	for joiner.Ledger().Height() < blocks {
		if time.Now().After(deadline) {
			return p, fmt.Errorf("%s: catch-up stalled at height %d of %d", label, joiner.Ledger().Height(), blocks)
		}
		if err := joiner.SyncFromPeers(peers, 2*time.Minute); err != nil &&
			joiner.Ledger().Height() < blocks {
			// Transient round failure (e.g. every reachable donor struck
			// out while the partition settled): retry.
			continue
		}
	}
	p.SyncMS = time.Since(start).Milliseconds()

	st := joiner.Stats().Catchup
	p.PeersUsed = st.PeersUsed
	p.ChunksFetched = st.ChunksFetched
	p.BlocksFetched = st.BlocksFetched
	p.Redos = st.Redos
	p.Banned = st.Banned
	p.BytesFetched = st.BytesFetched
	if secs := float64(p.SyncMS) / 1000; secs > 0 {
		p.MBPerSec = float64(st.BytesFetched) / (1 << 20) / secs
	}
	p.Diverged = !bytes.Equal(cluster.Nodes[4].App.Snapshot(), cluster.Nodes[0].App.Snapshot()) ||
		joiner.Ledger().Height() != cluster.Nodes[0].Node.Ledger().Height()
	return p, nil
}

// Catchup runs the state-transfer experiment on one fabricated chain: the
// healthy four-donor join, then the two fault scenarios. blocks ≤ 0
// selects the paper-scale 10k-block chain. Every scenario must complete
// (a stall is an error) with the synced replica bit-identical to the
// donors; the healthy join must spread accepted work over ≥ 2 donors, and
// a donor serving corrupt chunks must be banned — a violation fails the
// run, which is what the CI smoke gate keys on.
func Catchup(blocks int64) ([]CatchupPoint, error) {
	if blocks <= 0 {
		blocks = 10_000
	}
	scenarios := []struct{ label, fault string }{
		{"multi-peer/4-donors", ""},
		{"multi-peer/donor-death", "donor-death"},
		{"multi-peer/corrupt-chunk", "corrupt-chunk"},
	}
	points := make([]CatchupPoint, 0, len(scenarios))
	for _, s := range scenarios {
		pt, err := catchupScenario(s.label, blocks, s.fault)
		if err != nil {
			return points, err
		}
		points = append(points, pt)
		switch {
		case pt.Diverged:
			return points, fmt.Errorf("catchup: %s diverged from the donor state", pt.Label)
		case pt.Fault == "" && pt.PeersUsed < 2:
			return points, fmt.Errorf("catchup: %s used %d donor(s), want the work spread over ≥ 2", pt.Label, pt.PeersUsed)
		case pt.Fault == "corrupt-chunk" && pt.Banned < 1:
			return points, fmt.Errorf("catchup: %s accepted corrupt chunks without banning the donor", pt.Label)
		}
	}
	return points, nil
}
