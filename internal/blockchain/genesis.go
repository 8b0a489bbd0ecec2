package blockchain

import (
	"fmt"

	"smartchain/internal/codec"
	"smartchain/internal/crypto"
	"smartchain/internal/view"
)

// Genesis is the content of block 0 (paper §V-B2): the initial consortium
// (IDs, permanent keys, and view-0 consensus keys), the application's
// authorized minter addresses, and platform parameters. Everything a third
// party needs to verify the chain from scratch is rooted here.
type Genesis struct {
	// ChainID names the deployment; it salts the genesis hash so two
	// deployments with identical parameters still have distinct chains.
	ChainID string
	// Replicas lists the initial consortium members.
	Replicas []ReplicaInfo
	// Minters are application addresses authorized to MINT.
	Minters []crypto.PublicKey
	// CheckpointPeriod is z: a checkpoint is taken every z blocks
	// (paper §V-B3; counted in blocks so a checkpoint never splits one).
	CheckpointPeriod int64
	// MaxBatchSize caps transactions per block (512 in the paper's runs).
	MaxBatchSize int
}

// Encode serializes the genesis content.
func (g *Genesis) Encode() []byte {
	e := codec.NewEncoder(256)
	e.String(g.ChainID)
	e.Uint32(uint32(len(g.Replicas)))
	for i := range g.Replicas {
		g.Replicas[i].encodeInto(e)
	}
	e.Uint32(uint32(len(g.Minters)))
	for _, m := range g.Minters {
		e.WriteBytes(m)
	}
	e.Int64(g.CheckpointPeriod)
	e.Int64(int64(g.MaxBatchSize))
	return e.Bytes()
}

// DecodeGenesis parses encoded genesis content.
func DecodeGenesis(data []byte) (Genesis, error) {
	d := codec.NewDecoder(data)
	var g Genesis
	g.ChainID = d.String()
	g.Replicas = codec.List(d, minReplicaInfoSize, decodeReplicaInfoFrom)
	g.Minters = codec.List(d, 4, func(d *codec.Decoder) crypto.PublicKey {
		return crypto.PublicKey(d.ReadBytesCopy())
	})
	g.CheckpointPeriod = d.Int64()
	g.MaxBatchSize = int(d.Int64())
	if err := d.Finish(); err != nil {
		return Genesis{}, fmt.Errorf("decode genesis: %w", err)
	}
	return g, nil
}

// InitialView builds view 0 from the genesis replica set.
func (g *Genesis) InitialView() view.View {
	members := make([]int32, 0, len(g.Replicas))
	keys := make(map[int32]crypto.PublicKey, len(g.Replicas))
	for _, r := range g.Replicas {
		members = append(members, r.ID)
		keys[r.ID] = r.ConsensusPub
	}
	return view.New(0, members, keys)
}

// PermanentKeys returns the genesis mapping of replica ID → permanent key.
func (g *Genesis) PermanentKeys() map[int32]crypto.PublicKey {
	out := make(map[int32]crypto.PublicKey, len(g.Replicas))
	for _, r := range g.Replicas {
		out[r.ID] = r.PermanentPub
	}
	return out
}

// GenesisBlock materializes block 0 from the genesis content.
func GenesisBlock(g *Genesis) Block {
	data := g.Encode()
	header := Header{
		Number:         0,
		LastReconfig:   0,
		LastCheckpoint: -1,
		TxRoot:         crypto.HashBytes(data),
		ResultsRoot:    crypto.MerkleRoot(nil),
		PrevHash:       crypto.ZeroHash,
	}
	return Block{
		Header: header,
		Body: Body{
			Kind:      KindGenesis,
			BatchData: data,
		},
	}
}

// ParseGenesisBlock validates that b is a well-formed genesis block and
// returns its content.
func ParseGenesisBlock(b *Block) (Genesis, error) {
	if b.Body.Kind != KindGenesis || b.Header.Number != 0 {
		return Genesis{}, fmt.Errorf("blockchain: not a genesis block")
	}
	if !b.Header.PrevHash.IsZero() {
		return Genesis{}, fmt.Errorf("blockchain: genesis has nonzero prev hash")
	}
	if b.Header.TxRoot != crypto.HashBytes(b.Body.BatchData) {
		return Genesis{}, fmt.Errorf("blockchain: genesis content hash mismatch")
	}
	return DecodeGenesis(b.Body.BatchData)
}
