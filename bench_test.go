// Micro-benchmarks for primitives no other instrument times: the per-block
// commitment (Merkle root vs flat hash), batch serialization, and the
// group-commit effect on the HDD device model. The paper's tables and
// figures are regenerated by cmd/benchrunner; signing and verification cost
// is the crypto.sign_us / crypto.verify_us probe of bench/.
//
//	go test -run '^$' -bench . -benchtime 100x .
package smartchain

import (
	"testing"

	"smartchain/internal/crypto"
	"smartchain/internal/smr"
	"smartchain/internal/storage"
)

// BenchmarkMerkleRoot512 measures the per-block commitment cost at the
// paper's batch size.
func BenchmarkMerkleRoot512(b *testing.B) {
	leaves := make([][]byte, 512)
	for i := range leaves {
		leaves[i] = []byte{byte(i), byte(i >> 8), 0xAA}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		crypto.MerkleRoot(leaves)
	}
}

// BenchmarkFlatHash512 is the ablation partner of BenchmarkMerkleRoot512:
// committing to a batch with a flat hash instead of a Merkle tree.
func BenchmarkFlatHash512(b *testing.B) {
	leaves := make([][]byte, 512)
	for i := range leaves {
		leaves[i] = []byte{byte(i), byte(i >> 8), 0xAA}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		crypto.HashBytes(leaves...)
	}
}

// BenchmarkBatchEncode512 measures serializing a full block-sized batch.
func BenchmarkBatchEncode512(b *testing.B) {
	key := crypto.SeededKeyPair("bench", 2)
	reqs := make([]smr.Request, 512)
	for i := range reqs {
		r, err := smr.NewSignedRequest(1, uint64(i), make([]byte, 180), key)
		if err != nil {
			b.Fatal(err)
		}
		reqs[i] = r
	}
	batch := smr.Batch{Requests: reqs}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = batch.Encode()
	}
}

// BenchmarkGroupCommit measures the Dura-SMaRt group-commit effect: k
// records under one sync vs k syncs, on the HDD device model.
func BenchmarkGroupCommit(b *testing.B) {
	for _, grouped := range []bool{true, false} {
		name := "grouped"
		if !grouped {
			name = "per-record"
		}
		b.Run(name, func(b *testing.B) {
			disk := storage.HDDProfile()
			log := storage.NewSimLog(disk)
			rec := make([]byte, 32<<10)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for k := 0; k < 10; k++ {
					if err := log.Append(rec); err != nil {
						b.Fatal(err)
					}
					if !grouped {
						if err := log.Sync(); err != nil {
							b.Fatal(err)
						}
					}
				}
				if grouped {
					if err := log.Sync(); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}
