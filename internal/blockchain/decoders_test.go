package blockchain

import (
	"testing"

	"smartchain/internal/codec"
	"smartchain/internal/codec/codectest"
)

// decoderTable holds what a replica or a third-party auditor reads back from
// the chain to the decoding contract (DESIGN.md "Decoding contract"); to
// cover a new decoder, add a row. The "records" row frames a log as a list
// of length-prefixed records, so certificate records meet their blocks.
func decoderTable(t testing.TB) []codectest.Row {
	b := newChainBuilder(t, 4)
	b.addBlock("a", 3)
	b.addBlock("b", 1)
	reconf := b.reconfigure([]int32{0, 1, 2, 4}, []ReplicaInfo{{ID: 4}}, false)
	late := b.blocks[1]
	cert := late.Cert
	late.Cert.Sigs = nil
	log := codec.NewEncoder(4096)
	log.Uint32(4)
	log.WriteBytes(EncodeBlockRecord(&late))
	log.WriteBytes(EncodeBlockRecord(&b.blocks[2]))
	log.WriteBytes(EncodeCertRecord(late.Header.Number, &cert))
	log.WriteBytes(EncodeBlockRecord(reconf))

	records := func(data []byte) ([]Block, error) {
		d := codec.NewDecoder(data)
		recs := codec.List(d, 4, (*codec.Decoder).ReadBytes)
		if err := d.Finish(); err != nil {
			return nil, err
		}
		return DecodeRecords(recs)
	}
	frame := func(blocks *[]Block) []byte {
		e := codec.NewEncoder(4096)
		e.Uint32(uint32(len(*blocks)))
		for i := range *blocks {
			e.WriteBytes(EncodeBlockRecord(&(*blocks)[i]))
		}
		return e.Bytes()
	}
	// genesisBomb is an empty chain ID and 2^12 replicas declared, none
	// carried: the largest count the hand-written cap at 78095fd let through
	// to a loop that appended zero values over a failed decoder.
	genesisBomb := codec.NewEncoder(8)
	genesisBomb.String("")
	genesisBomb.Uint32(1 << 12)
	updateBomb := codec.NewEncoder(12)
	updateBomb.Int64(1)
	updateBomb.Uint32(1 << 16)
	return []codectest.Row{
		codectest.Of("records", records, frame).Seeds([][]byte{log.Bytes()}, [][]byte{{0, 16, 0, 0}}),
		codectest.Of("block", DecodeBlock, (*Block).Encode).Seeds([][]byte{b.blocks[1].Encode(), reconf.Encode()}, nil),
		codectest.Of("genesis", DecodeGenesis, (*Genesis).Encode).Seeds([][]byte{b.genesis.Encode()}, [][]byte{genesisBomb.Bytes()}),
		codectest.Of("view update", DecodeViewUpdate, (*ViewUpdate).Encode).Seeds([][]byte{reconf.Body.Update.Encode()}, [][]byte{updateBomb.Bytes()}),
	}
}

func TestChainDecodersContract(t *testing.T) { codectest.Contract(t, decoderTable(t)) }

func FuzzDecoders(f *testing.F) { codectest.Fuzz(f, decoderTable(f)) }
