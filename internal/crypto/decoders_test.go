package crypto

import (
	"testing"

	"smartchain/internal/codec"
	"smartchain/internal/codec/codectest"
)

// decoderTable holds the certificate decoder — embedded in decision proofs,
// block certificates and epoch-change claims — to the decoding contract
// (DESIGN.md "Decoding contract"); to cover a new decoder, add a row.
func decoderTable(testing.TB) []codectest.Row {
	digest := HashBytes([]byte("block"))
	cert := Certificate{Digest: digest}
	for i := int32(0); i < 3; i++ {
		cert.Add(Signature{Signer: i, Sig: SeededKeyPair("cert", int64(i)).MustSign("ctx", digest[:])})
	}
	decode := func(data []byte) (Certificate, error) {
		d := codec.NewDecoder(data)
		c, err := DecodeCertificateFrom(d)
		if err != nil {
			return Certificate{}, err
		}
		return c, d.Finish()
	}
	encode := func(c *Certificate) []byte {
		e := codec.NewEncoder(256)
		c.EncodeInto(e)
		return e.Bytes()
	}
	// A digest, then 2^16 signatures declared and none carried.
	bomb := codec.NewEncoder(36)
	bomb.Bytes32(digest)
	bomb.Uint32(1 << 16)
	return []codectest.Row{
		codectest.Of("certificate", decode, encode).Seeds([][]byte{encode(&cert), encode(&Certificate{Digest: digest})}, [][]byte{bomb.Bytes()}),
	}
}

func TestCryptoDecodersContract(t *testing.T) { codectest.Contract(t, decoderTable(t)) }

func FuzzDecoders(f *testing.F) { codectest.Fuzz(f, decoderTable(f)) }
