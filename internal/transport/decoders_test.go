package transport

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"testing"

	"smartchain/internal/codec/codectest"
)

// lengthOnly is a bare length header claiming n body bytes.
func lengthOnly(n uint32) []byte {
	return binary.BigEndian.AppendUint32(nil, n)
}

// decoderTable holds the TCP frame reader to the decoding contract (DESIGN.md
// "Decoding contract"): the bytes a connection delivers, read as one frame.
func decoderTable() []codectest.Row {
	const secret = "decoders-secret"
	enc := codecNet(2, secret)
	mac := newTestMAC(secret)
	read := func(data []byte) (Message, error) { return readFrame(bufio.NewReader(bytes.NewReader(data)), mac) }
	badMAC := enc.encodeFrame(Message{From: 2, To: 1, Type: 4, Payload: []byte("bad")})
	badMAC[len(badMAC)-1] ^= 0xff
	return []codectest.Row{
		codectest.Of("tcp frame", read, func(m *Message) []byte { return enc.encodeFrame(*m) }).Seeds(
			[][]byte{
				enc.encodeFrame(Message{From: 2, To: 1, Type: 4, Payload: []byte("ok")}),
				enc.encodeFrame(Message{From: 1 << 16, To: 3, Type: 210}),
			},
			[][]byte{
				lengthOnly(maxFrameSize + 1),
				append(lengthOnly(frameHeaderLen+sha256.Size-1), make([]byte, frameHeaderLen+sha256.Size-1)...),
				badMAC,
				lengthOnly(1 << 20), // claims 1 MiB and sends nothing after it
			}),
	}
}

func TestTransportDecodersContract(t *testing.T) { codectest.Contract(t, decoderTable()) }

func FuzzDecoders(f *testing.F) { codectest.Fuzz(f, decoderTable()) }
