// Package codectest is where the decoding contract's helper lives.
package codectest

import "fixture/internal/codec"

// Fuzz is the contract's fuzz target.
func Fuzz(data []byte) bool { return fuzzDecoder(data) }

func fuzzDecoder(data []byte) bool {
	d := &codec.Decoder{}
	return d.Count() == 0 && len(data) > 0
}
