// Package codectest is test support: it holds decoders to the repo's
// decoding contract (DESIGN.md "Decoding contract"). On arbitrary bytes a
// decoder must not panic, must not allocate more than a small multiple of
// its input, and must round-trip whatever it accepts. Each package keeps one
// table of Rows in decoders_test.go, walked over its seeds by a tier-1 test
// (Contract) and by one fuzz target (Fuzz).
package codectest

import (
	"reflect"
	"runtime"
	"testing"
)

// Row is one decoder under the contract, with its message type erased so
// decoders of different messages share a table.
type Row struct {
	name    string
	valid   [][]byte
	hostile [][]byte
	check   func(t testing.TB, data []byte) bool
}

// Of builds the row for one decode/encode pair.
//
//smartlint:allow structure test hook: every package's decoders_test.go builds its table with it
func Of[M any](name string, decode func([]byte) (M, error), encode func(*M) []byte) Row {
	return Row{name: name, check: func(t testing.TB, data []byte) bool {
		return fuzzDecoder(t, data, decode, encode)
	}}
}

// Seeds returns the row with its seeds: valid are encodings the decoder must
// accept, hostile inputs it must refuse (e.g. a few bytes declaring a huge
// list).
//
//smartlint:allow structure test hook: every package's decoders_test.go seeds its rows with it
func (r Row) Seeds(valid, hostile [][]byte) Row {
	r.valid, r.hostile = valid, hostile
	return r
}

// Check holds the row's decoder to the contract on data and reports whether
// it accepted the input.
func (r Row) Check(t testing.TB, data []byte) bool { return r.check(t, data) }

// Contract checks every row on its own seeds: the valid ones are accepted,
// the hostile ones refused, all within the allocation bound.
//
//smartlint:allow structure test hook: each package's TestDecodersContract runs its table through it
func Contract(t *testing.T, table []Row) {
	for _, r := range table {
		t.Run(r.name, func(t *testing.T) {
			for i, seed := range r.valid {
				if !r.Check(t, seed) {
					t.Errorf("valid seed %d refused", i)
				}
			}
			for i, seed := range r.hostile {
				if r.Check(t, seed) {
					t.Errorf("hostile seed %d accepted", i)
				}
			}
		})
	}
}

// Fuzz is the table's single fuzz target: the first input byte picks the
// row, the rest is that decoder's input.
//
//smartlint:allow structure test hook: each package's FuzzDecoders target is this function
func Fuzz(f *testing.F, table []Row) {
	for i, r := range table {
		for _, seeds := range [][][]byte{r.valid, r.hostile} {
			for _, seed := range seeds {
				f.Add(append([]byte{byte(i)}, seed...))
			}
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 0 {
			table[int(data[0])%len(table)].Check(t, data[1:])
		}
	})
}

// fuzzDecoder checks one decoder on arbitrary bytes: it must not panic, must
// not allocate more than a small multiple of the input, and whatever it
// accepts must survive an encode/decode round trip unchanged.
func fuzzDecoder[M any](t testing.TB, data []byte, decode func([]byte) (M, error), encode func(*M) []byte) bool {
	// TotalAlloc is process-wide and the fuzz worker's own goroutines
	// allocate too: a decoder blow-up repeats, their noise does not.
	limit := uint64(64*len(data) + 16<<10)
	var m M
	var err error
	for try, grew := 0, limit+1; grew > limit; try++ {
		if try == 3 {
			t.Fatalf("decoding %d bytes allocated %d bytes (limit %d)", len(data), grew, limit)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		m, err = decode(data)
		runtime.ReadMemStats(&after)
		grew = after.TotalAlloc - before.TotalAlloc
	}
	if err != nil {
		return false
	}
	again, err := decode(encode(&m))
	if err != nil {
		t.Fatalf("re-decoding an accepted message: %v", err)
	}
	if !reflect.DeepEqual(m, again) {
		t.Fatalf("round trip changed the message:\n%+v\n%+v", m, again)
	}
	return true
}
