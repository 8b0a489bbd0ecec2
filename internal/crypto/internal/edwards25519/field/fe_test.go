package field

import (
	"math/rand"
	"testing"
)

// The assembly multiplication and squaring (amd64) and the generic code every
// other build runs agree.
func TestMulSquareMatchGeneric(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var buf [32]byte
	for i := 0; i < 1000; i++ {
		var x, y Element
		rng.Read(buf[:])
		if _, err := x.SetBytes(buf[:]); err != nil {
			t.Fatal(err)
		}
		rng.Read(buf[:])
		if _, err := y.SetBytes(buf[:]); err != nil {
			t.Fatal(err)
		}
		var got, want Element
		feMul(&got, &x, &y)
		feMulGeneric(&want, &x, &y)
		if got.Equal(&want) != 1 {
			t.Fatalf("feMul(%x, %x) differs from the generic code", x.Bytes(), y.Bytes())
		}
		feSquare(&got, &x)
		feSquareGeneric(&want, &x)
		if got.Equal(&want) != 1 {
			t.Fatalf("feSquare(%x) differs from the generic code", x.Bytes())
		}
	}
}
