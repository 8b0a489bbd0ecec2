// Package edwards25519 is the group arithmetic of the edwards25519 curve
// that signature verification needs: point decoding and encoding, addition,
// the variable-time double-scalar multiplication single verification uses,
// and a multi-scalar multiplication for the cofactored batch equation.
//
// It is a copy of the Go 1.24.0 toolchain's
// src/crypto/internal/fips140/edwards25519 (BSD licence, see LICENSE):
// edwards25519.go, scalar.go, scalar_fiat.go, scalarmult.go, tables.go and
// field/{fe.go, fe_generic.go, fe_amd64.go, fe_amd64.s, fe_amd64_noasm.go}.
// The edits, and nothing else:
//
//   - the `_ "crypto/internal/fips140/check"` imports are dropped;
//   - crypto/internal/fips140/subtle is crypto/subtle, and
//     crypto/internal/fips140deps/byteorder's LEUint64/LEPutUint64 are
//     encoding/binary.LittleEndian's Uint64/PutUint64;
//   - the field import path is this package's;
//   - what verification never calls is deleted: the constant-time
//     ScalarBaseMult and ScalarMult, basepointTable, signedRadix16, the
//     affine and projective lookup tables with their constructors and
//     selectors, and the constant-time Select/CondNeg of the cached point
//     forms;
//   - the arm64 assembly is not copied: field/fe_generic.go gains
//     carryPropagate, calling carryPropagateGeneric, so every architecture
//     but amd64 (and amd64 under -tags purego) runs the generic field code;
//   - batch.go is new: varTimeMultiScalarMult (Straus's method, modelled on
//     VarTimeDoubleScalarBaseMult) and BatchEquation, the cofactored batch
//     check with 128-bit random coefficients from crypto/rand, in which the
//     signatures of one key share that key's term.
package edwards25519
