// Copyright (c) 2019 The Go Authors. All rights reserved.
// Use of this source code is governed by a BSD-style
// license that can be found in the LICENSE file.

package edwards25519

import "crypto/rand"

// varTimeMultiScalarMult sets v = [b]B + Σ [scalars[j]]points[j], where B is
// the canonical generator, and returns v. It is Straus's method in the shape
// of VarTimeDoubleScalarBaseMult: one NAF-5 table per point, the NAF-8
// basepoint table, and one shared chain of doublings.
//
// Execution time depends on the inputs.
func (v *Point) varTimeMultiScalarMult(b *Scalar, scalars []Scalar, points []*Point) *Point {
	checkInitialized(points...)
	tables := make([]nafLookupTable5, len(points))
	nafs := make([][256]int8, len(points))
	for j := range points {
		tables[j].FromP3(points[j])
		nafs[j] = scalars[j].nonAdjacentForm(5)
	}
	basepointNafTable := basepointNafTable()
	bNaf := b.nonAdjacentForm(8)

	// Find the first nonzero coefficient.
	top := -1
	for i := 255; i >= 0 && top < 0; i-- {
		if bNaf[i] != 0 {
			top = i
		}
		for j := range nafs {
			if nafs[j][i] != 0 {
				top = i
			}
		}
	}

	mult := &projCached{}
	multB := &affineCached{}
	tmp1 := &projP1xP1{}
	tmp2 := &projP2{}
	tmp2.Zero()
	for i := top; i >= 0; i-- {
		tmp1.Double(tmp2)
		for j := range nafs {
			if d := nafs[j][i]; d > 0 {
				v.fromP1xP1(tmp1)
				tables[j].SelectInto(mult, d)
				tmp1.Add(v, mult)
			} else if d < 0 {
				v.fromP1xP1(tmp1)
				tables[j].SelectInto(mult, -d)
				tmp1.Sub(v, mult)
			}
		}
		if bNaf[i] > 0 {
			v.fromP1xP1(tmp1)
			basepointNafTable.SelectInto(multB, bNaf[i])
			tmp1.AddAffine(v, multB)
		} else if bNaf[i] < 0 {
			v.fromP1xP1(tmp1)
			basepointNafTable.SelectInto(multB, -bNaf[i])
			tmp1.SubAffine(v, multB)
		}
		tmp2.FromP1xP1(tmp1)
	}
	v.fromP2(tmp2)
	return v
}

// BatchEquation reports whether the n signature equations
// [sᵢ]B = Rᵢ + [kᵢ]A_owner[i] hold up to the cofactor, all at once, by checking
//
//	[8]([−Σ zᵢsᵢ]B + Σ [zᵢ]Rᵢ + Σⱼ [Σ_{owner[i]=j} zᵢkᵢ]Aⱼ) = 0
//
// for fresh uniformly random 128-bit zᵢ from crypto/rand. A holds the m keys
// and owner[i] the index in A of the key that signed signature i, so the
// signatures of one key share one term: the multiplication runs over n + m + 1
// points instead of 2n + 1, and the sum is the one a term [zᵢkᵢ]Aᵢ per
// signature would make. If every equation holds the sum is 0; if one does
// not, it is 0 with probability 2⁻¹²⁸. An error means no randomness was had
// and nothing was checked.
//
// Execution time depends on the inputs.
func BatchEquation(A []Point, owner []int, R []Point, s, k []Scalar) (bool, error) {
	n := len(R)
	z := make([]byte, 16*n)
	if _, err := rand.Read(z); err != nil {
		return false, err
	}
	scalars := make([]Scalar, n+len(A))
	points := make([]*Point, n+len(A))
	for j := range A {
		points[n+j] = &A[j]
	}
	var b Scalar
	for i := 0; i < n; i++ {
		zi := scalars[i].setShortBytes(z[16*i : 16*i+16])
		a := &scalars[n+owner[i]]
		a.MultiplyAdd(zi, &k[i], a)
		b.MultiplyAdd(zi, &s[i], &b)
		points[i] = &R[i]
	}
	b.Negate(&b)
	sum := new(Point).varTimeMultiScalarMult(&b, scalars, points)
	sum.Add(sum, sum)
	sum.Add(sum, sum)
	sum.Add(sum, sum)
	return sum.Equal(identity) == 1, nil
}
