package encoding

import "math/bits"

// BitVec is a bit-packed 0/1 feature vector: bit i lives at word i/64, bit
// position i%64. The paper's k-sparse representation is overwhelmingly
// zeros, so packing 64 features per word turns the dense O(f) float loops of
// selection and training into a handful of word operations plus popcounts.
// Bits beyond the logical length are always zero (Pack guarantees it; Set
// panics rather than growing), so popcount reductions never need a length.
type BitVec []uint64

// NewBitVec returns an all-zero vector able to hold n bits.
func NewBitVec(n int) BitVec { return make(BitVec, (n+63)/64) }

// Set sets bit i.
func (b BitVec) Set(i int) { b[i>>6] |= 1 << uint(i&63) }

// Clear clears bit i.
func (b BitVec) Clear(i int) { b[i>>6] &^= 1 << uint(i&63) }

// Get reports whether bit i is set. Bits beyond the backing words read as 0.
func (b BitVec) Get(i int) bool {
	if w := i >> 6; w < len(b) {
		return b[w]&(1<<uint(i&63)) != 0
	}
	return false
}

// Ones returns the number of set bits (the k of the k-sparse vector).
func (b BitVec) Ones() int {
	n := 0
	for _, w := range b {
		n += bits.OnesCount64(w)
	}
	return n
}

// AndCount returns popcount(b AND o) — the co-occurrence count the packed
// Pearson and mutual-information kernels are built on. Vectors of unequal
// word length are compared over the common prefix (missing words are zero).
func (b BitVec) AndCount(o BitVec) int {
	if len(o) < len(b) {
		b = b[:len(o)]
	}
	n := 0
	for i, w := range b {
		n += bits.OnesCount64(w & o[i])
	}
	return n
}

// Pack converts a dense 0/1 row into its packed form: bit i is set iff
// row[i] is non-zero.
func Pack(row []float64) BitVec {
	b := NewBitVec(len(row))
	for i, v := range row {
		if v != 0 {
			b[i>>6] |= 1 << uint(i&63)
		}
	}
	return b
}

// PackColumn packs column j of matrix X: bit i is set iff X[i][j] >= thr.
// Feature selection works column-wise, so this avoids materializing the
// transpose.
func PackColumn(X [][]float64, j int, thr float64) BitVec {
	b := NewBitVec(len(X))
	for i, row := range X {
		if row[j] >= thr {
			b[i>>6] |= 1 << uint(i&63)
		}
	}
	return b
}

// PackRows packs every row of a 0/1 matrix.
func PackRows(X [][]float64) []BitVec {
	out := make([]BitVec, len(X))
	for i, row := range X {
		out[i] = Pack(row)
	}
	return out
}

// Project returns the vector restricted to the given bit indices: output
// bit j mirrors bit idx[j] of b.
func (b BitVec) Project(idx []int) BitVec {
	out := NewBitVec(len(idx))
	for j, f := range idx {
		if b.Get(f) {
			out.Set(j)
		}
	}
	return out
}

// Unpack expands the packed vector back into a dense 0/1 float row of width
// n — the inverse of Pack for binary input, used by equivalence tests.
func (b BitVec) Unpack(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		if b.Get(i) {
			out[i] = 1
		}
	}
	return out
}
