package core

import (
	"fmt"

	"fmmfam/internal/matrix"
)

// Kron composes two algorithms into the two-level algorithm of §3.4 of the
// paper: the coefficients are ⟦Ua⊗Ub, Va⊗Vb, Wa⊗Wb⟧ with rows re-ordered
// from recursive block indexing to this package's flat row-major block
// indexing, yielding a plain one-level ⟨MaMb, KaKb, NaNb⟩ algorithm with
// rank Ra·Rb that can be executed iteratively.
func Kron(a, b Algorithm) Algorithm {
	m, k, n := a.M*b.M, a.K*b.K, a.N*b.N
	r := a.R * b.R
	u := kronFactor(a.U, b.U, a.M, a.K, b.M, b.K)
	v := kronFactor(a.V, b.V, a.K, a.N, b.K, b.N)
	w := kronFactor(a.W, b.W, a.M, a.N, b.M, b.N)
	return Algorithm{
		Name: a.Name + "⊗" + b.Name,
		M:    m, K: k, N: n, R: r,
		U: u, V: v, W: w,
	}
}

// kronFactor builds the row-permuted Kronecker product of two coefficient
// factors whose rows are indexed by (row, col) pairs over ra×ca and rb×cb
// grids: output row ((ra_i·rb + rb_i), (ca_j·cb + cb_j)) in the flattened
// (ra·rb)×(ca·cb) grid, output column r1·Rb + r2.
func kronFactor(fa, fb matrix.Mat[float64], ra, ca, rb, cb int) matrix.Mat[float64] {
	out := matrix.New[float64](ra*rb*ca*cb, fa.Cols*fb.Cols)
	for i1 := 0; i1 < ra; i1++ {
		for j1 := 0; j1 < ca; j1++ {
			rowA := fa.Data[(i1*ca+j1)*fa.Stride:]
			for i2 := 0; i2 < rb; i2++ {
				for j2 := 0; j2 < cb; j2++ {
					rowB := fb.Data[(i2*cb+j2)*fb.Stride:]
					flatRow := (i1*rb+i2)*(ca*cb) + (j1*cb + j2)
					dst := out.Data[flatRow*out.Stride:]
					for r1 := 0; r1 < fa.Cols; r1++ {
						av := rowA[r1]
						if av == 0 {
							continue
						}
						base := r1 * fb.Cols
						for r2 := 0; r2 < fb.Cols; r2++ {
							dst[base+r2] = av * rowB[r2]
						}
					}
				}
			}
		}
	}
	return out
}

// KronAll left-folds Kron over the levels, giving the L-level algorithm of
// §3.5 as a flat one-level algorithm. The empty product is Kron's identity
// element, the ⟨1,1,1⟩;1 algorithm C += A·B — plain GEMM as the zero-level
// member of the family.
func KronAll(levels ...Algorithm) Algorithm {
	if len(levels) == 0 {
		return Classical(1, 1, 1)
	}
	out := levels[0]
	for _, l := range levels[1:] {
		out = Kron(out, l)
	}
	return out
}

// Rotate maps an ⟨m,k,n⟩ algorithm to a ⟨k,n,m⟩ algorithm (the cyclic
// symmetry of the matrix multiplication tensor): U' = V, V' = swap(W),
// W' = swap(U), where swap transposes a row index pair (x,y) → (y,x).
func Rotate(a Algorithm) Algorithm {
	return Algorithm{
		Name: a.Name + "·rot",
		M:    a.K, K: a.N, N: a.M, R: a.R,
		U: a.V.Clone(),
		V: swapRows(a.W, a.M, a.N),
		W: swapRows(a.U, a.M, a.K),
	}
}

// Transpose maps an ⟨m,k,n⟩ algorithm to an ⟨n,k,m⟩ algorithm (C = AB ⇒
// Cᵀ = BᵀAᵀ): U' = swap(V), V' = swap(U), W' = swap(W).
func Transpose(a Algorithm) Algorithm {
	return Algorithm{
		Name: a.Name + "·T",
		M:    a.N, K: a.K, N: a.M, R: a.R,
		U: swapRows(a.V, a.K, a.N),
		V: swapRows(a.U, a.M, a.K),
		W: swapRows(a.W, a.M, a.N),
	}
}

// swapRows reindexes the rows of f, which are addressed by pairs (x,y) over
// an rows×cols grid, to the transposed addressing (y,x) over cols×rows.
func swapRows(f matrix.Mat[float64], rows, cols int) matrix.Mat[float64] {
	out := matrix.New[float64](f.Rows, f.Cols)
	for x := 0; x < rows; x++ {
		for y := 0; y < cols; y++ {
			src := f.Data[(x*cols+y)*f.Stride : (x*cols+y)*f.Stride+f.Cols]
			dst := out.Data[(y*rows+x)*out.Stride:]
			copy(dst[:f.Cols], src)
		}
	}
	return out
}

// Reorient returns an algorithm with shape exactly ⟨m,k,n⟩ derived from a by
// some composition of Rotate and Transpose, or an error if no permutation of
// a's shape matches.
func Reorient(a Algorithm, m, k, n int) (Algorithm, error) {
	cands := []Algorithm{a, Rotate(a), Rotate(Rotate(a)), Transpose(a), Transpose(Rotate(a)), Transpose(Rotate(Rotate(a)))}
	for _, c := range cands {
		if c.M == m && c.K == k && c.N == n {
			return c, nil
		}
	}
	return Algorithm{}, fmt.Errorf("core: cannot reorient %s to <%d,%d,%d>", a.ShapeString(), m, k, n)
}

// Dim names the three partition dimensions for direct sums.
type Dim int

// The three partition dimensions.
const (
	DimM Dim = iota
	DimK
	DimN
)

func (d Dim) String() string { return [...]string{"m", "k", "n"}[d] }

// DirectSum splits one partition dimension between two algorithms:
//
//	DimM: ⟨m1,k,n⟩ ⊕ ⟨m2,k,n⟩ → ⟨m1+m2,k,n⟩  (row blocks of A and C)
//	DimN: ⟨m,k,n1⟩ ⊕ ⟨m,k,n2⟩ → ⟨m,k,n1+n2⟩  (column blocks of B and C)
//	DimK: ⟨m,k1,n⟩ ⊕ ⟨m,k2,n⟩ → ⟨m,k1+k2,n⟩  (C = A1·B1 + A2·B2)
//
// with rank R1+R2. This is the construction behind e.g. ⟨2,2,3⟩;11 =
// ⟨2,2,2⟩;7 ⊕ ⟨2,2,1⟩;4 (Hopcroft–Kerr rank).
func DirectSum(d Dim, a, b Algorithm) Algorithm {
	r := a.R + b.R
	name := fmt.Sprintf("(%s⊕%s%s)", a.Name, d, b.Name)
	switch d {
	case DimM:
		if a.K != b.K || a.N != b.N {
			panic("core: DirectSum(DimM) needs matching k,n")
		}
		m, k, n := a.M+b.M, a.K, a.N
		u := matrix.New[float64](m*k, r)
		stackPair(u, a.U, b.U, a.M, k, b.M, k, a.R)
		v := matrix.New[float64](k*n, r)
		concatCols(v, a.V, b.V)
		w := matrix.New[float64](m*n, r)
		stackPair(w, a.W, b.W, a.M, n, b.M, n, a.R)
		return Algorithm{Name: name, M: m, K: k, N: n, R: r, U: u, V: v, W: w}
	case DimN:
		if a.M != b.M || a.K != b.K {
			panic("core: DirectSum(DimN) needs matching m,k")
		}
		m, k, n := a.M, a.K, a.N+b.N
		u := matrix.New[float64](m*k, r)
		concatCols(u, a.U, b.U)
		v := matrix.New[float64](k*n, r)
		interleavePair(v, a.V, b.V, k, a.N, b.N, a.R)
		w := matrix.New[float64](m*n, r)
		interleavePair(w, a.W, b.W, m, a.N, b.N, a.R)
		return Algorithm{Name: name, M: m, K: k, N: n, R: r, U: u, V: v, W: w}
	case DimK:
		if a.M != b.M || a.N != b.N {
			panic("core: DirectSum(DimK) needs matching m,n")
		}
		m, k, n := a.M, a.K+b.K, a.N
		u := matrix.New[float64](m*k, r)
		interleavePair(u, a.U, b.U, m, a.K, b.K, a.R)
		v := matrix.New[float64](k*n, r)
		stackPair(v, a.V, b.V, a.K, n, b.K, n, a.R)
		w := matrix.New[float64](m*n, r)
		concatCols(w, a.W, b.W)
		return Algorithm{Name: name, M: m, K: k, N: n, R: r, U: u, V: v, W: w}
	}
	panic("core: bad Dim")
}

// concatCols writes [fa | fb] into dst (same row space, disjoint columns).
func concatCols(dst, fa, fb matrix.Mat[float64]) {
	for i := 0; i < fa.Rows; i++ {
		copy(dst.Data[i*dst.Stride:], fa.Data[i*fa.Stride:i*fa.Stride+fa.Cols])
		copy(dst.Data[i*dst.Stride+fa.Cols:], fb.Data[i*fb.Stride:i*fb.Stride+fb.Cols])
	}
}

// stackPair places fa's rows (grid ra×ca) before fb's rows (grid rb×cb, with
// ca == cb) in dst, fa occupying columns [0,colsA) and fb [colsA,R): the row
// grids are stacked along the first coordinate.
func stackPair(dst, fa, fb matrix.Mat[float64], ra, ca, rb, cb, colsA int) {
	for i := 0; i < fa.Rows; i++ {
		copy(dst.Data[i*dst.Stride:], fa.Data[i*fa.Stride:i*fa.Stride+fa.Cols])
	}
	for i := 0; i < fb.Rows; i++ {
		copy(dst.Data[(fa.Rows+i)*dst.Stride+colsA:], fb.Data[i*fb.Stride:i*fb.Stride+fb.Cols])
	}
}

// interleavePair merges row grids split along the *second* coordinate: dst
// rows are indexed (x, y) over rows×(ca+cb); y < ca rows come from fa
// (columns [0,colsA)), the rest from fb (columns [colsA,R)).
func interleavePair(dst, fa, fb matrix.Mat[float64], rows, ca, cb, colsA int) {
	for x := 0; x < rows; x++ {
		for y := 0; y < ca; y++ {
			copy(dst.Data[(x*(ca+cb)+y)*dst.Stride:], fa.Data[(x*ca+y)*fa.Stride:(x*ca+y)*fa.Stride+fa.Cols])
		}
		for y := 0; y < cb; y++ {
			copy(dst.Data[(x*(ca+cb)+ca+y)*dst.Stride+colsA:], fb.Data[(x*cb+y)*fb.Stride:(x*cb+y)*fb.Stride+fb.Cols])
		}
	}
}
