package core

import (
	"fmt"

	"fmmfam/internal/matrix"
)

// Classical returns the trivial ⟨m,k,n⟩ algorithm with R = m·k·n: every block
// product is computed directly. It is the identity element of the family
// generator and the fallback for shapes with no faster construction.
func Classical(m, k, n int) Algorithm {
	if m < 1 || k < 1 || n < 1 {
		panic(fmt.Sprintf("core: Classical(%d,%d,%d)", m, k, n))
	}
	r := m * k * n
	u := matrix.New[float64](m*k, r)
	v := matrix.New[float64](k*n, r)
	w := matrix.New[float64](m*n, r)
	idx := 0
	for im := 0; im < m; im++ {
		for ik := 0; ik < k; ik++ {
			for in := 0; in < n; in++ {
				u.Set(im*k+ik, idx, 1)
				v.Set(ik*n+in, idx, 1)
				w.Set(im*n+in, idx, 1)
				idx++
			}
		}
	}
	return Algorithm{Name: "classical", M: m, K: k, N: n, R: r, U: u, V: v, W: w}
}

// Strassen is the one-level ⟨2,2,2⟩;7 algorithm with the exact coefficients
// of equation (4) of the paper (Strassen 1969, computations (2)).
func Strassen() Algorithm {
	u := matrix.FromRows([][]float64{
		{1, 0, 1, 0, 1, -1, 0},
		{0, 0, 0, 0, 1, 0, 1},
		{0, 1, 0, 0, 0, 1, 0},
		{1, 1, 0, 1, 0, 0, -1},
	})
	v := matrix.FromRows([][]float64{
		{1, 1, 0, -1, 0, 1, 0},
		{0, 0, 1, 0, 0, 1, 0},
		{0, 0, 0, 1, 0, 0, 1},
		{1, 0, -1, 0, 1, 0, 1},
	})
	w := matrix.FromRows([][]float64{
		{1, 0, 0, 1, -1, 0, 1},
		{0, 0, 1, 0, 1, 0, 0},
		{0, 1, 0, 1, 0, 0, 0},
		{1, -1, 1, 0, 0, 1, 0},
	})
	return Algorithm{Name: "strassen", M: 2, K: 2, N: 2, R: 7, U: u, V: v, W: w}
}

// Winograd is the Strassen–Winograd ⟨2,2,2⟩;7 variant. As a flattened
// ⟦U,V,W⟧ triple it has *more* non-zeros than Strassen (the variant's saving
// comes from common subexpressions, which this representation does not
// capture — see §1 of the paper on [1] vs this work), so the catalog prefers
// Strassen; Winograd is retained as a second independent seed for tests and
// for the discovery module's canonicalization experiments.
func Winograd() Algorithm {
	// M1=(−A0+A2+A3)(B0−B1+B3), M2=A0·B0, M3=A1·B2, M4=(A0−A2)(B3−B1),
	// M5=(A2+A3)(B1−B0), M6=(A0+A1−A2−A3)·B3, M7=A3·(B0−B1−B2+B3);
	// C0=M2+M3, C1=M1+M2+M5+M6, C2=M1+M2+M4−M7, C3=M1+M2+M4+M5.
	u := matrix.FromRows([][]float64{
		{-1, 1, 0, 1, 0, 1, 0},
		{0, 0, 1, 0, 0, 1, 0},
		{1, 0, 0, -1, 1, -1, 0},
		{1, 0, 0, 0, 1, -1, 1},
	})
	v := matrix.FromRows([][]float64{
		{1, 1, 0, 0, -1, 0, 1},
		{-1, 0, 0, -1, 1, 0, -1},
		{0, 0, 1, 0, 0, 0, -1},
		{1, 0, 0, 1, 0, 1, 1},
	})
	w := matrix.FromRows([][]float64{
		{0, 1, 1, 0, 0, 0, 0},
		{1, 1, 0, 0, 1, 1, 0},
		{1, 1, 0, 1, 0, 0, -1},
		{1, 1, 0, 1, 1, 0, 0},
	})
	return Algorithm{Name: "winograd", M: 2, K: 2, N: 2, R: 7, U: u, V: v, W: w}
}

// seeds lists the verified nontrivial base algorithms available to the
// generator, keyed by shape. RegisterSeed adds more (e.g. from discovery).
var seeds = map[[3]int]Algorithm{}

func init() {
	RegisterSeed(Strassen())
}

// RegisterSeed verifies a and, if it improves on the current seed for its
// shape (strictly lower R), makes it available to the generator. It returns
// an error if the algorithm fails verification. Registering clears the
// generator memo so subsequent Generate calls see the new seed.
func RegisterSeed(a Algorithm) error {
	if err := a.Verify(); err != nil {
		return err
	}
	key := [3]int{a.M, a.K, a.N}
	if cur, ok := seeds[key]; ok && cur.R <= a.R {
		return nil
	}
	seeds[key] = a
	resetGenerateMemo()
	return nil
}
