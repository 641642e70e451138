package core

import (
	"testing"
)

// Ranks the seed closure is expected to reach (see generate.go): exact
// matches with Figure 2 where the paper's rank is achievable by direct sums
// and Kronecker products of Strassen, and the best-reachable rank elsewhere.
func TestGenerateRanks(t *testing.T) {
	cases := []struct {
		m, k, n int
		wantR   int
	}{
		{1, 1, 1, 1},
		{2, 2, 2, 7},  // paper 7 (exact)
		{2, 3, 2, 11}, // paper 11 (exact)
		{3, 2, 2, 11}, // paper 11 (exact)
		{2, 5, 2, 18}, // paper 18 (exact)
		{5, 2, 2, 18}, // paper 18 (exact)
		{4, 2, 2, 14}, // paper 14 (exact)
		{4, 4, 4, 49}, // Strassen⊗Strassen
		{3, 3, 3, 26}, // paper 23 (Smirnov; not in closure)
		{3, 2, 3, 17}, // paper 15
		{2, 3, 4, 22}, // paper 20
		{4, 4, 2, 26}, // paper 26 — closure reaches 26? expect ≤ 28
	}
	for _, tc := range cases {
		a := Generate(tc.m, tc.k, tc.n)
		if a.M != tc.m || a.K != tc.k || a.N != tc.n {
			t.Fatalf("Generate(%d,%d,%d) shape %s", tc.m, tc.k, tc.n, a.ShapeString())
		}
		if tc.m == 4 && tc.k == 4 && tc.n == 2 {
			if a.R > 28 {
				t.Fatalf("Generate(4,4,2) rank %d > 28", a.R)
			}
			continue
		}
		if a.R != tc.wantR {
			t.Fatalf("Generate(%d,%d,%d) rank %d, want %d (%s)", tc.m, tc.k, tc.n, a.R, tc.wantR, a.Name)
		}
	}
}

func TestGenerateOutputsVerify(t *testing.T) {
	for m := 1; m <= 4; m++ {
		for k := 1; k <= 4; k++ {
			for n := 1; n <= 4; n++ {
				a := Generate(m, k, n)
				if err := a.Verify(); err != nil {
					t.Fatalf("Generate(%d,%d,%d): %v", m, k, n, err)
				}
				if a.R > m*k*n {
					t.Fatalf("Generate(%d,%d,%d) worse than classical: %d", m, k, n, a.R)
				}
			}
		}
	}
}

func TestGeneratePermutationInvariance(t *testing.T) {
	r1 := Generate(2, 3, 4).R
	for _, s := range [][3]int{{2, 4, 3}, {3, 2, 4}, {3, 4, 2}, {4, 2, 3}, {4, 3, 2}} {
		if r := Generate(s[0], s[1], s[2]).R; r != r1 {
			t.Fatalf("rank not permutation-invariant: %v → %d vs %d", s, r, r1)
		}
	}
}

func TestGenerateMemoised(t *testing.T) {
	a := Generate(3, 3, 3)
	b := Generate(3, 3, 3)
	if &a.U.Data[0] != &b.U.Data[0] {
		t.Fatal("memo not shared")
	}
}

func TestRegisterSeedImprovesGenerate(t *testing.T) {
	// Register a fake better-rank seed is impossible (would fail Verify), so
	// instead register Winograd for <2,2,2>: same rank, must NOT replace.
	before := Generate(2, 2, 2)
	if err := RegisterSeed(Winograd()); err != nil {
		t.Fatal(err)
	}
	after := Generate(2, 2, 2)
	if after.Name != before.Name {
		t.Fatalf("equal-rank seed replaced existing: %s → %s", before.Name, after.Name)
	}
}

func TestRegisterSeedRejectsInvalid(t *testing.T) {
	bad := Strassen()
	bad.U = bad.U.Clone()
	bad.U.Set(0, 0, 2)
	if err := RegisterSeed(bad); err == nil {
		t.Fatal("invalid seed accepted")
	}
}

func TestCatalogCoversFigure2(t *testing.T) {
	cat := Catalog()
	if len(cat) != 23 {
		t.Fatalf("catalog has %d entries, want 23", len(cat))
	}
	for _, e := range cat {
		if err := e.Algorithm.Verify(); err != nil {
			t.Fatalf("%s: %v", e.Shape(), err)
		}
		if e.OurRank() < e.PaperRank {
			t.Fatalf("%s: our rank %d beats the literature rank %d — combinator bug",
				e.Shape(), e.OurRank(), e.PaperRank)
		}
		if e.OurRank() > e.M*e.K*e.N {
			t.Fatalf("%s: rank %d worse than classical", e.Shape(), e.OurRank())
		}
	}
}

func TestCatalogExactRankMatches(t *testing.T) {
	// Shapes whose Figure-2 rank the closure reproduces exactly.
	exact := [][3]int{{2, 2, 2}, {2, 3, 2}, {3, 2, 2}, {2, 5, 2}, {5, 2, 2}, {4, 2, 2}}
	for _, s := range exact {
		e, ok := CatalogShape(s[0], s[1], s[2])
		if !ok {
			t.Fatalf("%v missing from catalog", s)
		}
		if e.OurRank() != e.PaperRank {
			t.Fatalf("%s: our %d != paper %d", e.Shape(), e.OurRank(), e.PaperRank)
		}
	}
}

func TestCatalogShapeMissing(t *testing.T) {
	if _, ok := CatalogShape(7, 7, 7); ok {
		t.Fatal("unexpected catalog entry")
	}
}
