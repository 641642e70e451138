package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"fmmfam/internal/morton"
)

func TestKronStrassenStrassen(t *testing.T) {
	two := Kron(Strassen(), Strassen())
	if two.M != 4 || two.K != 4 || two.N != 4 || two.R != 49 {
		t.Fatalf("bad shape %s R=%d", two.ShapeString(), two.R)
	}
	if err := two.Verify(); err != nil {
		t.Fatal(err)
	}
	u, v, w := two.NNZ()
	if u != 144 || v != 144 || w != 144 {
		t.Fatalf("nnz(⊗U)=%d nnz(⊗V)=%d nnz(⊗W)=%d; want 12² each", u, v, w)
	}
	checkApply(t, two, 2, 2, 2, 3)
}

func TestKronHeterogeneous(t *testing.T) {
	h := Kron(Strassen(), Classical(2, 3, 2))
	if h.M != 4 || h.K != 6 || h.N != 4 || h.R != 7*12 {
		t.Fatalf("bad %s R=%d", h.ShapeString(), h.R)
	}
	if err := h.Verify(); err != nil {
		t.Fatal(err)
	}
	checkApply(t, h, 1, 1, 2, 4)
}

func TestKronAllThreeLevels(t *testing.T) {
	three := KronAll(Strassen(), Strassen(), Strassen())
	if three.M != 8 || three.R != 343 {
		t.Fatalf("bad three-level %s R=%d", three.ShapeString(), three.R)
	}
	if err := three.Verify(); err != nil {
		t.Fatal(err)
	}
}

// The empty Kronecker product is the ⟨1,1,1⟩;1 identity: it verifies, and
// composing it with an algorithm changes nothing but the name.
func TestKronAllEmptyIsIdentity(t *testing.T) {
	id := KronAll()
	if id.M != 1 || id.K != 1 || id.N != 1 || id.R != 1 {
		t.Fatalf("KronAll() = %s R=%d, want <1,1,1> R=1", id.ShapeString(), id.R)
	}
	if u, v, w := id.NNZ(); u != 1 || v != 1 || w != 1 {
		t.Fatalf("identity nnz = %d,%d,%d, want 1,1,1", u, v, w)
	}
	if err := id.Verify(); err != nil {
		t.Fatal(err)
	}
	s := Strassen()
	for _, got := range []Algorithm{Kron(id, s), Kron(s, id)} {
		if got.ShapeString() != s.ShapeString() || got.R != s.R ||
			got.U.MaxAbsDiff(s.U) != 0 || got.V.MaxAbsDiff(s.V) != 0 || got.W.MaxAbsDiff(s.W) != 0 {
			t.Fatalf("Kron with the identity changed %s", s)
		}
	}
}

// The Kron combinator must equal the textbook Kronecker product with rows
// re-ordered by the Morton (recursive block) → flat permutation.
func TestKronMatchesMortonPermutedTextbookProduct(t *testing.T) {
	a, b := Strassen(), Classical(2, 1, 3)
	got := Kron(a, b)
	perm := morton.Permutation([]morton.Grid{{R: a.M, C: a.K}, {R: b.M, C: b.K}})
	for i1 := 0; i1 < a.M*a.K; i1++ {
		for i2 := 0; i2 < b.M*b.K; i2++ {
			rec := i1*(b.M*b.K) + i2
			for r1 := 0; r1 < a.R; r1++ {
				for r2 := 0; r2 < b.R; r2++ {
					want := a.U.At(i1, r1) * b.U.At(i2, r2)
					if got.U.At(perm[rec], r1*b.R+r2) != want {
						t.Fatalf("U mismatch at rec=%d r=(%d,%d)", rec, r1, r2)
					}
				}
			}
		}
	}
}

func TestRotatePreservesValidity(t *testing.T) {
	a := Classical(2, 3, 4)
	r := Rotate(a)
	if r.M != 3 || r.K != 4 || r.N != 2 {
		t.Fatalf("rotate shape %s", r.ShapeString())
	}
	if err := r.Verify(); err != nil {
		t.Fatal(err)
	}
	if err := Rotate(Strassen()).Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestTransposePreservesValidity(t *testing.T) {
	a := Classical(2, 3, 4)
	tr := Transpose(a)
	if tr.M != 4 || tr.K != 3 || tr.N != 2 {
		t.Fatalf("transpose shape %s", tr.ShapeString())
	}
	if err := tr.Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestRotateThriceIsIdentityShape(t *testing.T) {
	a := Classical(2, 3, 4)
	r3 := Rotate(Rotate(Rotate(a)))
	if r3.M != a.M || r3.K != a.K || r3.N != a.N {
		t.Fatalf("rotate³ shape %s", r3.ShapeString())
	}
	if r3.U.MaxAbsDiff(a.U) != 0 || r3.V.MaxAbsDiff(a.V) != 0 || r3.W.MaxAbsDiff(a.W) != 0 {
		t.Fatal("rotate³ is not the identity")
	}
}

func TestTransposeTwiceIsIdentity(t *testing.T) {
	a := Strassen()
	tt := Transpose(Transpose(a))
	if tt.U.MaxAbsDiff(a.U) != 0 || tt.V.MaxAbsDiff(a.V) != 0 || tt.W.MaxAbsDiff(a.W) != 0 {
		t.Fatal("transpose² is not the identity")
	}
}

func TestReorientAllSixOrientations(t *testing.T) {
	a := Classical(2, 3, 4)
	for _, s := range [][3]int{{2, 3, 4}, {2, 4, 3}, {3, 2, 4}, {3, 4, 2}, {4, 2, 3}, {4, 3, 2}} {
		ro, err := Reorient(a, s[0], s[1], s[2])
		if err != nil {
			t.Fatalf("reorient to %v: %v", s, err)
		}
		if err := ro.Verify(); err != nil {
			t.Fatalf("reorient to %v invalid: %v", s, err)
		}
	}
}

func TestReorientImpossible(t *testing.T) {
	if _, err := Reorient(Strassen(), 2, 2, 3); err == nil {
		t.Fatal("expected error")
	}
}

func TestDirectSumEachDim(t *testing.T) {
	s := Strassen()
	cases := []struct {
		name    string
		algo    Algorithm
		m, k, n int
		r       int
	}{
		{"N: <2,2,3>;11", DirectSum(DimN, s, Classical(2, 2, 1)), 2, 2, 3, 11},
		{"M: <3,2,2>;11", DirectSum(DimM, s, Classical(1, 2, 2)), 3, 2, 2, 11},
		{"K: <2,3,2>;11", DirectSum(DimK, s, Classical(2, 1, 2)), 2, 3, 2, 11},
	}
	for _, tc := range cases {
		if tc.algo.M != tc.m || tc.algo.K != tc.k || tc.algo.N != tc.n || tc.algo.R != tc.r {
			t.Fatalf("%s: got %s R=%d", tc.name, tc.algo.ShapeString(), tc.algo.R)
		}
		if err := tc.algo.Verify(); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		checkApply(t, tc.algo, 2, 2, 2, 5)
	}
}

func TestDirectSumMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	DirectSum(DimM, Strassen(), Classical(1, 3, 2))
}

// Property: random combinator expressions over verified algorithms stay
// verified. This exercises closure of the family under the generators.
func TestCombinatorClosureProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		pool := []Algorithm{Strassen(), Winograd(), Classical(1, 2, 1), Classical(2, 1, 2), Classical(1, 1, 2)}
		a := pool[rng.Intn(len(pool))]
		for step := 0; step < 3; step++ {
			switch rng.Intn(4) {
			case 0:
				a = Rotate(a)
			case 1:
				a = Transpose(a)
			case 2:
				b := pool[rng.Intn(len(pool))]
				if a.M*b.M*a.K*b.K*a.N*b.N <= 64 {
					a = Kron(a, b)
				}
			case 3:
				d := Dim(rng.Intn(3))
				var b Algorithm
				switch d {
				case DimM:
					b = Classical(1+rng.Intn(2), a.K, a.N)
				case DimK:
					b = Classical(a.M, 1+rng.Intn(2), a.N)
				default:
					b = Classical(a.M, a.K, 1+rng.Intn(2))
				}
				a = DirectSum(d, a, b)
			}
		}
		return a.Verify() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Every catalog algorithm stays valid under all six dimension permutations —
// the symmetry the generator's canonicalization relies on.
func TestCatalogReorientationClosure(t *testing.T) {
	if testing.Short() {
		t.Skip("23 shapes × 6 orientations")
	}
	for _, e := range Catalog() {
		dims := []int{e.M, e.K, e.N}
		perms := [][3]int{{0, 1, 2}, {0, 2, 1}, {1, 0, 2}, {1, 2, 0}, {2, 0, 1}, {2, 1, 0}}
		for _, p := range perms {
			ro, err := Reorient(e.Algorithm, dims[p[0]], dims[p[1]], dims[p[2]])
			if err != nil {
				t.Fatalf("%s → perm %v: %v", e.Shape(), p, err)
			}
			if err := ro.Verify(); err != nil {
				t.Fatalf("%s → perm %v invalid: %v", e.Shape(), p, err)
			}
			if ro.R != e.OurRank() {
				t.Fatalf("%s: rank changed under permutation", e.Shape())
			}
		}
	}
}

// nnz is preserved by permutations and multiplies under Kron.
func TestNNZInvariants(t *testing.T) {
	a := Generate(2, 3, 2)
	u0, v0, w0 := a.NNZ()
	r := Rotate(a)
	u1, v1, w1 := r.NNZ()
	if u0+v0+w0 != u1+v1+w1 {
		t.Fatal("rotation changed total nnz")
	}
	tp := Transpose(a)
	u2, v2, w2 := tp.NNZ()
	if u0+v0+w0 != u2+v2+w2 {
		t.Fatal("transpose changed total nnz")
	}
	kr := Kron(a, a)
	ku, kv, kw := kr.NNZ()
	if ku != u0*u0 || kv != v0*v0 || kw != w0*w0 {
		t.Fatalf("kron nnz (%d,%d,%d) != squares of (%d,%d,%d)", ku, kv, kw, u0, v0, w0)
	}
}

// Kron is associative up to coefficient equality (names differ).
func TestKronAssociativity(t *testing.T) {
	a, b, c := Strassen(), Classical(1, 2, 1), Generate(2, 2, 3)
	left := Kron(Kron(a, b), c)
	right := Kron(a, Kron(b, c))
	if left.M != right.M || left.K != right.K || left.N != right.N || left.R != right.R {
		t.Fatal("shape mismatch")
	}
	if left.U.MaxAbsDiff(right.U) != 0 || left.V.MaxAbsDiff(right.V) != 0 || left.W.MaxAbsDiff(right.W) != 0 {
		t.Fatal("Kron not associative")
	}
}

// Direct sums add ranks and nnz exactly.
func TestDirectSumAccounting(t *testing.T) {
	a, b := Strassen(), Classical(2, 2, 1)
	s := DirectSum(DimN, a, b)
	au, av, aw := a.NNZ()
	bu, bv, bw := b.NNZ()
	su, sv, sw := s.NNZ()
	if su != au+bu || sv != av+bv || sw != aw+bw {
		t.Fatalf("direct sum nnz (%d,%d,%d) != (%d,%d,%d)+(%d,%d,%d)", su, sv, sw, au, av, aw, bu, bv, bw)
	}
	if s.R != a.R+b.R {
		t.Fatal("rank not additive")
	}
}
