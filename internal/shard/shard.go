// Package shard splits one large C += A·B into independent block products
// that can be scheduled through a worker pool — the Benson–Ballard
// observation (1409.2908) that for large problems the parallel win comes
// from running independent sub-products concurrently rather than from
// parallelizing the loops of a single product.
//
// The decomposition is three-dimensional: C is cut into a GridM×GridN grid
// of output tiles, and — when Options.KSplit permits — the inner dimension
// is cut into GridK slabs, so tile (i, j, p) is the block product
//
//	C[i0:i1, j0:j1] += A[i0:i1, p0:p1] · B[p0:p1, j0:j1].
//
// With GridK == 1 (K kept whole) the shards write disjoint regions of C —
// no reduction, no synchronization, bit-identical results regardless of
// scheduling order — and each shard keeps the largest possible inner
// dimension, which is where fast-algorithm speedups live. Splitting K is
// the escape hatch for K-dominant problems (small M×N output, huge inner
// dimension — the ML reduction shape) that otherwise have no room for two
// above-floor output tiles and would run on a single worker: the GridK slab
// products of one output tile accumulate into per-slab reduction buffers
// that the executor folds into C in ascending slab order, so results stay
// run-to-run deterministic even though scheduling is not.
//
// The grid is chosen by minimizing the caller's Options.Cost, a modelled
// makespan of scheduling the tiles on Workers equal workers (the performance
// model's ShardMakespan, which prices ⌈tiles/Workers⌉ rounds of the largest
// tile plus the reduction folds of a K-split grid, in seconds), subject to
// every cut dimension staying at or above a caller-given floor. Ties go to
// the grid with the largest minimum output-tile side, then the fewest tiles,
// then the fewest K slabs: bigger tiles keep the product's plan near the
// shapes it was chosen for and amortize packing, worker-aligned tile counts
// avoid the straggler round a 9-tiles-on-4-workers schedule pays, and K
// stays whole unless splitting it actually wins.
//
// The multiplier asks Split for two grids and serves the one of lower
// makespan: tiles ≥ MC; K slabs ≥ break-even at or above the threshold; the
// cheaper grid wins — a grid with K whole at the GEMM blocking's MC, and, for
// a product at or above its shard threshold, one that may cut K at the
// performance model's fast-algorithm break-even. Every tile runs the plan the
// multiplier chose for the whole product.
package shard

import "fmt"

// DefaultOversub bounds the grid search at Workers×DefaultOversub tiles.
// Grids beyond one tile per worker only win on ragged shapes where uneven
// tiles make an extra round cheaper; a small factor is enough headroom to
// find those without searching absurd grids.
const DefaultOversub = 2

// Options controls Split.
type Options struct {
	// Workers is the scheduling width the shards will be fed to (≥1).
	Workers int
	// MinTile is the floor for every cut dimension — tile rows and cols,
	// and slab depth when K is split (≥1; see the package comment for how
	// the multiplier chooses it). An uncut dimension may stay below the
	// floor.
	MinTile int
	// KSplit permits cutting the K dimension into GridK slabs. The executor
	// then needs per-slab reduction buffers, and results are run-to-run
	// deterministic rather than bit-identical to the 2D path, so Cost
	// should charge K-split grids for the extra reduction traffic.
	KSplit bool
	// Cost scores a candidate GridM×GridN×GridK grid, lower being better:
	// typically the performance model's ShardMakespan in seconds. It is
	// required — Split panics without one — and must be deterministic, since
	// Split's choice is part of the determinism contract.
	Cost func(gm, gn, gk int) float64
}

// Tile is one shard: the block product
// C[I:I+Rows, J:J+Cols] += A[I:I+Rows, P:P+Depth] · B[P:P+Depth, J:J+Cols].
// P is the offset along the inner dimension; with an unsplit K every tile
// has P == 0 and Depth == K.
type Tile struct {
	I, J, P           int
	Rows, Cols, Depth int
}

// Spec is a chosen decomposition of C(M×N) += A(M×K)·B(K×N) into a
// GridM×GridN grid of output tiles, each cut into GridK K-slabs. Split
// always sets GridK ≥ 1; a hand-built Spec with GridK == 0 is treated as
// GridK == 1 (the pre-K-split layout).
type Spec struct {
	M, K, N             int
	GridM, GridN, GridK int
}

// Split chooses a decomposition for C(m×n) += A(m×k)·B(k×n) under o. The
// second return is false when the problem should not be sharded: fewer than
// two tiles fit above the MinTile floor (or the Workers×DefaultOversub bound
// forbids even two tiles). A refused Spec carries the problem's dimensions
// and no grid.
//
// Every admissible grid up to Workers×DefaultOversub tiles is scored by
// o.Cost and the minimum wins. Ties prefer the larger minimum output-tile
// side, then fewer tiles, then fewer K slabs; see the package comment for
// why. A nil o.Cost panics.
func Split(m, k, n int, o Options) (Spec, bool) {
	if o.Cost == nil {
		panic("shard: Split needs Options.Cost")
	}
	refused := Spec{M: m, K: k, N: n}
	if m < 1 || k < 1 || n < 1 {
		return refused, false
	}
	if o.Workers < 1 {
		o.Workers = 1
	}
	if o.MinTile < 1 {
		o.MinTile = 1
	}
	gmMax := m / o.MinTile
	if gmMax < 1 {
		gmMax = 1
	}
	gnMax := n / o.MinTile
	if gnMax < 1 {
		gnMax = 1
	}
	gkMax := 1
	if o.KSplit {
		if gkMax = k / o.MinTile; gkMax < 1 {
			gkMax = 1
		}
	}
	maxTiles := o.Workers * DefaultOversub
	var (
		found               bool
		bestM, bestN, bestK int
		bestCost            float64
		bestSide, bestTile  int64
	)
	for gm := 1; gm <= gmMax && gm <= maxTiles; gm++ {
		for gn := 1; gn <= gnMax && gm*gn <= maxTiles; gn++ {
			for gk := 1; gk <= gkMax; gk++ {
				tiles := gm * gn * gk
				if tiles > maxTiles {
					break
				}
				if tiles < 2 {
					continue
				}
				c := o.Cost(gm, gn, gk)
				// Smallest output-tile side under balanced cuts.
				side := int64(ceilDiv(m, gm))
				if tc := int64(ceilDiv(n, gn)); tc < side {
					side = tc
				}
				better := !found ||
					c < bestCost ||
					(c == bestCost && (side > bestSide ||
						(side == bestSide && (int64(tiles) < bestTile ||
							(int64(tiles) == bestTile && gk < bestK)))))
				if better {
					found = true
					bestM, bestN, bestK = gm, gn, gk
					bestCost, bestSide, bestTile = c, side, int64(tiles)
				}
			}
		}
	}
	if !found {
		return refused, false
	}
	return Spec{M: m, K: k, N: n, GridM: bestM, GridN: bestN, GridK: bestK}, true
}

func ceilDiv(a, b int) int { return (a + b - 1) / b }

// gridK treats a zero GridK (a Spec hand-built before K-split existed) as 1.
func (s Spec) gridK() int {
	if s.GridK < 1 {
		return 1
	}
	return s.GridK
}

// NumTiles is the shard count GridM×GridN×GridK.
func (s Spec) NumTiles() int { return s.GridM * s.GridN * s.gridK() }

// Tiles enumerates the decomposition with rows outermost, then columns,
// then K-slabs innermost — so the GridK slabs of one output tile are
// consecutive, in ascending P, which is the order the executor folds their
// reduction buffers into C. Within a dimension, cut sizes are balanced
// (they differ by at most one, larger first), so Tiles()[0] is the largest
// tile in every dimension. The tiles exactly partition the M×N×K iteration
// space.
func (s Spec) Tiles() []Tile {
	out := make([]Tile, s.NumTiles())
	for i := range out {
		out[i] = s.Tile(i)
	}
	return out
}

// Tile is Tiles()[i], computed without building the list.
func (s Spec) Tile(i int) Tile {
	gk := s.gridK()
	p, dep := cut(s.K, gk, i%gk)
	i /= gk
	j, cols := cut(s.N, s.GridN, i%s.GridN)
	r, rows := cut(s.M, s.GridM, i/s.GridN)
	return Tile{I: r, J: j, P: p, Rows: rows, Cols: cols, Depth: dep}
}

// cut is part idx of extent split into g balanced parts (sizes differ by ≤1,
// larger parts first): its offset and size.
func cut(extent, g, idx int) (off, size int) {
	base, rem := extent/g, extent%g
	off = idx*base + min(idx, rem)
	if size = base; idx < rem {
		size++
	}
	return off, size
}

// String renders the decomposition for logs and errors. The reported tile
// size is the actual largest cut (ceiling division), which for non-dividing
// grids is one more than the floor-division size an earlier version showed.
// A Spec without an output grid — what Split returns when it refuses — renders
// as unsharded.
func (s Spec) String() string {
	if s.GridM < 1 || s.GridN < 1 {
		return fmt.Sprintf("%d×%d×%d unsharded", s.M, s.K, s.N)
	}
	if s.gridK() == 1 {
		return fmt.Sprintf("shard %d×%d×%d into %d×%d tiles (%d shards, ~%d×%d each)",
			s.M, s.K, s.N, s.GridM, s.GridN, s.NumTiles(),
			ceilDiv(s.M, s.GridM), ceilDiv(s.N, s.GridN))
	}
	return fmt.Sprintf("shard %d×%d×%d into %d×%d tiles × %d K-slabs (%d shards, ~%d×%d×%d each)",
		s.M, s.K, s.N, s.GridM, s.GridN, s.GridK, s.NumTiles(),
		ceilDiv(s.M, s.GridM), ceilDiv(s.K, s.GridK), ceilDiv(s.N, s.GridN))
}
