package shard

import (
	"fmt"
	"strings"
	"testing"
)

// split is Split scored by volumeCost, the tests' explicit grid score.
func split(m, k, n int, o Options) (Spec, bool) {
	o.Cost = volumeCost(m, k, n, o.Workers)
	return Split(m, k, n, o)
}

// volumeCost is a makespan in units of one fused multiply-add:
// ⌈tiles/workers⌉ rounds of the largest tile's volume, plus, for a K-split
// grid, the m·n·(gk−1) reduction-fold elements at six units each (one fold
// moves three elements; roughly 3·τb / (2·τa) on the paper's machine).
func volumeCost(m, k, n, workers int) func(gm, gn, gk int) float64 {
	return func(gm, gn, gk int) float64 {
		vol := int64(ceilDiv(m, gm)) * int64(ceilDiv(n, gn)) * int64(ceilDiv(k, gk))
		c := float64(int64(ceilDiv(gm*gn*gk, max(workers, 1))) * vol)
		if gk > 1 {
			c += 6 * float64(m) * float64(n) * float64(gk-1)
		}
		return c
	}
}

// TestSplitNeedsCost: a Split without a Cost panics with a message naming
// the field.
func TestSplitNeedsCost(t *testing.T) {
	defer func() {
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "Options.Cost") {
			t.Fatalf("Split without a Cost recovered %v, want a panic naming Options.Cost", r)
		}
	}()
	Split(256, 256, 256, Options{Workers: 2, MinTile: 64})
}

// TestTilesPartitionExactly verifies that for a sweep of problem shapes and
// options, the tiles cover every (i, j) of the M×N output exactly once and
// never stray out of bounds — the property that makes sharded execution
// bit-identical to sequential execution of the same tiles.
func TestTilesPartitionExactly(t *testing.T) {
	cases := []struct {
		m, k, n int
		o       Options
	}{
		{256, 256, 256, Options{Workers: 4, MinTile: 64}},
		{1024, 64, 96, Options{Workers: 8, MinTile: 32}},  // tall
		{96, 64, 1024, Options{Workers: 8, MinTile: 32}},  // wide
		{333, 177, 257, Options{Workers: 3, MinTile: 40}}, // non-power-of-two
		{4096, 4096, 4096, Options{Workers: 16, MinTile: 148}},
		{130, 10, 130, Options{Workers: 2, MinTile: 64}}, // barely shardable
		{1 << 14, 8, 1 << 14, Options{Workers: 64, MinTile: 100}},
	}
	for _, tc := range cases {
		spec, ok := split(tc.m, tc.k, tc.n, tc.o)
		if !ok {
			t.Fatalf("Split(%d,%d,%d,%+v) refused to shard", tc.m, tc.k, tc.n, tc.o)
		}
		tiles := spec.Tiles()
		if len(tiles) != spec.NumTiles() || len(tiles) < 2 {
			t.Fatalf("%v: %d tiles, want %d ≥ 2", spec, len(tiles), spec.NumTiles())
		}
		seen := make([]bool, tc.m*tc.n)
		for _, tl := range tiles {
			if tl.Rows < tc.o.MinTile || tl.Cols < tc.o.MinTile {
				t.Fatalf("%v: tile %+v under MinTile %d", spec, tl, tc.o.MinTile)
			}
			if tl.I < 0 || tl.J < 0 || tl.I+tl.Rows > tc.m || tl.J+tl.Cols > tc.n {
				t.Fatalf("%v: tile %+v out of bounds", spec, tl)
			}
			for i := tl.I; i < tl.I+tl.Rows; i++ {
				for j := tl.J; j < tl.J+tl.Cols; j++ {
					if seen[i*tc.n+j] {
						t.Fatalf("%v: cell (%d,%d) covered twice", spec, i, j)
					}
					seen[i*tc.n+j] = true
				}
			}
		}
		for idx, s := range seen {
			if !s {
				t.Fatalf("%v: cell (%d,%d) uncovered", spec, idx/tc.n, idx%tc.n)
			}
		}
	}
}

// TestTilesBalanced: within each dimension tile sides differ by at most one,
// so no worker inherits a straggler tile much larger than the rest.
func TestTilesBalanced(t *testing.T) {
	spec, ok := split(1000, 300, 700, Options{Workers: 5, MinTile: 50})
	if !ok {
		t.Fatal("refused to shard")
	}
	minR, maxR := 1<<30, 0
	minC, maxC := 1<<30, 0
	for _, tl := range spec.Tiles() {
		if tl.Rows < minR {
			minR = tl.Rows
		}
		if tl.Rows > maxR {
			maxR = tl.Rows
		}
		if tl.Cols < minC {
			minC = tl.Cols
		}
		if tl.Cols > maxC {
			maxC = tl.Cols
		}
	}
	if maxR-minR > 1 || maxC-minC > 1 {
		t.Fatalf("%v: unbalanced tiles rows[%d,%d] cols[%d,%d]", spec, minR, maxR, minC, maxC)
	}
}

// TestSplitRefusals: problems with no room for two above-floor tiles, or
// degenerate dimensions, must not shard, and the refused Spec — what a
// caller's "expected to shard" failure prints — renders plainly as the
// unsharded problem.
func TestSplitRefusals(t *testing.T) {
	cases := []struct {
		m, k, n int
		o       Options
	}{
		{100, 100, 100, Options{Workers: 8, MinTile: 64}}, // < 2 tiles fit
		{64, 64, 64, Options{Workers: 4, MinTile: 64}},
		{0, 10, 10, Options{Workers: 4, MinTile: 1}},
		{10, 0, 10, Options{Workers: 4, MinTile: 1}},
	}
	for _, tc := range cases {
		spec, ok := split(tc.m, tc.k, tc.n, tc.o)
		if ok {
			t.Fatalf("Split(%d,%d,%d,%+v) sharded as %v, want refusal", tc.m, tc.k, tc.n, tc.o, spec)
		}
		want := fmt.Sprintf("%d×%d×%d unsharded", tc.m, tc.k, tc.n)
		if got := fmt.Sprint(spec); got != want || spec.NumTiles() != 0 {
			t.Fatalf("refused Split(%d,%d,%d) renders %q with %d tiles, want %q and none", tc.m, tc.k, tc.n, got, spec.NumTiles(), want)
		}
	}
	if got := fmt.Sprint(Spec{}); got != "0×0×0 unsharded" {
		t.Fatalf("zero Spec renders %q", got)
	}
}

// TestSplitShapeAffinity: a tall problem shards along M, a wide one along N,
// and a square problem with room to spare lands on a worker-aligned grid of
// the largest possible near-square tiles (minimum modelled makespan).
func TestSplitShapeAffinity(t *testing.T) {
	tall, ok := split(4096, 256, 200, Options{Workers: 4, MinTile: 100})
	if !ok || tall.GridN != 1 || tall.GridM != 4 {
		t.Fatalf("tall split: %v ok=%v, want 4×1 (one tile per worker, cuts along M)", tall, ok)
	}
	wide, ok := split(200, 256, 4096, Options{Workers: 4, MinTile: 100})
	if !ok || wide.GridM != 1 || wide.GridN != 4 {
		t.Fatalf("wide split: %v ok=%v, want 1×4 (one tile per worker, cuts along N)", wide, ok)
	}
	sq, ok := split(4096, 4096, 4096, Options{Workers: 8, MinTile: 148})
	if !ok || sq.NumTiles() != 8 || sq.NumTiles()%8 != 0 {
		t.Fatalf("square split: %v ok=%v, want exactly one tile per worker", sq, ok)
	}
	for _, tl := range sq.Tiles() {
		if tl.Rows < 1024 || tl.Cols < 1024 {
			t.Fatalf("square split %v produced a tile %+v smaller than the best achievable", sq, tl)
		}
	}
	// Determinism: the same inputs always produce the same spec.
	sq2, _ := split(4096, 4096, 4096, Options{Workers: 8, MinTile: 148})
	if sq != sq2 {
		t.Fatalf("split not deterministic: %v vs %v", sq, sq2)
	}
}

// TestSplitKDominant: a problem whose M×N output has no room for two
// above-floor tiles but whose K is huge must shard via the K dimension when
// KSplit is on — the inner-product shape that motivated 3D decomposition —
// and must keep refusing when KSplit is off (the PR 2 behavior).
func TestSplitKDominant(t *testing.T) {
	o := Options{Workers: 4, MinTile: 150, KSplit: true}
	spec, ok := split(256, 32768, 256, o)
	if !ok {
		t.Fatal("K-dominant problem refused to shard with KSplit on")
	}
	if spec.GridM != 1 || spec.GridN != 1 || spec.GridK < 2 {
		t.Fatalf("K-dominant split chose %v, want 1×1 output grid with ≥2 K-slabs", spec)
	}
	if spec.NumTiles() > o.Workers*DefaultOversub {
		t.Fatalf("%v exceeds the Workers×DefaultOversub bound", spec)
	}
	for _, tl := range spec.Tiles() {
		if tl.Depth < o.MinTile {
			t.Fatalf("%v: slab %+v under MinTile depth %d", spec, tl, o.MinTile)
		}
	}
	o.KSplit = false
	if spec, ok := split(256, 32768, 256, o); ok {
		t.Fatalf("KSplit off still sharded as %v", spec)
	}
}

// TestSplitPrefersKWholeWhenOutputAmple: with plenty of room in M×N, the
// reduction surcharge must keep K whole, preserving the bit-identical 2D
// path for output-dominant problems.
func TestSplitPrefersKWhole(t *testing.T) {
	spec, ok := split(4096, 4096, 4096, Options{Workers: 8, MinTile: 148, KSplit: true})
	if !ok {
		t.Fatal("refused to shard")
	}
	if spec.GridK != 1 {
		t.Fatalf("ample output still split K: %v", spec)
	}
}

// TestTilesPartition3D: for K-split specs the tiles must exactly partition
// the full M×N×K iteration space — every (i, j, p) covered exactly once —
// and the GridK slabs of one output tile must be enumerated consecutively
// in ascending P (the executor's fold order).
func TestTilesPartition3D(t *testing.T) {
	cases := []struct {
		m, k, n int
		o       Options
	}{
		{64, 1024, 64, Options{Workers: 4, MinTile: 48, KSplit: true}},
		{48, 513, 48, Options{Workers: 3, MinTile: 25, KSplit: true}}, // non-dividing K
		{100, 999, 70, Options{Workers: 8, MinTile: 33, KSplit: true}},
	}
	for _, tc := range cases {
		spec, ok := split(tc.m, tc.k, tc.n, tc.o)
		if !ok {
			t.Fatalf("Split(%d,%d,%d,%+v) refused to shard", tc.m, tc.k, tc.n, tc.o)
		}
		if spec.GridK < 2 {
			t.Fatalf("%v: expected a K-split for this K-dominant shape", spec)
		}
		assertPartition3D(t, spec, tc.o.MinTile)
		tiles := spec.Tiles()
		for g := 0; g < spec.GridM*spec.GridN; g++ {
			prevEnd := -1
			for s := 0; s < spec.GridK; s++ {
				tl := tiles[g*spec.GridK+s]
				if tl.I != tiles[g*spec.GridK].I || tl.J != tiles[g*spec.GridK].J {
					t.Fatalf("%v: slab %d of group %d has a different output tile", spec, s, g)
				}
				if s == 0 && tl.P != 0 {
					t.Fatalf("%v: first slab starts at P=%d", spec, tl.P)
				}
				if s > 0 && tl.P != prevEnd {
					t.Fatalf("%v: slabs of group %d not consecutive ascending", spec, g)
				}
				prevEnd = tl.P + tl.Depth
			}
			if prevEnd != spec.K {
				t.Fatalf("%v: group %d slabs cover K up to %d, want %d", spec, g, prevEnd, spec.K)
			}
		}
	}
}

// assertPartition3D checks that spec's tiles cover every (i, j, p) of the
// M×N×K iteration space exactly once, respect the floor on every cut
// dimension, and stay in bounds.
func assertPartition3D(t *testing.T, spec Spec, minTile int) {
	t.Helper()
	tiles := spec.Tiles()
	if len(tiles) != spec.NumTiles() || len(tiles) < 2 {
		t.Fatalf("%v: %d tiles, want %d ≥ 2", spec, len(tiles), spec.NumTiles())
	}
	m, n, k := spec.M, spec.N, spec.K
	seen := make([]bool, m*n*k)
	for _, tl := range tiles {
		if spec.GridM > 1 && tl.Rows < minTile {
			t.Fatalf("%v: tile %+v rows under MinTile %d", spec, tl, minTile)
		}
		if spec.GridN > 1 && tl.Cols < minTile {
			t.Fatalf("%v: tile %+v cols under MinTile %d", spec, tl, minTile)
		}
		if spec.gridK() > 1 && tl.Depth < minTile {
			t.Fatalf("%v: tile %+v depth under MinTile %d", spec, tl, minTile)
		}
		if tl.I < 0 || tl.J < 0 || tl.P < 0 ||
			tl.I+tl.Rows > m || tl.J+tl.Cols > n || tl.P+tl.Depth > k {
			t.Fatalf("%v: tile %+v out of bounds", spec, tl)
		}
		for i := tl.I; i < tl.I+tl.Rows; i++ {
			for j := tl.J; j < tl.J+tl.Cols; j++ {
				for p := tl.P; p < tl.P+tl.Depth; p++ {
					at := (i*n+j)*k + p
					if seen[at] {
						t.Fatalf("%v: cell (%d,%d,%d) covered twice", spec, i, j, p)
					}
					seen[at] = true
				}
			}
		}
	}
	for at, s := range seen {
		if !s {
			t.Fatalf("%v: cell (%d,%d,%d) uncovered", spec, at/(n*k), (at/k)%n, at%k)
		}
	}
}

// FuzzTilesPartition: for random shapes and options, any decomposition
// Split accepts must exactly partition the M×N×K iteration space with no
// overlap — the invariant that makes sharded execution compute the same
// real product as the unsharded path.
func FuzzTilesPartition(f *testing.F) {
	f.Add(256, 256, 256, 4, 64, false)
	f.Add(48, 512, 48, 4, 16, true)
	f.Add(33, 77, 19, 3, 8, true)
	f.Add(96, 96, 96, 8, 1, true)
	f.Add(1, 1, 1, 1, 1, false)
	f.Fuzz(func(t *testing.T, m, k, n, workers, minTile int, kSplit bool) {
		clamp := func(v, lo, hi int) int {
			if v < 0 {
				v = -v
			}
			return lo + v%(hi-lo+1)
		}
		m, k, n = clamp(m, 1, 96), clamp(k, 1, 96), clamp(n, 1, 96)
		workers, minTile = clamp(workers, 1, 8), clamp(minTile, 1, 64)
		spec, ok := split(m, k, n, Options{Workers: workers, MinTile: minTile, KSplit: kSplit})
		if !ok {
			return
		}
		if spec.M != m || spec.K != k || spec.N != n {
			t.Fatalf("spec %v does not match problem %d×%d×%d", spec, m, k, n)
		}
		if !kSplit && spec.GridK != 1 {
			t.Fatalf("KSplit off but spec %v split K", spec)
		}
		assertPartition3D(t, spec, minTile)
	})
}

// TestSpecStringReportsCeil: the rendered tile size must be the actual
// largest cut (ceiling division); floor division under-reported it for
// non-dividing grids (e.g. 100/3 showed 33 where the largest tile is 34).
func TestSpecStringReportsCeil(t *testing.T) {
	s2d := Spec{M: 100, K: 50, N: 90, GridM: 3, GridN: 4}
	if got := s2d.String(); !strings.Contains(got, "~34×23 each") {
		t.Fatalf("2D String() = %q, want largest-cut ~34×23", got)
	}
	s3d := Spec{M: 100, K: 500, N: 90, GridM: 2, GridN: 1, GridK: 3}
	got := s3d.String()
	if !strings.Contains(got, "~50×167×90 each") || !strings.Contains(got, "3 K-slabs") {
		t.Fatalf("3D String() = %q, want ~50×167×90 and the K-slab count", got)
	}
}
