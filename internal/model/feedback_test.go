package model

import (
	"sync"
	"testing"

	"fmmfam/internal/core"
	"fmmfam/internal/fmmexec"
)

func TestFeedbackRecordLookup(t *testing.T) {
	fb := NewFeedback()
	if _, ok := fb.Lookup("256/256/256", "x"); ok {
		t.Fatal("empty store returned a measurement")
	}
	fb.Record("256/256/256", "x", 1.5)
	fb.Record("256/256/256", "x", 1.2) // latest wins
	fb.Record("256/256/256", "y", 0)   // non-positive dropped
	if v, ok := fb.Lookup("256/256/256", "x"); !ok || v != 1.2 {
		t.Fatalf("Lookup = %v/%v, want 1.2/true", v, ok)
	}
	if _, ok := fb.Lookup("256/256/256", "y"); ok {
		t.Fatal("non-positive measurement stored")
	}
	if fb.Len() != 1 {
		t.Fatalf("Len = %d, want 1", fb.Len())
	}
	// Nil store is inert on every method — callers pass nil when autotuning
	// is off.
	var nilFB *Feedback
	nilFB.Record("s", "p", 1)
	if _, ok := nilFB.Lookup("s", "p"); ok || nilFB.Len() != 0 {
		t.Fatal("nil Feedback not inert")
	}
}

func TestFeedbackConcurrent(t *testing.T) {
	fb := NewFeedback()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				fb.Record("shape", "plan", float64(g+1))
				fb.Lookup("shape", "plan")
				fb.Len()
			}
		}(g)
	}
	wg.Wait()
	if v, ok := fb.Lookup("shape", "plan"); !ok || v < 1 || v > 8 {
		t.Fatalf("racing writes left %v/%v", v, ok)
	}
}

// TestRankMeasuredOverride: a measured median reorders the ranking — a
// candidate the model ranks behind wins once traffic proves it faster —
// and TopK reflects the override.
func TestRankMeasuredOverride(t *testing.T) {
	arch := PaperIvyBridge()
	cands := DefaultCandidates()
	m, k, n := 2048, 2048, 2048
	base := Rank(arch, cands, m, k, n)
	if len(base) < 3 {
		t.Fatal("need at least 3 candidates")
	}
	shape := "2048/2048/2048"
	// No feedback: identical to Rank (same order, same predictions).
	same := RankMeasured(arch, cands, m, k, n, nil, shape)
	for i := range base {
		if same[i].Candidate.Name() != base[i].Candidate.Name() || same[i].Predicted != base[i].Predicted {
			t.Fatalf("nil feedback changed rank at %d: %v vs %v", i, same[i], base[i])
		}
	}
	// Measure the 3rd candidate as faster than the analytic best.
	third := base[2].Candidate
	fb := NewFeedback()
	fb.Record(shape, third.Name(), base[0].Predicted/2)
	ranked := RankMeasured(arch, cands, m, k, n, fb, shape)
	if ranked[0].Candidate.Name() != third.Name() {
		t.Fatalf("measured winner ranked %q first instead of %q", ranked[0].Candidate.Name(), third.Name())
	}
	if ranked[0].Predicted != base[0].Predicted/2 {
		t.Fatalf("measured prediction not substituted: %g", ranked[0].Predicted)
	}
	// A measurement for a different shape class must not leak.
	other := RankMeasured(arch, cands, m, k, n, fb, "512/512/512")
	if other[0].Candidate.Name() != base[0].Candidate.Name() {
		t.Fatal("feedback leaked across shape classes")
	}

	top := TopK(arch, cands, m, k, n, 3, fb, shape)
	if len(top) != 3 || top[0].Name() != third.Name() {
		t.Fatalf("TopK = %v", top)
	}
	// The zero-level candidate is keyed like any other, as "gemm": measured
	// faster than everything, plain GEMM takes the class.
	fb.Record(shape, fmmexec.GEMMName, base[0].Predicted/4)
	if top := TopK(arch, cands, m, k, n, 2, fb, shape); len(top[0].Levels) != 0 || top[1].Name() != third.Name() {
		t.Fatalf("TopK with gemm measured fastest = %q, %q", top[0].Name(), top[1].Name())
	}
	all := TopK(arch, cands, m, k, n, len(cands)+100, nil, shape)
	if len(all) != len(cands) {
		t.Fatalf("TopK overflow returned %d of %d", len(all), len(cands))
	}
}

// TestTraversalPlanScaledMatchesUnscaled: scale 1 (and degenerate scales)
// reproduce TraversalPlan exactly across a sweep of shapes and variants.
func TestTraversalPlanScaledMatchesUnscaled(t *testing.T) {
	arch := PaperIvyBridge()
	strassen := core.Strassen()
	cases := [][]int{{256, 256, 256}, {1024, 1024, 1024}, {4096, 512, 4096}}
	for _, v := range fmmexec.Variants {
		for _, s := range cases {
			for _, lvls := range [][]core.Algorithm{{strassen}, {strassen, strassen}} {
				want := TraversalPlan(arch, v, s[0], s[1], s[2], lvls, 8)
				for _, scale := range []float64{1, 0, -3} {
					got := TraversalPlanScaled(arch, v, s[0], s[1], s[2], lvls, 8, scale)
					if len(got) != len(want) {
						t.Fatalf("%v %v scale %g: steps %v vs %v", v, s, scale, got, want)
					}
					for i := range got {
						if got[i] != want[i] {
							t.Fatalf("%v %v scale %g: steps %v vs %v", v, s, scale, got, want)
						}
					}
				}
			}
		}
	}
}

// TestTraversalPlanScaleShiftsChoice: a large enough fold-cost scale must
// eventually push the model off BFS — the knob actually steers selection.
func TestTraversalPlanScaleShiftsChoice(t *testing.T) {
	arch := PaperIvyBridge()
	strassen := core.Strassen()
	levels := []core.Algorithm{strassen, strassen}
	found := false
	for _, s := range [][3]int{{256, 256, 256}, {512, 512, 512}, {1024, 1024, 1024}} {
		for _, v := range fmmexec.Variants {
			base := TraversalPlanScaled(arch, v, s[0], s[1], s[2], levels, 16, 1)
			if len(base) == 0 {
				continue
			}
			heavy := TraversalPlanScaled(arch, v, s[0], s[1], s[2], levels, 16, 1e9)
			if len(heavy) != 0 {
				t.Fatalf("%v %v: astronomic fold cost still picks BFS %v", v, s, heavy)
			}
			found = true
		}
	}
	if !found {
		t.Skip("no BFS-choosing shape in the sweep on this model; nothing to shift")
	}
}

// TestFitFoldScale: the fit inverts the model (round-trip), clamps
// extremes, and returns the analytic scale on degenerate input.
func TestFitFoldScale(t *testing.T) {
	arch := PaperIvyBridge()
	strassen := core.Strassen()
	levels := []core.Algorithm{strassen, strassen}
	m, k, n, workers, depth := 1024, 1024, 1024, 8, 1
	v := fmmexec.ABC

	// Round-trip: predict with a known scale, fit it back.
	s := StatsOf(levels...)
	sm, sk, sn := m/s.MT, k/s.KT, n/s.NT
	compute, fold := bfsCost(arch, v, s, sm, sk, sn, levels, depth, workers)
	if fold <= 0 {
		t.Fatal("test setup: zero fold term")
	}
	for _, want := range []float64{0.5, 1, 2, 5} {
		measured := compute + want*fold
		if got := FitFoldScale(arch, v, m, k, n, levels, workers, depth, measured); !approx(got, want, 1e-9) {
			t.Fatalf("round-trip scale %g fitted as %g", want, got)
		}
	}
	// Clamps.
	if got := FitFoldScale(arch, v, m, k, n, levels, workers, depth, compute/2); got != 0.25 {
		t.Fatalf("faster-than-compute measurement fitted %g, want floor 0.25", got)
	}
	if got := FitFoldScale(arch, v, m, k, n, levels, workers, depth, compute+1e6*fold); got != 8 {
		t.Fatalf("absurd measurement fitted %g, want ceiling 8", got)
	}
	// Degenerate inputs return the analytic scale.
	for _, bad := range []struct {
		depth    int
		measured float64
	}{{0, 1}, {3, 1}, {1, 0}, {1, -1}} {
		if got := FitFoldScale(arch, v, m, k, n, levels, workers, bad.depth, bad.measured); got != 1 {
			t.Fatalf("degenerate (%+v) fitted %g, want 1", bad, got)
		}
	}
	if got := FitFoldScale(arch, v, 1, 1, 1, levels, workers, depth, 1); got != 1 {
		t.Fatalf("sub-partition problem fitted %g, want 1", got)
	}
}

func approx(a, b, eps float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	return d <= eps*(1+b)
}
