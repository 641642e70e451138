package model

import (
	"math"
	"testing"

	"fmmfam/internal/core"
	"fmmfam/internal/fmmexec"
	"fmmfam/internal/gemm"
	"fmmfam/internal/kernel"
	"fmmfam/internal/matrix"
)

func TestStatsOfStrassen(t *testing.T) {
	s := StatsOf(core.Strassen())
	if s.MT != 2 || s.KT != 2 || s.NT != 2 || s.R != 7 || s.NnzU != 12 || s.NnzV != 12 || s.NnzW != 12 {
		t.Fatalf("got %+v", s)
	}
}

func TestStatsOfTwoLevel(t *testing.T) {
	s := StatsOf(core.Strassen(), core.Strassen())
	if s.MT != 4 || s.R != 49 || s.NnzU != 144 {
		t.Fatalf("got %+v", s)
	}
}

func TestStatsOfHybridMatchesFlatKron(t *testing.T) {
	l1, l2 := core.Strassen(), core.Generate(2, 3, 2)
	s := StatsOf(l1, l2)
	flat := core.Kron(l1, l2)
	u, v, w := flat.NNZ()
	if s.NnzU != u || s.NnzV != v || s.NnzW != w || s.R != flat.R {
		t.Fatalf("stats %+v vs flat nnz (%d,%d,%d) R=%d", s, u, v, w, flat.R)
	}
}

// Hand-computed check of the gemm column with tiny artificial parameters.
func TestPredictGEMMHandComputed(t *testing.T) {
	arch := Arch{TauA: 1, TauB: 10, Lambda: 0.5, MC: 4, KC: 2, NC: 3}
	// m=k=n=6: Ta = 2*216 = 432.
	// Tm = 10*(6*6*ceil(6/3) + 6*6 + 2*0.5*6*6*ceil(6/2)) = 10*(72+36+108) = 2160.
	b := PredictGEMM(arch, 6, 6, 6)
	if b.Ta != 432 || b.Tm != 2160 {
		t.Fatalf("Ta=%v Tm=%v", b.Ta, b.Tm)
	}
}

// Hand-computed check of the ABC column for one-level Strassen.
func TestPredictABCStrassenHandComputed(t *testing.T) {
	arch := Arch{TauA: 1, TauB: 1, Lambda: 1, MC: 4, KC: 100, NC: 100}
	s := StatsOf(core.Strassen())
	m, k, n := 8, 8, 8 // sm=sk=sn=4
	// Ta = 7*2*64 + (12-7)*2*16 *2sides + 12*2*16
	//    = 896 + 5*32 + 5*32 + 12*32 = 896+160+160+384 = 1600.
	// Tm(ABC) = 12*(4*4*1) + 12*(4*4) + 12*(2*1*4*4*1) = 192+192+384 = 768.
	b := Predict(arch, s, fmmexec.ABC, m, k, n)
	if b.Ta != 1600 || b.Tm != 768 {
		t.Fatalf("Ta=%v Tm=%v", b.Ta, b.Tm)
	}
}

func TestPredictABvsNaiveCoefficients(t *testing.T) {
	arch := Arch{TauA: 0, TauB: 1, Lambda: 1, MC: 4, KC: 100, NC: 100}
	s := StatsOf(core.Strassen())
	m, k, n := 8, 8, 8
	ab := Predict(arch, s, fmmexec.AB, m, k, n)
	// AB: 12*16 + 12*16 + 7*(2*16) + 3*12*16 = 192+192+224+576 = 1184.
	if ab.Tm != 1184 {
		t.Fatalf("AB Tm=%v", ab.Tm)
	}
	nv := Predict(arch, s, fmmexec.Naive, m, k, n)
	// Naive: 7*16 + 7*16 + 7*32 + (12+7)*16 + (12+7)*16 + 3*12*16
	//      = 112+112+224+304+304+576 = 1632.
	if nv.Tm != 1632 {
		t.Fatalf("Naive Tm=%v", nv.Tm)
	}
}

func TestPredictUnknownVariantPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Predict(PaperIvyBridge(), StatsOf(core.Strassen()), fmmexec.Variant(9), 8, 8, 8)
}

// Qualitative reproductions of §4.3's observations on the paper machine.
func TestModelQualitativeFigure6(t *testing.T) {
	arch := PaperIvyBridge()
	str := StatsOf(core.Strassen())
	m, n := 14400, 14400

	// (a) For rank-k updates (small k), one-level <2,2,2> ABC beats GEMM.
	abc := Predict(arch, str, fmmexec.ABC, m, 1024, n).Total()
	gm := PredictGEMM(arch, m, 1024, n).Total()
	if abc >= gm {
		t.Fatalf("ABC %v !< GEMM %v at k=1024", abc, gm)
	}

	// (b) For small k, ABC beats AB and Naive; for large k, AB beats ABC.
	abSmall := Predict(arch, str, fmmexec.AB, m, 1024, n).Total()
	if abc >= abSmall {
		t.Fatalf("ABC %v !< AB %v at k=1024", abc, abSmall)
	}
	abcBig := Predict(arch, str, fmmexec.ABC, m, 12000, n).Total()
	abBig := Predict(arch, str, fmmexec.AB, m, 12000, n).Total()
	if abBig >= abcBig {
		t.Fatalf("AB %v !< ABC %v at k=12000", abBig, abcBig)
	}

	// (c) For <3,6,3> the repeated packing of ABC eventually loses to Naive
	// at large sizes — the paper's first bullet in §4.3. Our generated
	// <3,6,3> has far fewer non-zeros than Smirnov's (66 vs several hundred),
	// which pushes the crossover out; it still occurs by m=n=k=30000.
	hairy := StatsOf(core.Generate(3, 6, 3))
	nvT := Predict(arch, hairy, fmmexec.Naive, 30000, 30000, 30000).Total()
	abT := Predict(arch, hairy, fmmexec.AB, 30000, 30000, 30000).Total()
	abcT := Predict(arch, hairy, fmmexec.ABC, 30000, 30000, 30000).Total()
	if nvT >= abcT || abT >= abcT {
		t.Fatalf("Naive %v / AB %v !< ABC %v for <3,6,3> at very large size", nvT, abT, abcT)
	}
}

func TestModelTwoLevelWinsForLargeSquare(t *testing.T) {
	arch := PaperIvyBridge()
	one := Predict(arch, StatsOf(core.Strassen()), fmmexec.ABC, 12000, 12000, 12000).Total()
	two := Predict(arch, StatsOf(core.Strassen(), core.Strassen()), fmmexec.ABC, 12000, 12000, 12000).Total()
	gm := PredictGEMM(arch, 12000, 12000, 12000).Total()
	if !(two < one && one < gm) {
		t.Fatalf("want two(%v) < one(%v) < gemm(%v)", two, one, gm)
	}
}

func TestEffectiveGFLOPS(t *testing.T) {
	g := EffectiveGFLOPS(1000, 1000, 1000, 1.0)
	if math.Abs(g-2.0) > 1e-12 {
		t.Fatalf("got %v", g)
	}
}

func TestCandidateName(t *testing.T) {
	c := Candidate{Levels: []core.Algorithm{core.Strassen(), core.Generate(3, 3, 3)}, Variant: fmmexec.ABC}
	if c.Name() != "<2,2,2>+<3,3,3> ABC" {
		t.Fatalf("got %q", c.Name())
	}
	if got := (Candidate{}).Name(); got != "gemm" {
		t.Fatalf("zero-level candidate is named %q, want gemm", got)
	}
}

func TestRankSortsByPrediction(t *testing.T) {
	arch := PaperIvyBridge()
	cands := []Candidate{
		{Levels: []core.Algorithm{core.Generate(3, 6, 3)}, Variant: fmmexec.Naive},
		{Levels: []core.Algorithm{core.Strassen()}, Variant: fmmexec.ABC},
	}
	r := Rank(arch, cands, 14400, 1024, 14400)
	if len(r) != 2 || r[0].Predicted > r[1].Predicted {
		t.Fatal("not sorted")
	}
	if r[0].Candidate.Name() != "<2,2,2> ABC" {
		t.Fatalf("rank-k winner should be <2,2,2> ABC, got %s", r[0].Candidate.Name())
	}
}

func TestSelectTopTwoMeasured(t *testing.T) {
	arch := PaperIvyBridge()
	cands := []Candidate{
		{Levels: []core.Algorithm{core.Strassen()}, Variant: fmmexec.ABC},
		{Levels: []core.Algorithm{core.Strassen()}, Variant: fmmexec.AB},
		{Levels: []core.Algorithm{core.Generate(3, 6, 3)}, Variant: fmmexec.Naive},
	}
	// Measurement contradicts the model: make AB "measure" faster.
	sel, err := Select(arch, cands, 14400, 1024, 14400, func(c Candidate) float64 {
		if c.Variant == fmmexec.AB {
			return 1
		}
		return 2
	})
	if err != nil {
		t.Fatal(err)
	}
	if sel.Variant != fmmexec.AB {
		t.Fatalf("measurement should override model; got %s", sel.Name())
	}
}

func TestSelectNoCandidates(t *testing.T) {
	if _, err := Select(PaperIvyBridge(), nil, 10, 10, 10, nil); err == nil {
		t.Fatal("expected error")
	}
}

func TestSelectNilMeasureUsesModel(t *testing.T) {
	cands := []Candidate{
		{Levels: []core.Algorithm{core.Strassen()}, Variant: fmmexec.ABC},
		{Levels: []core.Algorithm{core.Generate(3, 6, 3)}, Variant: fmmexec.Naive},
	}
	sel, err := Select(PaperIvyBridge(), cands, 14400, 480, 14400, nil)
	if err != nil || sel.Name() != "<2,2,2> ABC" {
		t.Fatalf("got %v, %v", sel.Name(), err)
	}
}

func TestDefaultCandidatesShape(t *testing.T) {
	cs := DefaultCandidates()
	// gemm + 23 shapes × 2 level-counts × 3 variants + 2 hybrids × 3 variants.
	if len(cs) != 1+23*6+6 {
		t.Fatalf("got %d candidates", len(cs))
	}
	seen := map[string]bool{}
	for _, c := range cs {
		if seen[c.Name()] {
			t.Fatalf("duplicate candidate %s", c.Name())
		}
		seen[c.Name()] = true
		if (len(c.Levels) == 0) != (c.Name() == fmmexec.GEMMName) {
			t.Fatalf("candidate with %d levels is named %q", len(c.Levels), c.Name())
		}
	}
	if !seen["<2,2,2>+<3,3,3> ABC"] {
		t.Fatal("missing Figure-9 hybrid")
	}
	// Plain GEMM is candidate zero: present once (names are unique above), and
	// first, so Rank's stable sort gives it every exact tie.
	if cs[0].Name() != fmmexec.GEMMName {
		t.Fatalf("first candidate is %q, want %q", cs[0].Name(), fmmexec.GEMMName)
	}
}

// TestDefaultCandidatesWithinFusedCap: no plan the selector can serve builds
// an A-, B- or C-side term list longer than kernel.MaxFusedTerms — the widest
// column of the flattened ⟦U,V,W⟧ is the longest list — so on an assembly
// backend every full tile of every served plan updates C from the registers.
func TestDefaultCandidatesWithinFusedCap(t *testing.T) {
	widest := func(f matrix.Mat[float64]) int {
		w := 0
		for r := 0; r < f.Cols; r++ {
			n := 0
			for i := 0; i < f.Rows; i++ {
				if f.At(i, r) != 0 {
					n++
				}
			}
			w = max(w, n)
		}
		return w
	}
	for _, c := range DefaultCandidates() {
		flat := core.KronAll(c.Levels...)
		if w := max(widest(flat.U), widest(flat.V), widest(flat.W)); w > kernel.MaxFusedTerms {
			t.Errorf("%s: term list of %d exceeds kernel.MaxFusedTerms = %d", c.Name(), w, kernel.MaxFusedTerms)
		}
	}
}

// TestGEMMCandidatePricedExactly: the zero-level candidate's prediction is
// PredictGEMM to the bit under every variant, so ranking it against the FMM
// family needs no special comparison, and a tie goes to it.
func TestGEMMCandidatePricedExactly(t *testing.T) {
	arch := PaperIvyBridge()
	var g Candidate
	if g.Name() != fmmexec.GEMMName || g.Stats() != StatsOf() || g.Stats() != StatsOf(core.KronAll()) {
		t.Fatalf("zero candidate: name %q stats %+v", g.Name(), g.Stats())
	}
	for _, s := range [][3]int{{1, 1, 1}, {64, 64, 64}, {104, 96, 17}, {256, 8192, 256}, {4097, 513, 5000}} {
		want := PredictGEMM(arch, s[0], s[1], s[2])
		for _, v := range fmmexec.Variants {
			if got := Predict(arch, g.Stats(), v, s[0], s[1], s[2]); got != want {
				t.Fatalf("%v %v: Predict %+v, PredictGEMM %+v", s, v, got, want)
			}
		}
		if r := Rank(arch, []Candidate{g}, s[0], s[1], s[2]); r[0].Predicted != want.Total() {
			t.Fatalf("%v: ranked at %v, want %v", s, r[0].Predicted, want.Total())
		}
	}
	// A one-level classical <1,1,1> has the same stats and so the same price;
	// listed after gemm it loses the tie.
	twin := Candidate{Levels: []core.Algorithm{core.Classical(1, 1, 1)}, Variant: fmmexec.ABC}
	if r := Rank(arch, []Candidate{g, twin}, 300, 300, 300); r[0].Candidate.Name() != fmmexec.GEMMName || r[0].Predicted != r[1].Predicted {
		t.Fatalf("tie went to %q (%v vs %v)", r[0].Candidate.Name(), r[0].Predicted, r[1].Predicted)
	}
}

func TestCalibrateProducesSaneArch(t *testing.T) {
	arch, err := Calibrate[float64](gemm.Config{MC: 32, KC: 64, NC: 128, Threads: 1}, 96)
	if err != nil {
		t.Fatal(err)
	}
	if arch.TauA <= 0 || arch.TauA > 1e-6 {
		t.Fatalf("tauA %v implausible", arch.TauA)
	}
	if arch.TauB <= 0 || arch.TauB > 1e-5 {
		t.Fatalf("tauB %v implausible", arch.TauB)
	}
}

func TestCalibrateRejectsTinyProbe(t *testing.T) {
	if _, err := Calibrate[float64](gemm.DefaultConfig(), 8); err == nil {
		t.Fatal("expected error")
	}
}

func TestFitLambdaRecoversExactly(t *testing.T) {
	arch := PaperIvyBridge()
	arch.Lambda = 0.83
	want := PredictGEMM(arch, 4800, 960, 4800).Total()
	fitted := FitLambda(PaperIvyBridge(), 4800, 960, 4800, want)
	if math.Abs(fitted.Lambda-0.83) > 1e-9 {
		t.Fatalf("recovered λ=%v, want 0.83", fitted.Lambda)
	}
}

func TestFitLambdaClamps(t *testing.T) {
	arch := PaperIvyBridge()
	if l := FitLambda(arch, 1000, 1000, 1000, 0).Lambda; l != 0.5 {
		t.Fatalf("underflow not clamped: %v", l)
	}
	if l := FitLambda(arch, 1000, 1000, 1000, 1e9).Lambda; l != 1 {
		t.Fatalf("overflow not clamped: %v", l)
	}
}

// The paper's §4.3 last bullet: for k equal to the appropriate multiple of
// kC (k = K̃L·kC), ABC achieves locally best performance — the model's
// ceil(sk/kC) term steps exactly at those k.
func TestModelKSweetSpotAtKtimesKC(t *testing.T) {
	arch := PaperIvyBridge()
	s := StatsOf(core.Strassen())
	kSweet := s.KT * arch.KC // 2·256 = 512
	atSweet := modelEff(arch, s, kSweet)
	justOver := modelEff(arch, s, kSweet+32)
	if atSweet <= justOver {
		t.Fatalf("no sweet spot at k=K̃·kC: %v at %d vs %v just over", atSweet, kSweet, justOver)
	}
}

func modelEff(arch Arch, s Stats, k int) float64 {
	return EffectiveGFLOPS(14400, k, 14400, Predict(arch, s, fmmexec.ABC, 14400, k, 14400).Total())
}

// TestShardMakespanKDominant: for the K-dominant acceptance shape, a pure
// K-split (one slab per worker) must beat both the unsharded schedule and
// the best 2D cut — the slab products read far fewer packed operand
// elements than full-K output tiles, which is what pays for the reduction.
func TestShardMakespanKDominant(t *testing.T) {
	arch := PaperIvyBridge()
	m, k, n, w := 256, 32768, 256, 4
	ksplit := ShardMakespan(arch, m, k, n, 1, 1, w, w)
	whole := ShardMakespan(arch, m, k, n, 1, 1, 1, w)
	grid2d := ShardMakespan(arch, m, k, n, 2, 2, 1, w)
	if ksplit >= whole {
		t.Fatalf("K-split %v !< unsharded %v", ksplit, whole)
	}
	if ksplit >= grid2d {
		t.Fatalf("K-split %v !< 2×2 output cut %v", ksplit, grid2d)
	}
}

// TestShardMakespanChargesReduction: the reduction term must grow with gk —
// so the grid search cannot over-split K for free — and vanish at gk=1.
func TestShardMakespanChargesReduction(t *testing.T) {
	arch := PaperIvyBridge()
	m, k, n := 128, 1<<20, 128
	// With enough workers that rounds stays 1, the per-round tile time
	// shrinks with gk but the reduction term grows linearly; past some gk
	// the makespan must turn back up.
	prev := ShardMakespan(arch, m, k, n, 1, 1, 1, 1<<20)
	turned := false
	for gk := 2; gk <= 1<<12; gk *= 2 {
		cur := ShardMakespan(arch, m, k, n, 1, 1, gk, 1<<20)
		if cur > prev {
			turned = true
			break
		}
		prev = cur
	}
	if !turned {
		t.Fatal("makespan never turned up with gk: reduction cost not charged")
	}
	// The gk=1 column must be exactly the rounds × tile-time schedule with
	// no reduction surcharge.
	w := 4
	want := 2 * PredictGEMM(arch, 16, 1<<20, 128).Total() // 8 tiles on 4 workers
	if got := ShardMakespan(arch, 128, 1<<20, 128, 8, 1, 1, w); got != want {
		t.Fatalf("gk=1 makespan %v, want pure schedule %v", got, want)
	}
}

func TestBreakEvenSquare(t *testing.T) {
	arch := PaperIvyBridge()
	cands := DefaultCandidates()
	be := BreakEvenSquare(arch, cands)
	t.Logf("break-even square size: %d", be)
	if be < 64 || be > 1<<15 {
		t.Fatalf("break-even %d outside probe range", be)
	}
	best := Rank(arch, cands, be, be, be)[0].Predicted
	if gemm := PredictGEMM(arch, be, be, be).Total(); be < 1<<15 && best >= gemm {
		t.Fatalf("at break-even %d fast (%g) does not beat gemm (%g)", be, best, gemm)
	}
	if BreakEvenSquare(arch, nil) != 1<<15 {
		t.Fatal("no candidates must return the ceiling")
	}
	if BreakEvenSquare(arch, []Candidate{{}}) != 1<<15 {
		t.Fatal("gemm alone never beats itself: must return the ceiling")
	}
	// The gemm candidate does not move the break-even (the shard tile floor
	// and fmmbench's sharder mirror both pass DefaultCandidates()), and the
	// per-kernel values at the paper's constants are pinned: they are where
	// selection switches from gemm to a fast plan.
	for kern, want := range map[string]int{kernel.DefaultBackend: 148, kernel.AVX2Backend: 1793, kernel.AVX512Backend: 3841} {
		if _, ok := kernel.ResolveNameFor(kern, matrix.Float64); !ok {
			continue // an assembly backend not registered on this host/build
		}
		ka := ArchForKernel(arch, kern)
		with, without := BreakEvenSquare(ka, cands), BreakEvenSquare(ka, cands[1:])
		if cands[0].Name() != fmmexec.GEMMName || with != without || with != want {
			t.Fatalf("%s: break-even %d with gemm, %d without, want %d", kern, with, without, want)
		}
		if got := Rank(ka, cands, want-1, want-1, want-1)[0].Candidate.Name(); got != fmmexec.GEMMName {
			t.Fatalf("%s: below the break-even the model ranks %q first", kern, got)
		}
		if got := Rank(ka, cands, want, want, want)[0].Candidate; len(got.Levels) == 0 {
			t.Fatalf("%s: at the break-even the model still ranks gemm first", kern)
		}
	}
}

// TestArchForKernel: rescaling prices the backend in use, round-trips, and
// leaves already-matching or unknown-kernel arches untouched.
func TestArchForKernel(t *testing.T) {
	base := PaperIvyBridge()
	if base.Kernel != "" {
		t.Fatalf("paper arch claims kernel %q", base.Kernel)
	}

	def := ArchForKernel(base, "")
	if def.Kernel != kernel.DefaultBackend {
		t.Fatalf("empty kernel resolved to %q", def.Kernel)
	}
	// The default backend defines efficiency 1.0: τa must be unchanged.
	if def.TauA != base.TauA {
		t.Fatalf("default-backend rescale changed τa: %g → %g", base.TauA, def.TauA)
	}
	// τb, λ, blocking are machine properties — never rescaled.
	if def.TauB != base.TauB || def.Lambda != base.Lambda || def.MC != base.MC {
		t.Fatal("ArchForKernel touched machine-side parameters")
	}

	// A name the registry does not hold leaves the arch unchanged.
	if got := ArchForKernel(base, "no-such-backend"); got != base {
		t.Fatal("unregistered backend must leave arch unchanged")
	}

	// Idempotence: an arch already describing the target passes through.
	again := ArchForKernel(def, kernel.DefaultBackend)
	if again != def {
		t.Fatal("matching-kernel rescale must be the identity")
	}

	// avx2 round-trip, where the host registered it: τa shrinks by the
	// table's ratio, and converting there and back restores it (up to float
	// rounding). Elsewhere the name is unavailable and prices nothing.
	there := ArchForKernel(def, kernel.AVX2Backend)
	if !kernel.HostCPU().AVX2 {
		if there != def {
			t.Fatal("unavailable backend must leave arch unchanged")
		}
		return
	}
	if there.Kernel != kernel.AVX2Backend || there.TauA >= def.TauA {
		t.Fatalf("avx2 rescale: kernel %q, τa %g → %g", there.Kernel, def.TauA, there.TauA)
	}
	back := ArchForKernel(there, kernel.DefaultBackend)
	if d := math.Abs(back.TauA-def.TauA) / def.TauA; d > 1e-12 {
		t.Fatalf("τa round-trip drifted by %g", d)
	}
}

// TestCalibrateRecordsKernel: the measured arch names the backend it drove,
// so ArchForKernel treats it as authoritative for that backend.
func TestCalibrateRecordsKernel(t *testing.T) {
	for _, name := range kernel.BackendsFor(matrix.Float64) {
		arch, err := Calibrate[float64](gemm.Config{MC: 32, KC: 64, NC: 128, Threads: 1, Kernel: name}, 96)
		if err != nil {
			t.Fatal(err)
		}
		if arch.Kernel != name {
			t.Fatalf("calibrated arch records kernel %q, want %s", arch.Kernel, name)
		}
		// A calibrated arch for the backend in use passes through unchanged.
		if got := ArchForKernel(arch, name); got != arch {
			t.Fatalf("calibrated %s arch must be authoritative for its own backend", name)
		}
	}
}

// TestArchForDtype: re-pricing for float32 halves τb (per-element bandwidth
// cost at half the bytes), leaves the scalar pure-Go kernel's τa unchanged,
// records the dtype, round-trips, and is the identity on a matching arch.
func TestArchForDtype(t *testing.T) {
	base := ArchForKernel(PaperIvyBridge(), "")
	if base.Dtype != matrix.Float64 {
		t.Fatalf("paper arch should describe float64, got %s", base.Dtype)
	}

	f32 := ArchForDtype(base, matrix.Float32)
	if f32.Dtype != matrix.Float32 {
		t.Fatalf("dtype not recorded: %s", f32.Dtype)
	}
	if f32.TauB != base.TauB/2 {
		t.Fatalf("float32 τb = %g, want half of %g", f32.TauB, base.TauB)
	}
	if f32.TauA != base.TauA {
		t.Fatalf("scalar-kernel float32 τa changed: %g → %g", base.TauA, f32.TauA)
	}
	if f32.Lambda != base.Lambda || f32.MC != base.MC || f32.Kernel != base.Kernel {
		t.Fatal("ArchForDtype touched unrelated parameters")
	}

	if again := ArchForDtype(f32, matrix.Float32); again != f32 {
		t.Fatal("matching-dtype conversion must be the identity")
	}
	back := ArchForDtype(f32, matrix.Float64)
	if math.Abs(back.TauB-base.TauB)/base.TauB > 1e-15 || back.Dtype != matrix.Float64 {
		t.Fatalf("τb round-trip drifted: %+v vs %+v", back, base)
	}

	// A dtype-specific efficiency rescales τa: avx2's float32 path retires
	// twice the flops of its float64 path, so it gets half the τa at float32.
	simd := base
	simd.Kernel = kernel.AVX2Backend
	simd32 := ArchForDtype(simd, matrix.Float32)
	if math.Abs(simd32.TauA-simd.TauA/2)/simd.TauA > 1e-15 {
		t.Fatalf("2× float32 efficiency should halve τa: %g → %g", simd.TauA, simd32.TauA)
	}

	// A float32 calibration result feeds straight through the float32
	// multiplier path: ArchForDtype must not touch it.
	cal, err := Calibrate[float32](gemm.DefaultConfig(), 64)
	if err != nil {
		t.Fatal(err)
	}
	if cal.Dtype != matrix.Float32 || cal.Kernel != kernel.DefaultBackend {
		t.Fatalf("Calibrate[float32] recorded (%q, %s)", cal.Kernel, cal.Dtype)
	}
	if ArchForDtype(cal, matrix.Float32) != cal {
		t.Fatal("measured float32 arch must pass through unchanged")
	}
}

// BenchmarkRecommend times one plan choice over the default family, as a
// multiplier's class fill makes it: "best" is the one-pass argmin selection uses,
// "rank" the full sorted ranking fmmtool prints.
func BenchmarkRecommend(b *testing.B) {
	arch := ArchForKernel(PaperIvyBridge(), kernel.AVX2Backend)
	cands := DefaultCandidates()
	b.Run("best", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			Best(arch, cands, 71, 278, 151)
		}
	})
	b.Run("rank", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			Rank(arch, cands, 71, 278, 151)
		}
	})
}

// BenchmarkBreakEvenSquare times the break-even probe each multiplier runs
// once for its shard tile floor.
func BenchmarkBreakEvenSquare(b *testing.B) {
	arch := ArchForKernel(PaperIvyBridge(), kernel.AVX2Backend)
	cands := DefaultCandidates()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		BreakEvenSquare(arch, cands)
	}
}
