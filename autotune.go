package fmmfam

import (
	"fmt"
	"math"
	"time"

	"fmmfam/internal/autotune"
	"fmmfam/internal/fmmexec"
	"fmmfam/internal/kernel"
	"fmmfam/internal/matrix"
	"fmmfam/internal/model"
	"fmmfam/internal/shard"
)

// This file wires the internal/autotune bandit into the serving layer: with
// Config.Autotune on, every plan-cache entry carries a per-shape-class Tuner
// whose arms are fully-built alternative plans (the model's next-best
// candidates, the opposite term traversal, an alternative kernel backend),
// the sharded path carries a grid tuner per shape class, every MulAdd is
// timed against the arm that served it, and promotions feed measured medians
// back into model selection (model.Feedback) and the traversal fold-cost
// calibration (model.FitFoldScale).
//
// Determinism: the bandit only ever chooses WHICH plan serves a call. Each
// arm is itself a deterministic plan (or shard spec), so a call's result
// carries the determinism guarantees of the arm that ran it — the same
// contract as flipping Config knobs between calls by hand.

// planArm is one executable alternative for a shape class: a fully-built
// plan, the candidate it came from (for feedback keying), and its BFS prefix
// depth (for fold-cost fitting on promotions that cross traversal modes).
type planArm[E matrix.Element] struct {
	plan  *fmmexec.Plan[E]
	cand  Candidate
	depth int
}

// planTuner is the autotune state of one plan-cache entry: the bandit and
// its arms, plus the cache key (shape class and width) the arms were built
// for. arms is immutable after construction, so the serving path reads it
// lock-free.
type planTuner[E matrix.Element] struct {
	tuner *autotune.Tuner
	arms  map[string]planArm[E]
	key   planKey
}

// trLabel names an arm's traversal for plan keys: "dfs" or "bfs<depth>".
func trLabel(depth int) string {
	if depth == 0 {
		return TraversalDFS
	}
	return fmt.Sprintf("%s%d", TraversalBFS, depth)
}

// buildArm builds every plan the multiplier caches, tuned or not, on the
// multiplier's engine for the kernel backend (empty kern = the configured
// backend) at the given width: cand executed with the given traversal steps.
// The returned key encodes candidate, traversal, and backend, so two arms of
// one tuner never collide unless they would execute identically.
func (mu *GenericMultiplier[E]) buildArm(cand Candidate, steps []fmmexec.Step, kern string, threads int) (string, planArm[E], error) {
	ctx, err := mu.engine(kern, threads)
	if err != nil {
		return "", planArm[E]{}, err
	}
	depth := 0
	for _, s := range steps {
		if s == fmmexec.BFS {
			depth++
		}
	}
	key := cand.Name() + "|tr=" + trLabel(depth) + "|kern=" + ctx.Backend().Name()
	p, err := fmmexec.NewPlanOn(ctx, cand.Variant, steps, cand.Levels...)
	if err != nil {
		return key, planArm[E]{}, err
	}
	return key, planArm[E]{plan: p, cand: cand, depth: depth}, nil
}

// newPlanTuner builds the bandit for one plan-cache key. The incumbent is the
// model's pick exactly as untuned serving would build it; the challenger
// queue explores, in order, the opposite term traversal (auto mode at width
// ≥ 2 only — a forced Config.Traversal is a user decision the tuner
// respects — and only when the incumbent has levels to traverse: gemm, the
// zero-level candidate, has no terms to fan), the model's next two candidates
// under their own auto traversal, and the first alternative kernel backend
// registered for this dtype. A challenger whose plan cannot be built (e.g.
// blocking below the alternative backend's micro-tile) is skipped rather than
// failing serving; only an unbuildable incumbent is an error.
func (mu *GenericMultiplier[E]) newPlanTuner(key planKey, m, k, n int) (*planTuner[E], error) {
	top := model.TopK(mu.arch, defaultCandidates(), m, k, n, 3, mu.feedback, key.String())
	incSteps := mu.traversalFor(top[0], m, k, n, key.threads)
	incKey, incArm, err := mu.buildArm(top[0], incSteps, "", key.threads)
	if err != nil {
		return nil, err
	}
	pt := &planTuner[E]{arms: map[string]planArm[E]{incKey: incArm}, key: key}
	var chalKeys []string
	addChallenger := func(cand Candidate, steps []fmmexec.Step, kern string) {
		key, a, err := mu.buildArm(cand, steps, kern, pt.key.threads)
		if err != nil {
			return
		}
		if _, dup := pt.arms[key]; dup {
			return
		}
		pt.arms[key] = a
		chalKeys = append(chalKeys, key)
	}
	if (mu.cfg.Traversal == "" || mu.cfg.Traversal == TraversalAuto) && key.threads >= 2 && len(top[0].Levels) > 0 {
		flipped := []fmmexec.Step(nil) // incumbent went BFS: try the serial loop
		if incArm.depth == 0 {
			flipped = make([]fmmexec.Step, len(top[0].Levels))
			flipped[0] = fmmexec.BFS // incumbent went DFS: try one fanned level
		}
		addChallenger(top[0], flipped, "")
	}
	for _, cand := range top[1:] {
		addChallenger(cand, mu.traversalFor(cand, m, k, n, key.threads), "")
	}
	for _, name := range kernel.BackendsFor(matrix.DtypeOf[E]()) {
		if name != mu.cfg.Kernel {
			addChallenger(top[0], incSteps, name)
			break
		}
	}
	pt.tuner = autotune.New(autotune.Config{Fraction: mu.cfg.autotuneFraction()}, incKey, chalKeys)
	return pt, nil
}

// mulAdd serves one call through the bandit: route to an arm, execute its
// plan under a monotonic wall-time measurement, record the sample, and apply
// the feedback side effects when the record triggered a promotion.
func (pt *planTuner[E]) mulAdd(mu *GenericMultiplier[E], c, a, b matrix.Mat[E]) error {
	key, _ := pt.tuner.Route()
	arm, ok := pt.arms[key]
	if !ok {
		// Defensive: an arm key the tuner knows but we never built cannot
		// happen today (arms and tuner are constructed together), but losing
		// a call to it would be worse than serving the incumbent untimed.
		arm = pt.arms[pt.tuner.Incumbent()]
		arm.plan.MulAdd(c, a, b)
		return nil
	}
	start := time.Now()
	arm.plan.MulAdd(c, a, b)
	if promo, promoted := pt.tuner.Record(key, time.Since(start).Seconds()); promoted {
		mu.tunePromoted(pt, promo)
	}
	return nil
}

// tunePromoted applies a promotion's feedback: both arms' window medians are
// recorded against their candidates so model.RankMeasured keeps preferring
// the measured winner even after a cache eviction rebuilds this shape class,
// and a promotion that crossed traversal modes fits the traversal model's
// fold-cost scale to the BFS arm's measurement (the ROADMAP's "calibrate
// TraversalPlan fold-cost from measured runs") for every plan built after.
func (mu *GenericMultiplier[E]) tunePromoted(pt *planTuner[E], promo autotune.Promotion) {
	from, to := pt.arms[promo.From], pt.arms[promo.To]
	shape := pt.key.String()
	mu.feedback.Record(shape, from.cand.Name(), promo.FromMedian)
	mu.feedback.Record(shape, to.cand.Name(), promo.ToMedian)
	if from.depth == to.depth {
		return
	}
	bfs, measured := to, promo.ToMedian
	if bfs.depth == 0 {
		bfs, measured = from, promo.FromMedian
	}
	if bfs.depth > 0 {
		scale := model.FitFoldScale(mu.arch, bfs.cand.Variant, pt.key.bm, pt.key.bk, pt.key.bn, bfs.cand.Levels, pt.key.threads, bfs.depth, measured)
		mu.foldScale.Store(math.Float64bits(scale))
	}
}

// shardTuner is the bandit of one sharded shape class: arms are shard grids
// rather than plans (the tile products below still run their width-1 plans,
// each under its own plan-level tuner). grids is immutable after
// construction.
type shardTuner struct {
	tuner *autotune.Tuner
	grids map[string][3]int // key -> (GridM, GridN, GridK)
}

func gridArmKey(gm, gn, gk int) string {
	return fmt.Sprintf("grid=%dx%dx%d", gm, gn, gk)
}

// shardTunerFor returns (building on first use) the shape class's grid
// tuner. The incumbent arm is the grid the model just chose for this call;
// the single challenger is the second-best grid — found by re-running the
// shard search at the tile floor that chose the incumbent, with the
// incumbent's grid priced out — when a distinct one exists. Returns nil
// (serve untuned) once the tuner map has reached the plan-cache cap, so
// diverse-shape servers stay bounded.
func (mu *GenericMultiplier[E]) shardTunerFor(route shardRoute, m, k, n int) *shardTuner {
	key := shapeClass(m, k, n, mu.cfg.Threads)
	mu.shardTuns.Lock()
	defer mu.shardTuns.Unlock()
	if mu.shardTuns.m == nil {
		mu.shardTuns.m = make(map[planKey]*shardTuner)
	}
	if st, ok := mu.shardTuns.m[key]; ok {
		return st
	}
	if cap := mu.cfg.planCacheCap(); cap > 0 && len(mu.shardTuns.m) >= cap {
		return nil
	}
	inc := [3]int{route.GridM, route.GridN, route.GridK}
	st := &shardTuner{grids: map[string][3]int{gridArmKey(inc[0], inc[1], inc[2]): inc}}
	var chal []string
	alt, ok := shard.Split(m, k, n, shard.Options{
		Workers: mu.cfg.Threads,
		MinTile: route.floor,
		KSplit:  mu.cfg.shardKSplit(),
		Cost: func(gm, gn, gk int) float64 {
			if gm == inc[0] && gn == inc[1] && gk == inc[2] {
				return math.Inf(1) // price the incumbent out: find the runner-up
			}
			return model.ShardMakespan(mu.arch, m, k, n, gm, gn, gk, mu.cfg.Threads)
		},
	})
	if ok {
		g := [3]int{alt.GridM, alt.GridN, alt.GridK}
		if g != inc {
			gk := gridArmKey(g[0], g[1], g[2])
			st.grids[gk] = g
			chal = append(chal, gk)
		}
	}
	st.tuner = autotune.New(autotune.Config{Fraction: mu.cfg.autotuneFraction()}, gridArmKey(inc[0], inc[1], inc[2]), chal)
	mu.shardTuns.m[key] = st
	return st
}

// mulAddShardedTuned is the sharded MulAdd under autotuning: route to a grid
// arm, rebuild the spec for this call's concrete dimensions (shapes within a
// class vary; grids transfer, tile extents do not), execute, and record the
// wall time under the grid that actually ran. A routed grid that does not
// fit the concrete dimensions falls back to the model's spec — its sample
// then lands on the incumbent arm, or is dropped if the grid is unknown.
func (mu *GenericMultiplier[E]) mulAddShardedTuned(route shardRoute, c, a, b matrix.Mat[E]) error {
	m, k, n := a.Rows, a.Cols, b.Cols
	st := mu.shardTunerFor(route, m, k, n)
	if st == nil {
		return mu.mulAddSharded(route.Spec, c, a, b)
	}
	key, _ := st.tuner.Route()
	use := route.Spec
	if g, ok := st.grids[key]; ok && g[0] <= m && g[1] <= n && g[2] <= k {
		use = shard.Spec{M: m, K: k, N: n, GridM: g[0], GridN: g[1], GridK: g[2]}
	}
	start := time.Now()
	if err := mu.mulAddSharded(use, c, a, b); err != nil {
		return err
	}
	st.tuner.Record(gridArmKey(use.GridM, use.GridN, use.GridK), time.Since(start).Seconds())
	return nil
}

// ShapeTuning is the observable autotune state of one shape class: the arm
// table, traffic split, and promotion history of its bandit.
type ShapeTuning struct {
	// Shape is the shape-class key ("m/k/n", power-of-two buckets).
	Shape string
	// Kind is "plan" for plan-arm tuners, "shard" for grid tuners.
	Kind string
	// Serial marks tuners of width-1 plans — the ones MulAddBatch jobs,
	// shard tiles, K-split slabs and MulAddAsync jobs run.
	Serial bool
	autotune.Snapshot
}

// MultiplierStats is the multiplier's observability surface: whether
// autotuning is on, its effective knobs, and a point-in-time snapshot of
// every shape class's bandit — per-arm sample counts, window medians, roles,
// traffic split, and the full promotion history.
type MultiplierStats struct {
	// Kernel is the micro-kernel backend this engine resolved from its
	// configuration (Config.Kernel; an empty selection resolves to the
	// fastest backend registered). A configured-but-unavailable backend is
	// reported with an " (unavailable)" suffix — every compute call is
	// failing validation in that state. Autotune promotions may route
	// individual shape classes to other backends; those show per-shape in
	// Shapes.
	Kernel string
	// Autotune and Fraction are the resolved serving knobs: Config.Autotune
	// and the challenger share it runs at (0 when off).
	Autotune bool
	Fraction float64
	// FoldScale is the current traversal fold-cost calibration: 1 until a
	// promotion crossing traversal modes fits a measured scale.
	FoldScale float64
	// CachedPlans mirrors CachedPlans(): every cached plan, both widths.
	CachedPlans int
	// Shapes holds one entry per tuned shape class, sorted by (Serial, Kind,
	// Shape). Empty when autotuning is off or no traffic has been served.
	Shapes []ShapeTuning
}

// Stats returns a point-in-time snapshot of the multiplier's serving and
// autotuning state. Safe for concurrent use with serving traffic; the
// snapshot is internally consistent per shape class (each bandit is
// snapshotted under its own lock) but not across classes.
func (mu *GenericMultiplier[E]) Stats() MultiplierStats {
	s := MultiplierStats{
		Kernel:      mu.resolvedKernel(),
		Autotune:    mu.cfg.Autotune,
		Fraction:    mu.cfg.autotuneFraction(),
		FoldScale:   mu.foldScaleVal(),
		CachedPlans: mu.plans.len(),
	}
	for key, e := range mu.plans.entries() {
		if e.tun != nil {
			s.Shapes = append(s.Shapes, ShapeTuning{Shape: key.String(), Kind: "plan", Serial: key.threads == 1, Snapshot: e.tun.tuner.Snapshot()})
		}
	}
	mu.shardTuns.Lock()
	for key, st := range mu.shardTuns.m {
		s.Shapes = append(s.Shapes, ShapeTuning{Shape: key.String(), Kind: "shard", Snapshot: st.tuner.Snapshot()})
	}
	mu.shardTuns.Unlock()
	sortShapeTunings(s.Shapes)
	return s
}

// resolvedKernel names the backend this engine runs on, marking a named
// selection that is not registered for its element type on this host.
func (mu *GenericMultiplier[E]) resolvedKernel() string {
	if _, ok := kernel.ResolveNameFor(mu.cfg.Kernel, matrix.DtypeOf[E]()); !ok {
		return mu.cfg.Kernel + " (unavailable)"
	}
	return mu.cfg.Kernel
}

func sortShapeTunings(s []ShapeTuning) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && shapeTuningLess(s[j], s[j-1]); j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

func shapeTuningLess(a, b ShapeTuning) bool {
	if a.Serial != b.Serial {
		return !a.Serial
	}
	if a.Kind != b.Kind {
		return a.Kind < b.Kind
	}
	return a.Shape < b.Shape
}
