// Package autotune closes the loop between the performance model's static
// predictions and what a long-running server actually measures: an
// epsilon-greedy shadow/promote bandit over executable plans.
//
// The serving layer keys one Tuner per shape class. Each Tuner holds a set
// of arms — candidate plans identified by an opaque key (variant, levels,
// kernel backend, traversal, shard grid) — one of which is the incumbent
// that serves most traffic, while a single challenger shadows it on a small
// configured fraction of calls. Every executed call records its monotonic
// wall time into the served arm's fixed-capacity ring buffer (a sliding
// window, so a machine whose behavior drifts re-converges instead of being
// anchored to stale samples). Once both incumbent and challenger windows
// hold enough samples, the Tuner compares their medians with a 95%
// confidence interval on the difference (median.go):
//
//   - the challenger is promoted to incumbent only when its median is
//     faster AND the confidence interval of the difference excludes zero
//     at two consecutive verdict checkpoints — a plausible-but-noisy
//     winner keeps shadowing instead of flapping;
//   - a challenger whose median is confirmed *slower* (the CI excludes
//     zero in the other direction) is demoted to the back of the pending
//     queue and the next pending arm becomes the challenger, so the
//     exploration budget rotates through all alternatives;
//   - anything in between keeps sampling.
//
// Verdicts run only at checkpoints — every MinSamples-th challenger sample
// — not on every record: testing a 95% interval after each sample would
// compound its 2.5% one-sided false-positive rate across hundreds of
// overlapping tests until noise alone promoted something. One checkpoint
// per fresh batch of challenger samples plus the two-consecutive-wins rule
// keeps the noise-promotion probability negligible while a genuinely
// faster arm sails through both checkpoints.
//
// Determinism contract: the bandit only ever chooses WHICH deterministic
// plan runs — promotion swaps plans between calls, never alters a plan's
// internal execution — so every call retains the per-plan determinism
// guarantees of the plan that served it. Routing itself is deterministic
// (a counter, not a RNG): with fraction 1/p, every p-th call of a shape
// class shadows the challenger.
package autotune

import "sync"

// Defaults for Config's zero values.
const (
	// DefaultFraction is the share of a shape class's traffic routed to the
	// challenger arm: 1 call in 20.
	DefaultFraction = 0.05
	// DefaultRingCap is the per-arm sample window. Big enough for a stable
	// median, small enough that a drifting machine re-converges within ~2
	// windows of traffic.
	DefaultRingCap = 64
	// DefaultMinSamples is how many samples each of incumbent and challenger
	// must hold before a promote/demote verdict is considered.
	DefaultMinSamples = 8
)

// Config tunes a Tuner. Zero values select the defaults above.
type Config struct {
	// Fraction is the challenger's traffic share, clamped to (0, 0.5].
	Fraction float64
	// RingCap is the per-arm sample window capacity (≥ 2).
	RingCap int
	// MinSamples is the per-arm sample floor for verdicts (≥ 2, ≤ RingCap).
	MinSamples int
}

func (c Config) withDefaults() Config {
	if c.Fraction <= 0 || c.Fraction > 0.5 {
		c.Fraction = DefaultFraction
	}
	if c.RingCap < 2 {
		c.RingCap = DefaultRingCap
	}
	if c.MinSamples < 2 {
		c.MinSamples = DefaultMinSamples
	}
	if c.MinSamples > c.RingCap {
		c.MinSamples = c.RingCap
	}
	return c
}

// ring is a fixed-capacity sliding window of wall-time samples. It is
// manipulated only under the owning Tuner's mutex; the struct exists to
// keep the window arithmetic in one place.
type ring struct {
	buf []float64
	n   uint64 // total samples ever recorded; buf holds the last len(buf)
}

func (r *ring) record(v float64) {
	r.buf[r.n%uint64(len(r.buf))] = v
	r.n++
}

// window returns the live samples in an unspecified order (fine for
// medians). The returned slice aliases the ring; callers copy if they
// retain it past the lock.
func (r *ring) window() []float64 {
	if r.n < uint64(len(r.buf)) {
		return r.buf[:r.n]
	}
	return r.buf
}

// arm is one candidate plan under measurement.
type arm struct {
	key  string
	ring ring
}

// Role labels an arm's current position in the bandit.
type Role string

const (
	RoleIncumbent  Role = "incumbent"
	RoleChallenger Role = "challenger"
	RolePending    Role = "pending"
)

// Promotion records one incumbent swap: the arm keys and the window
// medians (seconds) that justified it, plus the total sample count at
// which it happened — enough for an operator to reconstruct the decision.
type Promotion struct {
	From, To             string
	FromMedian, ToMedian float64
	AtSample             uint64
}

// ArmStats is the observable state of one arm.
type ArmStats struct {
	Plan    string  // the arm's plan key
	Role    Role    // incumbent / challenger / pending
	Samples uint64  // total samples ever recorded (window keeps the last RingCap)
	Median  float64 // median of the live window, seconds; 0 when empty
}

// Snapshot is the observable state of one Tuner: every arm, the traffic
// split so far, and the full promotion history.
type Snapshot struct {
	Arms       []ArmStats // incumbent first, then challenger, then pending in queue order
	Served     uint64     // calls routed to the incumbent
	Shadowed   uint64     // calls routed to the challenger
	Promotions []Promotion
}

// Tuner is the per-shape-class bandit. All methods are safe for concurrent
// use; the critical sections are O(window) at worst (one median over ≤
// RingCap samples on the records that can trigger a verdict).
type Tuner struct {
	cfg    Config
	period uint64 // every period-th call shadows the challenger

	mu         sync.Mutex
	incumbent  *arm
	challenger *arm   // nil when no alternatives exist
	pending    []*arm // rotation queue of future challengers
	winStreak  int    // consecutive checkpoint wins by the current challenger
	served     uint64
	shadowed   uint64
	promotions []Promotion
}

// promoteStreak is how many consecutive checkpoint wins a challenger needs:
// two independent-window confirmations drop the noise false-positive rate
// from ~2.5% per checkpoint to well under 0.1%.
const promoteStreak = 2

// New builds a Tuner serving the incumbent plan key with the given
// challenger queue (first entry becomes the live challenger; duplicates of
// the incumbent or of earlier entries are dropped). With no challengers the
// Tuner still records incumbent samples — the observability half works even
// when there is nothing to explore.
func New(cfg Config, incumbent string, challengers []string) *Tuner {
	cfg = cfg.withDefaults()
	period := uint64(1.0/cfg.Fraction + 0.5)
	if period < 2 {
		period = 2
	}
	t := &Tuner{
		cfg:       cfg,
		period:    period,
		incumbent: &arm{key: incumbent, ring: ring{buf: make([]float64, cfg.RingCap)}},
	}
	seen := map[string]bool{incumbent: true}
	for _, key := range challengers {
		if seen[key] {
			continue
		}
		seen[key] = true
		a := &arm{key: key, ring: ring{buf: make([]float64, cfg.RingCap)}}
		if t.challenger == nil {
			t.challenger = a
		} else {
			t.pending = append(t.pending, a)
		}
	}
	return t
}

// Route returns the plan key to serve the next call: the challenger on
// every period-th call (period ≈ 1/Fraction), the incumbent otherwise.
// Deterministic — the schedule is a counter, not a coin flip.
func (t *Tuner) Route() (key string, challenger bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.challenger != nil && (t.served+t.shadowed+1)%t.period == 0 {
		t.shadowed++
		return t.challenger.key, true
	}
	t.served++
	return t.incumbent.key, false
}

// Record stores one measured wall time (seconds, from a monotonic clock)
// for the arm that served a call, then runs the promote/demote check. The
// returned Promotion is meaningful only when promoted is true. Samples for
// keys that are no longer the incumbent or challenger (a call that was
// in flight across a promotion) still land in that arm's ring if the arm
// is still known, and are otherwise dropped.
func (t *Tuner) Record(key string, seconds float64) (p Promotion, promoted bool) {
	if seconds <= 0 {
		// A non-positive wall time is clock noise; recording it would let a
		// zero "measurement" fabricate a win.
		return Promotion{}, false
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	a := t.armFor(key)
	if a == nil {
		return Promotion{}, false
	}
	a.ring.record(seconds)
	// Verdicts only at challenger checkpoints: the recorded arm must be the
	// challenger, landing exactly on a MinSamples boundary of its window —
	// see the package comment for why per-sample testing is unsound.
	if t.challenger == nil || a != t.challenger {
		return Promotion{}, false
	}
	inc := &t.incumbent.ring
	chal := &t.challenger.ring
	min := uint64(t.cfg.MinSamples)
	if inc.n < min || chal.n < min || chal.n%min != 0 {
		return Promotion{}, false
	}
	// Oriented so Diff > 0 means the challenger's median is faster.
	d := medianDiff(inc.window(), chal.window())
	switch {
	case d.excludesZero():
		t.winStreak++
		if t.winStreak < promoteStreak {
			return Promotion{}, false
		}
		// Challenger confirmed faster at consecutive checkpoints: promote.
		// The former incumbent joins the back of the pending queue (it may
		// win again if the machine drifts back), and the next pending arm
		// starts shadowing.
		p = Promotion{
			From:       t.incumbent.key,
			To:         t.challenger.key,
			FromMedian: median(inc.window()),
			ToMedian:   median(chal.window()),
			AtSample:   inc.n + chal.n,
		}
		t.promotions = append(t.promotions, p)
		old := t.incumbent
		t.incumbent = t.challenger
		t.pending = append(t.pending, old)
		t.challenger, t.pending = t.pending[0], t.pending[1:]
		t.winStreak = 0
		return p, true
	case (diff{diff: -d.diff, se: d.se}).excludesZero():
		// Challenger confirmed slower: rotate it to the back of the queue
		// so the shadow-traffic budget moves on to the next alternative.
		t.winStreak = 0
		if len(t.pending) > 0 {
			loser := t.challenger
			t.challenger, t.pending = t.pending[0], t.pending[1:]
			t.pending = append(t.pending, loser)
		}
		return Promotion{}, false
	}
	t.winStreak = 0
	return Promotion{}, false
}

// armFor finds a known arm by key; nil when the key was never an arm.
// Caller holds t.mu.
func (t *Tuner) armFor(key string) *arm {
	if t.incumbent.key == key {
		return t.incumbent
	}
	if t.challenger != nil && t.challenger.key == key {
		return t.challenger
	}
	for _, a := range t.pending {
		if a.key == key {
			return a
		}
	}
	return nil
}

// Incumbent returns the currently served plan key.
func (t *Tuner) Incumbent() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.incumbent.key
}

// Snapshot returns a copy of the Tuner's observable state.
func (t *Tuner) Snapshot() Snapshot {
	t.mu.Lock()
	defer t.mu.Unlock()
	armStats := func(a *arm, role Role) ArmStats {
		s := ArmStats{Plan: a.key, Role: role, Samples: a.ring.n}
		if w := a.ring.window(); len(w) > 0 {
			s.Median = median(w)
		}
		return s
	}
	snap := Snapshot{
		Served:     t.served,
		Shadowed:   t.shadowed,
		Promotions: append([]Promotion(nil), t.promotions...),
	}
	snap.Arms = append(snap.Arms, armStats(t.incumbent, RoleIncumbent))
	if t.challenger != nil {
		snap.Arms = append(snap.Arms, armStats(t.challenger, RoleChallenger))
	}
	for _, a := range t.pending {
		snap.Arms = append(snap.Arms, armStats(a, RolePending))
	}
	return snap
}
