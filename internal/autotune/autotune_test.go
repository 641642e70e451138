package autotune

import (
	"math/rand"
	"sync"
	"testing"
)

// cfg4 is a tight test config: challenger every 4th call, small windows.
func cfg4() Config {
	return Config{Fraction: 0.25, RingCap: 16, MinSamples: 4}
}

// TestRouteFraction: routing is a deterministic counter — with fraction
// 1/4, exactly every 4th call shadows the challenger.
func TestRouteFraction(t *testing.T) {
	tu := New(cfg4(), "inc", []string{"chal"})
	var shadowed int
	for i := 1; i <= 40; i++ {
		key, isChal := tu.Route()
		if isChal {
			shadowed++
			if key != "chal" {
				t.Fatalf("call %d: challenger route returned %q", i, key)
			}
			if i%4 != 0 {
				t.Fatalf("challenger served on call %d, want multiples of 4 only", i)
			}
		} else if key != "inc" {
			t.Fatalf("call %d: incumbent route returned %q", i, key)
		}
	}
	if shadowed != 10 {
		t.Fatalf("shadowed %d of 40 calls, want 10", shadowed)
	}
	snap := tu.Snapshot()
	if snap.Served != 30 || snap.Shadowed != 10 {
		t.Fatalf("snapshot served/shadowed = %d/%d, want 30/10", snap.Served, snap.Shadowed)
	}
}

// TestNoChallengerServesIncumbent: a tuner with no alternatives still
// works — all traffic to the incumbent, samples recorded, no promotions.
func TestNoChallengerServesIncumbent(t *testing.T) {
	tu := New(cfg4(), "only", nil)
	for i := 0; i < 20; i++ {
		key, isChal := tu.Route()
		if key != "only" || isChal {
			t.Fatalf("route = %q/%v, want incumbent only", key, isChal)
		}
		tu.Record(key, 1.0)
	}
	snap := tu.Snapshot()
	if len(snap.Arms) != 1 || snap.Arms[0].Samples != 20 || len(snap.Promotions) != 0 {
		t.Fatalf("snapshot = %+v", snap)
	}
}

// TestPromotionOnConfirmedWin: a challenger whose median clearly beats the
// incumbent (tight distributions, CI excludes zero) is promoted exactly
// once the sample floor is met, and the tuner then serves it.
func TestPromotionOnConfirmedWin(t *testing.T) {
	tu := New(cfg4(), "slow", []string{"fast"})
	var promotions int
	for i := 0; i < 48; i++ {
		key, _ := tu.Route()
		sec := 1.0
		if key == "fast" {
			sec = 0.5
		}
		// Tiny deterministic jitter so the windows carry variance.
		sec += float64(i%3) * 1e-3
		if _, ok := tu.Record(key, sec); ok {
			promotions++
		}
	}
	if promotions != 1 {
		t.Fatalf("promotions = %d, want exactly 1", promotions)
	}
	if got := tu.Incumbent(); got != "fast" {
		t.Fatalf("incumbent after promotion = %q, want fast", got)
	}
	snap := tu.Snapshot()
	if len(snap.Promotions) != 1 {
		t.Fatalf("snapshot promotions = %+v", snap.Promotions)
	}
	p := snap.Promotions[0]
	if p.From != "slow" || p.To != "fast" || p.ToMedian >= p.FromMedian {
		t.Fatalf("promotion record = %+v", p)
	}
	// The former incumbent is now the challenger (only two arms).
	var roles = map[string]Role{}
	for _, a := range snap.Arms {
		roles[a.Plan] = a.Role
	}
	if roles["fast"] != RoleIncumbent || roles["slow"] != RoleChallenger {
		t.Fatalf("roles after promotion = %v", roles)
	}
	// And routing now serves "fast" on non-shadow slots.
	for i := 0; i < 3; i++ {
		if key, isChal := tu.Route(); !isChal && key != "fast" {
			t.Fatalf("post-promotion route = %q", key)
		}
	}
}

// TestNoiseNeverPromotes: identical sample distributions on both arms must
// never promote — the CI includes zero by construction.
func TestNoiseNeverPromotes(t *testing.T) {
	tu := New(cfg4(), "a", []string{"b"})
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 500; i++ {
		key, _ := tu.Route()
		// Same distribution regardless of arm: U[1.0, 1.5).
		if _, ok := tu.Record(key, 1.0+0.5*rng.Float64()); ok {
			t.Fatalf("promoted on noise-only samples at call %d", i)
		}
	}
	if got := tu.Incumbent(); got != "a" {
		t.Fatalf("incumbent churned to %q on noise", got)
	}
}

// TestSlowerChallengerRotates: a confirmed-slower challenger is demoted and
// the next pending arm takes its place.
func TestSlowerChallengerRotates(t *testing.T) {
	tu := New(cfg4(), "inc", []string{"worse", "next"})
	for i := 0; i < 64; i++ {
		key, _ := tu.Route()
		sec := 1.0
		if key == "worse" {
			sec = 2.0
		}
		sec += float64(i%3) * 1e-3
		if _, ok := tu.Record(key, sec); ok {
			t.Fatalf("slower arm promoted at call %d", i)
		}
		snap := tu.Snapshot()
		for _, a := range snap.Arms {
			if a.Plan == "next" && a.Role == RoleChallenger {
				// Rotation happened; "worse" must now be pending.
				for _, b := range snap.Arms {
					if b.Plan == "worse" && b.Role != RolePending {
						t.Fatalf("demoted arm role = %v", b.Role)
					}
				}
				return
			}
		}
	}
	t.Fatal("confirmed-slower challenger never rotated out")
}

// TestNonPositiveSamplesIgnored: zero or negative wall times (clock
// weirdness) must not enter the window or fabricate a win.
func TestNonPositiveSamplesIgnored(t *testing.T) {
	tu := New(cfg4(), "inc", []string{"chal"})
	for i := 0; i < 50; i++ {
		tu.Record("inc", 1.0+float64(i%2)*1e-3)
		if _, ok := tu.Record("chal", 0); ok {
			t.Fatal("promoted on zero-time samples")
		}
		tu.Record("chal", -1)
	}
	snap := tu.Snapshot()
	for _, a := range snap.Arms {
		if a.Plan == "chal" && a.Samples != 0 {
			t.Fatalf("challenger recorded %d non-positive samples", a.Samples)
		}
	}
}

// TestUnknownKeyDropped: recording under a key that was never an arm is a
// no-op rather than a panic (covers in-flight calls racing arm changes in
// future refactors).
func TestUnknownKeyDropped(t *testing.T) {
	tu := New(cfg4(), "inc", []string{"chal"})
	if _, ok := tu.Record("stranger", 1.0); ok {
		t.Fatal("unknown key promoted")
	}
	snap := tu.Snapshot()
	for _, a := range snap.Arms {
		if a.Samples != 0 {
			t.Fatalf("unknown key landed in arm %+v", a)
		}
	}
}

// TestWindowSlides: the ring keeps only the last RingCap samples, so an
// arm's median tracks its recent behavior instead of being anchored to
// history — the property that lets a drifting machine re-converge.
func TestWindowSlides(t *testing.T) {
	tu := New(Config{Fraction: 0.25, RingCap: 8, MinSamples: 4}, "inc", nil)
	for i := 0; i < 8; i++ {
		tu.Record("inc", 10.0)
	}
	snap := tu.Snapshot()
	if snap.Arms[0].Median != 10.0 {
		t.Fatalf("pre-slide median = %g, want 10", snap.Arms[0].Median)
	}
	for i := 0; i < 8; i++ {
		tu.Record("inc", 1.0)
	}
	snap = tu.Snapshot()
	if snap.Arms[0].Median != 1.0 {
		t.Fatalf("post-slide median = %g, want 1 (window should hold only recent samples)", snap.Arms[0].Median)
	}
	if snap.Arms[0].Samples != 16 {
		t.Fatalf("total samples = %d, want 16", snap.Arms[0].Samples)
	}
}

// TestDuplicateChallengersDropped: challenger lists may repeat the
// incumbent or each other; duplicates collapse.
func TestDuplicateChallengersDropped(t *testing.T) {
	tu := New(cfg4(), "inc", []string{"inc", "a", "a", "b"})
	snap := tu.Snapshot()
	if len(snap.Arms) != 3 {
		t.Fatalf("arms = %+v, want inc + a + b", snap.Arms)
	}
}

// TestConcurrentUse: Route/Record/Snapshot race-free under parallel load
// (meaningful under -race).
func TestConcurrentUse(t *testing.T) {
	tu := New(Config{Fraction: 0.25, RingCap: 32, MinSamples: 8}, "inc", []string{"c1", "c2"})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 500; i++ {
				key, _ := tu.Route()
				tu.Record(key, 1.0+rng.Float64())
				if i%50 == 0 {
					tu.Snapshot()
					tu.Incumbent()
				}
			}
		}(int64(g))
	}
	wg.Wait()
	snap := tu.Snapshot()
	if snap.Served+snap.Shadowed != 8*500 {
		t.Fatalf("routed %d calls, want %d", snap.Served+snap.Shadowed, 8*500)
	}
}
