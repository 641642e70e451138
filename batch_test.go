package fmmfam

// Contract tests for MulAddBatch's claim-ahead scheduler: whatever the worker
// count, and whatever successor each job prefetched, a batch leaves every C
// bit-identical to running its jobs one by one through MulAdd on a Threads=1
// multiplier, reports the same errors, and a warm batch allocates nothing. A
// worker claims ahead only while every other worker still has a job to claim.

import (
	"cmp"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"fmmfam/internal/matrix"
)

// batchShape is one job of the contract batch; strided jobs take every
// operand as an interior view of a larger matrix (Stride > Cols).
type batchShape struct {
	m, k, n int
	strided bool
}

// contractShapes mixes what a batch may hold: products the reference kernel
// serves with a fast algorithm (above its ~148 break-even) beside GEMM-served
// ones, fringes, strided views, zero-size jobs, and — in the middle — a job
// whose dimensions disagree (k = -1 marks it).
var contractShapes = []batchShape{
	{200, 180, 210, false},
	{40, 33, 57, false},
	{0, 12, 9, false},
	{64, 96, 31, true},
	{3, -1, 3, false},
	{7, 0, 5, false},
	{256, 160, 220, true},
	{1, 1, 1, false},
	{130, 70, 190, true},
	{9, 13, 0, false},
}

// contractBatch builds the batch from seed: the jobs and the matrices their
// C's are views of, so that what a job must not touch is checked too.
func contractBatch[E matrix.Element](seed int64) ([]GenericBatchJob[E], []matrix.Mat[E]) {
	rng := rand.New(rand.NewSource(seed))
	operand := func(rows, cols int, strided bool) (view, host matrix.Mat[E]) {
		if !strided {
			host = matrix.New[E](rows, cols)
			host.FillRand(rng)
			return host, host
		}
		host = matrix.New[E](rows+3, cols+5)
		host.FillRand(rng)
		return host.View(1, 2, rows, cols), host
	}
	var jobs []GenericBatchJob[E]
	var hosts []matrix.Mat[E]
	for _, s := range contractShapes {
		var j GenericBatchJob[E]
		var c matrix.Mat[E]
		if s.k < 0 { // A is m×(m+1), B is (m+2)×m
			j.A, _ = operand(s.m, s.m+1, false)
			j.B, _ = operand(s.m+2, s.m, false)
			j.C, c = operand(s.m, s.m, false)
		} else {
			j.A, _ = operand(s.m, s.k, s.strided)
			j.B, _ = operand(s.k, s.n, s.strided)
			j.C, c = operand(s.m, s.n, s.strided)
		}
		jobs = append(jobs, j)
		hosts = append(hosts, c)
	}
	return jobs, hosts
}

// TestMulAddBatchMatchesSerialMulAdd holds MulAddBatch to per-job serial
// MulAdd bit for bit at both precisions, at 1, 2 and 4 workers, on the
// reference kernel (where the batch mixes FMM- and GEMM-served jobs) and on
// the fastest one (where GEMM serves every job, so every job prefetches its
// successor): same C bits in and around every view, the same joined error
// from the mismatched job, and every other C computed.
func TestMulAddBatchMatchesSerialMulAdd(t *testing.T) {
	kernels := []string{"go4x4"}
	if k := fastestHere(); k != "go4x4" {
		kernels = append(kernels, k)
	}
	for _, kern := range kernels {
		for _, threads := range []int{1, 2, 4} {
			t.Run(fmt.Sprintf("%s/T=%d/float64", kern, threads), func(t *testing.T) { checkBatchMatchesSerial[float64](t, kern, threads) })
			t.Run(fmt.Sprintf("%s/T=%d/float32", kern, threads), func(t *testing.T) { checkBatchMatchesSerial[float32](t, kern, threads) })
		}
	}
}

func checkBatchMatchesSerial[E matrix.Element](t *testing.T, kern string, threads int) {
	cfg := DefaultConfig()
	cfg.Kernel, cfg.Threads = kern, threads
	mu := NewGenericMultiplier[E](cfg, PaperArch())
	jobs, hosts := contractBatch[E](17)
	err := mu.MulAddBatch(jobs)

	cfg.Threads = 1
	ref := NewGenericMultiplier[E](cfg, PaperArch())
	refJobs, refHosts := contractBatch[E](17)
	var refErrs []error
	for _, j := range refJobs {
		refErrs = append(refErrs, ref.MulAdd(j.C, j.A, j.B))
	}
	want := errors.Join(refErrs...)
	if err == nil || want == nil || err.Error() != want.Error() {
		t.Fatalf("batch error %v, want %v", err, want)
	}
	for i := range hosts {
		if hosts[i].Fingerprint() != refHosts[i].Fingerprint() {
			t.Fatalf("job %d (%+v): C differs from serial MulAdd", i, contractShapes[i])
		}
	}
	if kern == "go4x4" {
		fmm, gemm := 0, 0
		for _, j := range jobs {
			if j.A.Rows == 0 || j.A.Cols == 0 || j.B.Cols == 0 || !dimsAgree(j.C, j.A, j.B) {
				continue
			}
			if p, err := mu.PlanFor(j.A.Rows, j.A.Cols, j.B.Cols); err == nil && len(p.Levels) > 0 {
				fmm++
			} else {
				gemm++
			}
		}
		if fmm == 0 || gemm == 0 {
			t.Fatalf("the batch should mix plan kinds: %d FMM-served, %d GEMM-served jobs", fmm, gemm)
		}
	}
}

// TestMulAddBatchWarmAllocatesNothing: a warm batch of cached shape classes
// rents its scheduling state, so it allocates nothing at any width (the
// scheduler it replaced allocated a closure per job).
func TestMulAddBatchWarmAllocatesNothing(t *testing.T) {
	for _, threads := range []int{1, 2} {
		t.Run(fmt.Sprintf("T=%d/float64", threads), func(t *testing.T) { checkBatchAllocs[float64](t, threads) })
		t.Run(fmt.Sprintf("T=%d/float32", threads), func(t *testing.T) { checkBatchAllocs[float32](t, threads) })
	}
}

func checkBatchAllocs[E matrix.Element](t *testing.T, threads int) {
	cfg := DefaultConfig()
	cfg.Threads = threads
	mu := NewGenericMultiplier[E](cfg, PaperArch())
	rng := rand.New(rand.NewSource(5))
	var jobs []GenericBatchJob[E]
	for _, s := range [][3]int{{48, 40, 56}, {17, 33, 9}, {64, 64, 64}, {5, 80, 30}, {48, 40, 56}, {100, 20, 70}} {
		a, b := matrix.New[E](s[0], s[1]), matrix.New[E](s[1], s[2])
		a.FillRand(rng)
		b.FillRand(rng)
		jobs = append(jobs, GenericBatchJob[E]{C: matrix.New[E](s[0], s[2]), A: a, B: b})
	}
	for range 3 {
		if err := mu.MulAddBatch(jobs); err != nil {
			t.Fatal(err)
		}
	}
	if n := testing.AllocsPerRun(20, func() { mu.MulAddBatch(jobs) }); n != 0 {
		t.Fatalf("warm MulAddBatch allocates %v times per call", n)
	}
}

// TestBatchClaimOrderMatchesStableSort: the claim order, sorted once by
// (cost descending, index ascending), is the order a stable sort by
// descending cost gives, on a batch where most costs tie.
func TestBatchClaimOrderMatchesStableSort(t *testing.T) {
	mu := NewMultiplier(DefaultConfig(), PaperArch())
	rng := rand.New(rand.NewSource(38))
	dims := []int{1, 2, 4, 8}
	jobs := make([]BatchJob, 200)
	for i := range jobs {
		jobs[i] = shapeJob(dims[rng.Intn(len(dims))], dims[rng.Intn(len(dims))], dims[rng.Intn(len(dims))])
	}
	r := mu.rentBatchRun()
	defer mu.releaseBatchRun(r)
	for _, n := range []int{len(jobs), 7, len(jobs)} { // a shorter batch between, on the same runner
		want := make([]int, n)
		for i := range want {
			want[i] = i
		}
		slices.SortStableFunc(want, func(x, y int) int { return cmp.Compare(jobCost(jobs[y]), jobCost(jobs[x])) })
		r.load(jobs[:n])
		if !slices.Equal(r.order, want) {
			t.Fatalf("%d jobs: claim order %v, stable sort %v", n, r.order, want)
		}
	}
}

// shapeJob is a batch job of the given shape with no data, for tests that
// only claim jobs.
func shapeJob(m, k, n int) BatchJob {
	return BatchJob{C: Matrix{Rows: m, Cols: n}, A: Matrix{Rows: m, Cols: k}, B: Matrix{Rows: k, Cols: n}}
}

// TestBatchClaimOrder: jobs are claimed costliest-first, ties in submission
// order, and a banked runner keeps none of the caller's jobs, nor the tile
// views of a sharded call.
func TestBatchClaimOrder(t *testing.T) {
	mu := NewMultiplier(DefaultConfig(), PaperArch())
	jobs := []BatchJob{shapeJob(2, 5, 1), shapeJob(3, 10, 1), shapeJob(10, 3, 1), shapeJob(1, 1, 1), shapeJob(5, 6, 1)}
	r := mu.rentBatchRun()
	r.load(jobs)
	if got, want := fmt.Sprint(r.order), "[1 2 4 0 3]"; got != want {
		t.Fatalf("claim order %s, want %s", got, want)
	}
	mu.releaseBatchRun(r)
	if r.jobs != nil {
		t.Fatal("a banked batch run still pins the caller's jobs")
	}

	sharded := NewMultiplier(kSplitServingCfg(), PaperArch())
	if err := sharded.MulAdd(NewMatrix(48, 48), NewMatrix(48, 512), NewMatrix(512, 48)); err != nil {
		t.Fatal(err)
	}
	r = <-sharded.batchRuns
	if len(r.tiles) < 2 {
		t.Fatalf("the sharded call banked %d tile jobs, want its grid", len(r.tiles))
	}
	for i, j := range r.tiles {
		if j.C.Data != nil || j.A.Data != nil || j.B.Data != nil {
			t.Fatalf("a banked runner still pins tile job %d's matrices", i)
		}
	}
}

// TestBatchClaimAhead drives two workers' claims from one goroutine: a worker
// claims a successor ahead of the job it holds only while at least as many
// jobs are unclaimed as the batch has workers. Two jobs on two workers run
// one each, however early the first worker starts; five claim ahead until
// fewer than two are unclaimed.
func TestBatchClaimAhead(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Threads = 2
	mu := NewMultiplier(cfg, PaperArch())
	r := mu.rentBatchRun()
	defer mu.releaseBatchRun(r)
	type step struct {
		worker string
		ahead  bool // claimAhead, else claim
		job    int  // -1: nothing claimed
	}
	for _, tc := range []struct {
		jobs  int
		steps []step
	}{
		{2, []step{
			{"A", false, 0}, {"A", true, -1}, // A holds job 0 and leaves job 1 to B
			{"B", false, 1}, {"B", true, -1},
			{"A", false, -1}, {"B", false, -1},
		}},
		{5, []step{
			{"A", false, 0}, {"A", true, 1}, // 4 unclaimed, then 3
			{"B", false, 2}, {"B", true, 3}, // 2 unclaimed, then 1
			{"A", true, -1}, {"B", true, -1}, // A ran 0 and holds 1, B ran 2 and holds 3: 1 unclaimed
			{"A", false, 4}, {"A", true, -1}, // A ran 1
			{"B", false, -1}, {"A", false, -1},
		}},
	} {
		jobs := make([]BatchJob, tc.jobs)
		for i := range jobs {
			jobs[i] = shapeJob(tc.jobs-i, 1, 1) // claim order = submission order
		}
		r.load(jobs)
		for n, s := range tc.steps {
			claim := r.claim
			if s.ahead {
				claim = r.claimAhead
			}
			job, ok := claim()
			if !ok {
				job = -1
			}
			if job != s.job {
				t.Fatalf("%d jobs on 2 workers, step %d: worker %s (ahead %v) claimed job %d, want %d", tc.jobs, n, s.worker, s.ahead, job, s.job)
			}
		}
	}
}
