package fmmfam

import (
	"fmt"
	"math/rand"
	"runtime/debug"
	"syscall"
	"testing"
	"unsafe"

	"fmmfam/internal/matrix"
	"fmmfam/internal/shard"
)

// The page a fresh C faults in at: the granule kernel.TouchPages walks.
const faultPage = 4096

// faultSlack is the allowance, per page of a fresh C, above one fault for
// each tile that covers the page: the process's other faults. Untouched, a
// fresh page faults twice on its own — the micro-kernel's load maps the zero
// page, its store then copies it — so a product whose tiles share no page is
// held to 1.1 and read about 2 before the write-touch.
const faultSlack = 0.1

// minorFaults is the process's minor page-fault count so far: every thread's,
// since a sharded product's tiles fault on the pool's workers.
func minorFaults(t *testing.T) int64 {
	t.Helper()
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		t.Fatalf("getrusage: %v", err)
	}
	return ru.Minflt
}

// freshMapping maps n bytes of fresh anonymous memory, never touched, and
// unmaps it when the test ends. It asks for base pages only: where
// transparent huge pages are on for every mapping, one write would fault in
// 2 MiB at once, gap pages of a strided C included.
func freshMapping(t *testing.T, n int) []byte {
	t.Helper()
	mem, err := syscall.Mmap(-1, 0, n, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_PRIVATE|syscall.MAP_ANON)
	if err != nil {
		t.Skipf("anonymous mmap: %v", err)
	}
	t.Cleanup(func() { syscall.Munmap(mem) })
	if err := syscall.Madvise(mem, syscall.MADV_NOHUGEPAGE); err != nil {
		t.Skipf("madvise(MADV_NOHUGEPAGE): %v", err)
	}
	return mem
}

// elemsOf views a mapping as elements of E.
func elemsOf[E matrix.Element](mem []byte) []E {
	return unsafe.Slice((*E)(unsafe.Pointer(&mem[0])), uintptr(len(mem))/unsafe.Sizeof(E(0)))
}

// residentPages reports, per page of a page-aligned mapping, whether the
// page is in memory (mincore(2)).
func residentPages(t *testing.T, mem []byte) []bool {
	t.Helper()
	vec := make([]byte, (len(mem)+faultPage-1)/faultPage)
	if _, _, errno := syscall.Syscall(syscall.SYS_MINCORE, uintptr(unsafe.Pointer(&mem[0])), uintptr(len(mem)), uintptr(unsafe.Pointer(&vec[0]))); errno != 0 {
		t.Fatalf("mincore: %v", errno)
	}
	in := make([]bool, len(vec))
	for i, v := range vec {
		in[i] = v&1 != 0
	}
	return in
}

// faultsPerPage runs one product (or batch) into outputs laid over a fresh
// mapping of bytes bytes and returns its minor faults per page of covered
// pages. The best of up to three fresh mappings counts, the first at or
// under bound ending the tries: another thread's faults can only add to a
// reading, never take from it.
func faultsPerPage(t *testing.T, bytes, covered int, bound float64, run func(mem []byte) error) float64 {
	t.Helper()
	best := -1.0
	for attempt := 0; attempt < 3 && (best < 0 || best > bound); attempt++ {
		mem := freshMapping(t, bytes)
		f0 := minorFaults(t)
		if err := run(mem); err != nil {
			t.Fatal(err)
		}
		per := float64(minorFaults(t)-f0) / float64(covered)
		if best < 0 || per < best {
			best = per
		}
	}
	return best
}

// faultRoute is one way a product reaches its plan.
type faultRoute struct {
	name    string
	threads int
	m, k, n int
	// route checks, on the product's Explanation, that the shape still takes
	// the route the row is named for; nil for batch jobs, which always run
	// whole.
	route func(ex Explanation) bool
	// only names the one kernel the row runs on; empty runs every kernel.
	only string
	// batch, when above 0, runs that many m×k×n jobs through MulAddBatch;
	// async runs the product through MulAddAsync; else MulAdd.
	batch int
	async bool
}

// tileTouches returns the pages that C's elements cover and, summed over
// them, how many of the product's output tiles cover each: C is m×n at row
// stride stride elements of sz bytes, starting off bytes into a page-aligned
// mapping, and ex's grid cuts it (one tile when it runs whole; only K slab
// 0 touches C). Each tile write-touches its own rows, so two tiles that
// share a page may touch it at the same moment and each take a fault on it.
func tileTouches(ex Explanation, m, k, n, stride, sz, off int) (covered, touches int) {
	spec := shard.Spec{M: m, K: k, N: n, GridM: 1, GridN: 1}
	if ex.GridM > 0 {
		spec.GridM, spec.GridN, spec.GridK = ex.GridM, ex.GridN, ex.GridK
	}
	last := map[int]int{} // page → 1 + the last tile counted on it
	for i, tl := range spec.Tiles() {
		if tl.P != 0 {
			continue
		}
		for r := tl.I; r < tl.I+tl.Rows; r++ {
			lo := off + (r*stride+tl.J)*sz
			for pg := lo / faultPage; pg*faultPage < lo+tl.Cols*sz; pg++ {
				if last[pg] != i+1 {
					last[pg] = i + 1
					touches++
				}
			}
		}
	}
	return len(last), touches
}

func whole(ex Explanation) bool { return ex.GridM == 0 }
func kWholeTiles(ex Explanation) bool {
	return ex.GridK == 1 && ex.GridM*ex.GridN >= 2
}
func kSlabs(ex Explanation) bool { return ex.GridK >= 2 }

// kSlabShape is a product a Threads = 2 multiplier on kern cuts into K
// slabs at the default blocking, with C at least 384×384: the K-slab floor
// is the kernel's break-even (~148 on go4x4, thousands on the assembly
// backends).
func kSlabShape(kern string) (m, k, n int) {
	if kern == "go4x4" {
		return 384, 4096, 384
	}
	return 512, 8192, 512
}

func faultRoutes(kern string) []faultRoute {
	sm, sk, sn := kSlabShape(kern)
	return []faultRoute{
		{name: "whole T=1", threads: 1, m: 1024, k: 16, n: 1024, route: whole},
		{name: "MC tiles T=2", threads: 2, m: 1024, k: 16, n: 1024, route: kWholeTiles},
		{name: "K slabs T=2", threads: 2, m: sm, k: sk, n: sn, route: kSlabs},
		{name: "FMM tiles T=2", threads: 2, m: 512, k: 512, n: 512, only: "go4x4",
			route: func(ex Explanation) bool { return kWholeTiles(ex) && ex.Plan != "gemm" }},
		{name: "MulAddBatch T=2", threads: 2, m: 256, k: 16, n: 256, batch: 16},
		{name: "MulAddAsync T=2", threads: 2, m: 1024, k: 16, n: 1024, async: true, route: kWholeTiles},
	}
}

// TestFreshOutputFaultsOncePerPage: a product into a C no one has written
// faults once per page, not twice, on every registered kernel, both element
// types and every route a product reaches its plan by — whole, MC tiles, K
// slabs, FMM-served tiles, batch jobs and async jobs — because the plan
// write-touches C (kernel.TouchPages) before anything reads it, on the
// goroutine that runs the product or tile. A page two tiles share may take
// one fault per tile, when both touch it at once, so each route's bound is
// the tiles covering its pages (tileTouches) over its pages, plus
// faultSlack: 1.1 wherever no page is shared. A strided C keeps the gap
// pages between its rows unfaulted: they belong to other tiles. Under -race
// the counts are logged, not checked: the race runtime's atomics read
// before they write (raceEnabled).
func TestFreshOutputFaultsOncePerPage(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1)) // no GC faults while counting
	for _, kern := range Kernels() {
		t.Run(kern+"/float64", func(t *testing.T) { checkFreshOutputFaults[float64](t, kern) })
		t.Run(kern+"/float32", func(t *testing.T) { checkFreshOutputFaults[float32](t, kern) })
	}
}

func checkFreshOutputFaults[E matrix.Element](t *testing.T, kern string) {
	if _, ok := archOf(kern, matrix.DtypeOf[E]()); !ok {
		t.Skipf("%s not registered for %s on this host/build", kern, matrix.DtypeOf[E]())
	}
	sz := int(unsafe.Sizeof(E(0)))
	newMu := func(t *testing.T, threads int) *GenericMultiplier[E] {
		cfg := DefaultConfig()
		cfg.Kernel, cfg.Threads = kern, threads
		mu := NewGenericMultiplier[E](cfg, PaperArch())
		t.Cleanup(func() { mu.Close() })
		return mu
	}
	operands := func(m, k, n int) (a, b matrix.Mat[E]) {
		rng := rand.New(rand.NewSource(int64(m*k + n)))
		a, b = matrix.New[E](m, k), matrix.New[E](k, n)
		a.FillRand(rng)
		b.FillRand(rng)
		return a, b
	}
	for _, r := range faultRoutes(kern) {
		if r.only != "" && r.only != kern {
			continue
		}
		t.Run(r.name, func(t *testing.T) {
			mu := newMu(t, r.threads)
			ex, err := mu.Explain(r.m, r.k, r.n)
			if err != nil || r.route != nil && !r.route(ex) {
				t.Fatalf("%d×%d×%d no longer takes this route: %+v, %v", r.m, r.k, r.n, ex, err)
			}
			a, b := operands(r.m, r.k, r.n)
			jobs := max(r.batch, 1)
			run := func(cs []matrix.Mat[E]) error {
				switch {
				case r.batch > 0:
					batch := make([]GenericBatchJob[E], len(cs))
					for i, c := range cs {
						batch[i] = GenericBatchJob[E]{C: c, A: a, B: b}
					}
					return mu.MulAddBatch(batch)
				case r.async:
					return mu.MulAddAsync(cs[0], a, b).Wait()
				}
				return mu.MulAdd(cs[0], a, b)
			}
			warm := make([]matrix.Mat[E], jobs) // plans, workspaces, workers
			for i := range warm {
				warm[i] = matrix.New[E](r.m, r.n)
			}
			if err := run(warm); err != nil {
				t.Fatal(err)
			}
			var covered, touches int
			if r.batch > 0 {
				ex = Explanation{} // batch jobs run whole
			}
			for i := 0; i < jobs; i++ {
				c, tc := tileTouches(ex, r.m, r.k, r.n, r.n, sz, i*r.m*r.n*sz)
				covered, touches = covered+c, touches+tc
			}
			bound := float64(touches)/float64(covered) + faultSlack
			per := faultsPerPage(t, jobs*r.m*r.n*sz, covered, bound, func(mem []byte) error {
				data := elemsOf[E](mem)
				cs := make([]matrix.Mat[E], jobs)
				for i := range cs {
					cs[i] = matrix.Mat[E]{Rows: r.m, Cols: r.n, Stride: r.n, Data: data[i*r.m*r.n:]}
				}
				return run(cs)
			})
			t.Logf("%d×%d×%d: %.2f minor faults per page (bound %.2f)", r.m, r.k, r.n, per, bound)
			if per > bound && !raceEnabled {
				t.Errorf("%d×%d×%d: %.2f minor faults per page of a fresh C, want at most %.2f (%d pages, %d tile touches)", r.m, r.k, r.n, per, bound, covered, touches)
			}
		})
	}
	t.Run("strided C T=2", func(t *testing.T) {
		// Each row is one and a half pages of elements from a page boundary,
		// so it covers two pages, both beginning inside it; the stride is
		// four pages, so two whole pages of gap follow every row.
		const m, k = 256, 16
		n, stride := 3*faultPage/2/sz, 4*faultPage/sz
		mu := newMu(t, 2)
		ex, err := mu.Explain(m, k, n)
		if err != nil {
			t.Fatal(err)
		}
		a, b := operands(m, k, n)
		if err := mu.MulAdd(matrix.New[E](m, n), a, b); err != nil { // warm
			t.Fatal(err)
		}
		covered, touches := tileTouches(ex, m, k, n, stride, sz, 0)
		bound := float64(touches)/float64(covered) + faultSlack
		var mem []byte
		per := faultsPerPage(t, m*4*faultPage, covered, bound, func(fresh []byte) error {
			mem = fresh
			c := matrix.Mat[E]{Rows: m, Cols: n, Stride: stride, Data: elemsOf[E](mem)}
			return mu.MulAdd(c, a, b)
		})
		t.Logf("%.2f minor faults per page of the rows (bound %.2f)", per, bound)
		if per > bound && !raceEnabled {
			t.Errorf("%.2f minor faults per page of a fresh strided C's rows, want at most %.2f", per, bound)
		}
		var faulted []string
		for p, in := range residentPages(t, mem) {
			if gap := p%4 >= 2; gap && in {
				faulted = append(faulted, fmt.Sprint(p))
			}
		}
		if len(faulted) > 0 {
			t.Errorf("gap pages %v between the rows of a strided C were faulted in", faulted)
		}
	})
}
