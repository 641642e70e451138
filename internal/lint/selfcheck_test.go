package lint

import (
	"fmt"
	"go/ast"
	"go/types"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// repoRoot returns the module root (two levels up from internal/lint).
func repoRoot(t *testing.T) string {
	t.Helper()
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	return root
}

// runRepo loads every package of the module (with the given overlay, if any)
// and runs the full analyzer suite over them.
func runRepo(t *testing.T, overlay map[string][]byte) ([]*Package, []Diagnostic) {
	t.Helper()
	loader, err := NewLoader(repoRoot(t))
	if err != nil {
		t.Fatal(err)
	}
	loader.Overlay = overlay
	pkgs, err := loader.LoadAll()
	if err != nil {
		t.Fatal(err)
	}
	diags, err := RunPackages(pkgs, Analyzers())
	if err != nil {
		t.Fatal(err)
	}
	return pkgs, diags
}

// TestRepoClean is the suite's anchor: the production tree must pass every
// analyzer with zero diagnostics. A failure here means a contract violation
// crept into the repo (or an analyzer grew a false positive) — either way it
// must be resolved, not suppressed. It also pins "a knob is a Config field":
// the module's non-test code reads the process environment in fmmfam.EnvKernel
// and nowhere else (fmmbench, a harness that scrubs its environment, aside).
func TestRepoClean(t *testing.T) {
	pkgs, diags := runRepo(t, nil)
	for _, d := range diags {
		t.Errorf("unexpected diagnostic: %s", d)
	}
	var reads []string
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				where := pkg.Path + " (package level)"
				if fd, ok := decl.(*ast.FuncDecl); ok {
					where = pkg.Path + "." + fd.Name.Name
				}
				ast.Inspect(decl, func(n ast.Node) bool {
					if id, ok := n.(*ast.Ident); ok && pkg.Path != "fmmfam/fmmbench" && readsEnv(pkg.Info.Uses[id]) {
						reads = append(reads, where)
					}
					return true
				})
			}
		}
	}
	if want := []string{"fmmfam.EnvKernel"}; !slices.Equal(reads, want) {
		t.Errorf("environment reads in non-test code: %v, want exactly %v", reads, want)
	}
}

// readsEnv reports whether obj is one of the standard library's readers of
// the process environment.
func readsEnv(obj types.Object) bool {
	fn, ok := obj.(*types.Func)
	return ok && fn.Pkg() != nil && (fn.Pkg().Path() == "os" || fn.Pkg().Path() == "syscall") &&
		slices.Contains([]string{"Getenv", "LookupEnv", "Environ"}, fn.Name())
}

// seededRentSites says, per rentSpecs entry ("recv.rent"), where the real
// method lives: the package to seed, how the seed names the receiver type,
// and the rent call's arguments. TestSeededViolations generates one leaking
// function per spec from these.
var seededRentSites = map[string]struct{ dir, pkg, imports, recv, args string }{
	"Context.GetWorkspace": {"internal/fmmexec", "fmmexec", `import "fmmfam/internal/gemm"`, "*gemm.Context[float64]", ""},
	"Context.RentMat":      {"internal/fmmexec", "fmmexec", `import "fmmfam/internal/gemm"`, "*gemm.Context[float64]", "2, 2"},
	"workspacePool.get":    {"internal/gemm", "gemm", "", "*workspacePool[float64]", ""},

	"GenericMultiplier.RentMat": {"serve", "serve", `import "fmmfam"`, "*fmmfam.GenericMultiplier[float64]", "2, 2"},
	"matLender.RentMat":         {"serve", "serve", "", "matLender[float32]", "2, 2"},
}

// checkSeeded overlays one seeded source file onto the live tree, runs the
// suite, and requires diagnostics only in that file, from the given
// analyzer, together mentioning every wanted substring.
func checkSeeded(t *testing.T, file, src, analyzer string, wantSubs []string) {
	t.Helper()
	overlay := map[string][]byte{
		filepath.Join(repoRoot(t), filepath.FromSlash(file)): []byte(src),
	}
	var seeded []Diagnostic
	_, diags := runRepo(t, overlay)
	for _, d := range diags {
		if strings.Contains(d.Pos.Filename, "seeded_violation") {
			seeded = append(seeded, d)
		} else {
			t.Errorf("diagnostic outside the seeded file: %s", d)
		}
	}
	if len(seeded) == 0 {
		t.Fatalf("analyzer %s did not fire on the seeded violation", analyzer)
	}
	for _, want := range wantSubs {
		found := false
		for _, d := range seeded {
			if strings.Contains(d.String(), want) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("no seeded diagnostic mentions %q; got %v", want, seeded)
		}
	}
	for _, d := range seeded {
		if d.Analyzer != analyzer {
			t.Errorf("seeded violation reported by %s, want %s: %s", d.Analyzer, analyzer, d)
		}
	}
}

// TestSeededViolations checks end-to-end that each analyzer still fires on
// the real packages it guards: an overlay injects one contract breach per
// analyzer into the live tree, and the suite must report it. This is the
// regression test for the CI gate — if an analyzer silently stops seeing the
// real package shapes, these seeds go undetected and the test fails. The
// rentrelease specs match by method name, so every rentSpecs entry gets its
// own seed that rents through the real method and leaks on one branch: a
// rename that orphans a spec (the seed no longer type-checks, or the spec no
// longer matches) fails here instead of turning the spec into a no-op.
func TestSeededViolations(t *testing.T) {
	t.Run("rentrelease", func(t *testing.T) {
		for _, spec := range rentSpecs {
			name := spec.recv + "." + spec.rent
			t.Run(name, func(t *testing.T) {
				site, ok := seededRentSites[name]
				if !ok {
					t.Fatalf("rentSpecs entry %s has no seeded violation site", name)
				}
				src := fmt.Sprintf(`package %s

%s

func seededRentLeak(x %s, cond bool) {
	v := x.%s(%s)
	if cond {
		x.%s(v)
	}
}
`, site.pkg, site.imports, site.recv, spec.rent, site.args, spec.release)
				checkSeeded(t, site.dir+"/seeded_violation.go", src, "rentrelease",
					[]string{"seeded_violation.go", name, spec.release, "on every path"})
			})
		}
	})

	cases := []struct {
		name     string   // subtest, also the reporting analyzer unless analyzer is set
		analyzer string   // reporting analyzer when it differs from name
		file     string   // module-relative path of the seeded overlay file
		src      string   // seeded source
		wantSubs []string // substrings the diagnostic must contain
	}{
		{
			name: "hotpathalloc",
			file: "internal/gemm/seeded_violation.go",
			src: `package gemm

//fmm:hotpath
func seededHotAlloc(n int) []float64 {
	buf := make([]float64, n)
	return buf
}
`,
			wantSubs: []string{"seeded_violation.go", "hot path seededHotAlloc", "make"},
		},
		{
			name:     "hotpathalloc-noescape",
			analyzer: "hotpathalloc",
			file:     "internal/kernel/seeded_violation.go",
			src: `package kernel

func seededStub(refs *[2]uintptr, n int)

//fmm:hotpath
func seededDescriptorEscapes(n int) {
	var refs [2]uintptr
	seededStub(&refs, n)
}
`,
			wantSubs: []string{"seeded_violation.go", "address of local refs", "seededStub", "//go:noescape"},
		},
		{
			name: "detorder",
			file: "internal/fmmexec/seeded_violation.go",
			src: `package fmmexec

func seededBareGo(done chan struct{}) {
	go func() { close(done) }()
}
`,
			wantSubs: []string{"seeded_violation.go", "bare go statement", "internal/sched"},
		},
		{
			name:     "detorder-serve",
			analyzer: "detorder",
			file:     "serve/seeded_violation.go",
			src: `package serve

func seededServeFanout(jobs []func()) {
	for _, j := range jobs {
		go j()
	}
}
`,
			wantSubs: []string{"seeded_violation.go", "bare go statement", "internal/sched"},
		},
		{
			name:     "detorder-root",
			analyzer: "detorder",
			file:     "seeded_violation.go",
			src: `package fmmfam

func seededAsyncFanout(jobs []func()) {
	for _, j := range jobs {
		go j()
	}
}
`,
			wantSubs: []string{"seeded_violation.go", "bare go statement", "internal/sched"},
		},
		{
			name: "locksafe",
			file: "internal/fmmexec/seeded_violation.go",
			src: `package fmmexec

import "fmmfam/internal/gemm"

func seededWorkspaceCopy(ws gemm.Workspace[float64]) *gemm.Workspace[float64] {
	return &ws
}
`,
			wantSubs: []string{"seeded_violation.go", "by value", "Workspace"},
		},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			analyzer := tc.analyzer
			if analyzer == "" {
				analyzer = tc.name
			}
			checkSeeded(t, tc.file, tc.src, analyzer, tc.wantSubs)
		})
	}
}
