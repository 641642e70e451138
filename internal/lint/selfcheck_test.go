package lint

import (
	"path/filepath"
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
func runRepo(t *testing.T, overlay map[string][]byte) []Diagnostic {
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
	return diags
}

// TestRepoClean is the suite's anchor: the production tree must pass every
// analyzer with zero diagnostics. A failure here means a contract violation
// crept into the repo (or an analyzer grew a false positive) — either way it
// must be resolved, not suppressed.
func TestRepoClean(t *testing.T) {
	for _, d := range runRepo(t, nil) {
		t.Errorf("unexpected diagnostic: %s", d)
	}
}

// TestSeededViolations checks end-to-end that each analyzer still fires on
// the real packages it guards: an overlay injects one contract breach per
// analyzer into the live tree, and the suite must report it. This is the
// regression test for the CI gate — if an analyzer silently stops seeing the
// real package shapes (say, a rename breaks the rent-spec match), these seeds
// go undetected and the test fails.
func TestSeededViolations(t *testing.T) {
	root := repoRoot(t)
	cases := []struct {
		name     string   // subtest, also the reporting analyzer unless analyzer is set
		analyzer string   // reporting analyzer when it differs from name
		file     string   // module-relative path of the seeded overlay file
		src      string   // seeded source
		wantSubs []string // substrings the diagnostic must contain
	}{
		{
			name: "rentrelease",
			file: "internal/fmmexec/seeded_violation.go",
			src: `package fmmexec

import "fmmfam/internal/matrix"

func seededStateLeak(p *Plan[float64], c, a, b matrix.Mat[float64], cond bool) {
	st, release := p.stateFor(1, 1, 1)
	st.aTerms = p.aTermsFor(st.aTerms[:0], a, 0)
	if cond {
		release()
	}
}
`,
			wantSubs: []string{"seeded_violation.go", "release", "stateFor", "not called on every path"},
		},
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
			overlay := map[string][]byte{
				filepath.Join(root, filepath.FromSlash(tc.file)): []byte(tc.src),
			}
			diags := runRepo(t, overlay)
			var seeded []Diagnostic
			for _, d := range diags {
				if strings.Contains(d.Pos.Filename, "seeded_violation") {
					seeded = append(seeded, d)
				} else {
					t.Errorf("diagnostic outside the seeded file: %s", d)
				}
			}
			if len(seeded) == 0 {
				t.Fatalf("analyzer %s did not fire on the seeded violation", tc.name)
			}
			for _, want := range tc.wantSubs {
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
			wantAnalyzer := tc.analyzer
			if wantAnalyzer == "" {
				wantAnalyzer = tc.name
			}
			for _, d := range seeded {
				if d.Analyzer != wantAnalyzer {
					t.Errorf("seeded violation reported by %s, want %s: %s", d.Analyzer, wantAnalyzer, d)
				}
			}
		})
	}
}
