package lint

import (
	"path/filepath"
	"testing"
)

// TestFixtures runs each analyzer over its testdata fixture package and
// checks the reported diagnostics against the // want expectations —
// violations must be reported with the expected message, compliant
// counterparts must stay silent.
func TestFixtures(t *testing.T) {
	cases := []struct {
		analyzer *Analyzer
		fixture  string // directory under testdata/src, also the import path
	}{
		{RentRelease, "rentrelease"},
		{HotPathAlloc, "hotpathalloc"},
		{DetOrder, "gemm"},   // in scope: final path element matches
		{DetOrder, "serve"},  // in scope: serving front-end, with //fmm:go-ok waivers
		{DetOrder, "fmmfam"}, // in scope: every file of the root library package
		{DetOrder, "other"},  // out of scope: same constructs, no diagnostics
		{LockSafe, "locksafe"},
	}
	for _, tc := range cases {
		t.Run(tc.analyzer.Name+"/"+tc.fixture, func(t *testing.T) {
			dir := filepath.Join("testdata", "src", tc.fixture)
			failures, err := RunFixture(tc.analyzer, dir, tc.fixture)
			if err != nil {
				t.Fatal(err)
			}
			for _, f := range failures {
				t.Error(f)
			}
		})
	}
}

// TestByName covers the analyzer selection used by cmd/fmmlint.
func TestByName(t *testing.T) {
	all, err := ByName("")
	if err != nil || len(all) != 4 {
		t.Fatalf("ByName(\"\") = %d analyzers, err %v; want 4, nil", len(all), err)
	}
	two, err := ByName("detorder, locksafe")
	if err != nil || len(two) != 2 || two[0].Name != "detorder" || two[1].Name != "locksafe" {
		t.Fatalf("ByName(detorder, locksafe) = %v, err %v", analyzerNames(two), err)
	}
	if _, err := ByName("nosuch"); err == nil {
		t.Fatal("ByName(nosuch) did not fail")
	}
}
