// Package lint implements fmmlint, the repo's custom static-analysis suite.
// It encodes the engine's load-bearing conventions — contracts no off-the-shelf
// tool checks — as machine-checked analyzers:
//
//	rentrelease  — every buffer rented from a gemm context's bounded pools
//	               (packing workspaces, scratch matrices) must have its paired
//	               release reachable on every path out of the renting
//	               function, deferred or explicit.
//	hotpathalloc — functions annotated //fmm:hotpath (micro-kernels, packing,
//	               scatter, fold loops) must not contain allocation-inducing
//	               constructs: non-constant make, append growth, new, slice/map
//	               literals, closures, conversions to interfaces, or fmt.
//	detorder     — in the determinism-critical packages (internal/fmmexec,
//	               internal/gemm, internal/shard, serve, the root fmmfam), ranging
//	               over a map must not write output matrices or reduction
//	               buffers (map order is random; fold order into C is part of
//	               the bit-reproducibility contract), and all goroutine fan-out
//	               must go through internal/sched — bare go statements are
//	               forbidden outside that package.
//	locksafe     — types that embed locks or pool state (Workspace, the scratch
//	               list, the plan table, …) must not be copied by
//	               value: not as parameters, results, assignments, call
//	               arguments, or range values. This extends vet's copylocks to
//	               the repo's pool-holding structs that carry no mutex.
//
// The suite is deliberately self-contained on the standard library (go/ast,
// go/types, go/importer): the module has no third-party dependencies and the
// analyzers must build in the same hermetic environment as the engine itself,
// so the golang.org/x/tools go/analysis framework is re-modelled here in
// miniature rather than imported. The shapes mirror x/tools (Analyzer, Pass,
// Diagnostic, a testdata-fixture runner with "// want" expectations) so a
// future migration is mechanical.
//
// Run the suite with cmd/fmmlint — standalone (`go run ./cmd/fmmlint ./...`)
// or as a vet tool (`go vet -vettool=$(which fmmlint) ./...`). The repo's own
// tests also run every analyzer over the whole module (TestRepoClean), so a
// violation fails `go test ./...` even without the vet step.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// An Analyzer describes one invariant checker. The shape deliberately mirrors
// golang.org/x/tools/go/analysis.Analyzer.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and on the fmmlint command
	// line. It must be a valid Go identifier.
	Name string
	// Doc is the one-paragraph contract the analyzer enforces; the first line
	// is the summary shown by fmmlint -list.
	Doc string
	// Run inspects one package and reports violations through pass.Reportf.
	Run func(pass *Pass) error
}

// Pass carries one analyzer's view of one type-checked package.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	// Files are the package's syntax trees (non-test files in loader-driven
	// runs; whatever the build system provided in vettool runs).
	Files []*ast.File
	// Path is the package's import path (e.g. "fmmfam/internal/gemm").
	Path string
	Pkg  *types.Package
	Info *types.Info

	diags *[]Diagnostic
}

// Reportf records a diagnostic at pos. Diagnostics in _test.go files are
// dropped — the analyzers enforce production invariants, and test files
// legitimately spawn goroutines, allocate, and copy fixtures.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	if strings.HasSuffix(position.Filename, "_test.go") {
		return
	}
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      position,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Diagnostic is one reported violation, with its resolved file position.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s (%s)", d.Pos, d.Message, d.Analyzer)
}

// Analyzers returns the full fmmlint suite in stable order.
func Analyzers() []*Analyzer {
	return []*Analyzer{RentRelease, HotPathAlloc, DetOrder, LockSafe}
}

// ByName resolves a comma-separated analyzer selection ("" selects all).
func ByName(names string) ([]*Analyzer, error) {
	all := Analyzers()
	if names == "" {
		return all, nil
	}
	var out []*Analyzer
	for _, name := range strings.Split(names, ",") {
		name = strings.TrimSpace(name)
		found := false
		for _, a := range all {
			if a.Name == name {
				out = append(out, a)
				found = true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("lint: unknown analyzer %q (have %s)", name, strings.Join(analyzerNames(all), ", "))
		}
	}
	return out, nil
}

func analyzerNames(as []*Analyzer) []string {
	names := make([]string, len(as))
	for i, a := range as {
		names[i] = a.Name
	}
	return names
}

// RunPackage runs the given analyzers over one type-checked package and
// returns the diagnostics sorted by position. The package may come from the
// module loader (Load/LoadAll) or from an external build system (the vettool
// protocol in cmd/fmmlint).
func RunPackage(pkg *Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer: a,
			Fset:     pkg.Fset,
			Files:    pkg.Files,
			Path:     pkg.Path,
			Pkg:      pkg.Types,
			Info:     pkg.Info,
			diags:    &diags,
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("lint: %s on %s: %w", a.Name, pkg.Path, err)
		}
	}
	sortDiagnostics(diags)
	return diags, nil
}

// RunPackages is RunPackage over a package list, with one combined sorted
// diagnostic slice.
func RunPackages(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	for _, pkg := range pkgs {
		ds, err := RunPackage(pkg, analyzers)
		if err != nil {
			return nil, err
		}
		diags = append(diags, ds...)
	}
	sortDiagnostics(diags)
	return diags, nil
}

func sortDiagnostics(diags []Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
}

// --- shared type/AST helpers used by several analyzers ---

// pathElems splits an import path into its elements.
func pathElems(path string) []string { return strings.Split(path, "/") }

// lastElem returns the final element of an import path.
func lastElem(path string) string {
	elems := pathElems(path)
	return elems[len(elems)-1]
}

// rootIdent descends selector/index/star/paren chains to the base identifier,
// or nil when the base is not a plain identifier (a call result, literal, …).
func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// objectOf resolves an identifier to its types.Object via Defs or Uses.
func objectOf(info *types.Info, id *ast.Ident) types.Object {
	if obj := info.Defs[id]; obj != nil {
		return obj
	}
	return info.Uses[id]
}

// calleeFunc resolves a call expression to the *types.Func it invokes
// (method or package-level function), or nil for builtins, conversions,
// and calls of function-typed variables.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			if f, ok := sel.Obj().(*types.Func); ok {
				return f
			}
			return nil
		}
		// Package-qualified call: fmt.Sprintf, kernel.SingleTerm, …
		if f, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return f
		}
	case *ast.Ident:
		if f, ok := objectOf(info, fun).(*types.Func); ok {
			return f
		}
	case *ast.IndexExpr:
		// Explicitly instantiated generic function: grow[float64](…).
		if id, ok := ast.Unparen(fun.X).(*ast.Ident); ok {
			if f, ok := objectOf(info, id).(*types.Func); ok {
				return f
			}
		}
	case *ast.IndexListExpr:
		if id, ok := ast.Unparen(fun.X).(*ast.Ident); ok {
			if f, ok := objectOf(info, id).(*types.Func); ok {
				return f
			}
		}
	}
	return nil
}

// recvTypeName returns the name of a method's receiver type ("Context" for
// func (ctx *Context[E]) …), or "" for non-methods.
func recvTypeName(f *types.Func) string {
	sig, ok := f.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return ""
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return ""
	}
	return named.Obj().Name()
}

// isMapType reports whether t's core type is a map. Type parameters are
// unwrapped through their core type when it is uniquely a map.
func isMapType(t types.Type) bool {
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Map)
	return ok
}
