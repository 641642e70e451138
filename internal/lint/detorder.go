package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// DetOrder enforces the engine's determinism contract in the packages where
// floating-point results are folded: fmmexec's term loops, gemm's blocked
// loops, shard's tile fold, the root fmmfam package (the multiplier's
// sharded reduction, batch dispatch and async queue), and the serve
// package's coalescing/dispatch layer.
//
// Two rules:
//
//  1. Inside those scopes, a range over a map must not write slice or array
//     elements or call matrix mutators: map iteration order is randomized
//     per run, and the order of additions into C (or any reduction buffer)
//     is exactly what the bit-reproducibility contract pins down. Writes to
//     other maps from inside a map range are fine — map insertion is
//     order-independent.
//
//  2. All goroutine fan-out must go through internal/sched: a bare go
//     statement bypasses the pool's bounded worker budget (oversubscribing
//     the machine under concurrent callers) and its deterministic
//     cost-sorted seeding. PR 6 removed exactly such a fan-out; this rule
//     keeps it out. A go statement whose line carries an //fmm:go-ok
//     comment is waived — that is for bounded service-lifecycle goroutines
//     (a shutdown watcher, a listener loop, the async queue's drainers),
//     never for compute fan-out, and the comment must say why.
var DetOrder = &Analyzer{
	Name: "detorder",
	Doc: `forbid nondeterministic fold order and bare goroutine fan-out

In internal/fmmexec, internal/gemm, internal/shard, serve, and the root
fmmfam package: ranging over a map while the loop body writes slice/array
elements or calls matrix mutators is forbidden (map order is random; fold
order into C is part of the bit-reproducibility contract — iterate a sorted
key slice instead), and bare go statements are forbidden (all fan-out goes
through internal/sched's bounded pool; a bounded service-lifecycle
goroutine may be waived with a //fmm:go-ok comment on its line explaining
why).`,
	Run: runDetOrder,
}

// detOrderPkgs are the determinism-critical packages, matched by final
// import-path element so fixtures exercise the same scoping.
var detOrderPkgs = map[string]bool{
	"fmmfam":  true, // the module root: multiplier, async queue, autotune wiring
	"fmmexec": true,
	"gemm":    true,
	"shard":   true,
	"serve":   true,
}

// goOKDirective waives the bare-go rule for the go statement on its line —
// the escape hatch for bounded service-lifecycle goroutines in scoped
// packages (mirroring hotpathalloc's //fmm:alloc-ok).
const goOKDirective = "fmm:go-ok"

// goOKLines collects the lines carrying an //fmm:go-ok waiver.
func goOKLines(pass *Pass, file *ast.File) map[int]bool {
	lines := make(map[int]bool)
	for _, cg := range file.Comments {
		for _, c := range cg.List {
			if strings.Contains(c.Text, goOKDirective) {
				lines[pass.Fset.Position(c.Pos()).Line] = true
			}
		}
	}
	return lines
}

// matMutators are methods that mutate a matrix or reduction buffer in place.
var matMutators = map[string]bool{
	"AddScaled": true,
	"Zero":      true,
	"Set":       true,
	"Scale":     true,
}

func runDetOrder(pass *Pass) error {
	if !detOrderPkgs[lastElem(pass.Path)] {
		return nil
	}
	for _, file := range pass.Files {
		goOK := goOKLines(pass, file)
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.GoStmt:
				if goOK[pass.Fset.Position(n.Pos()).Line] {
					return true
				}
				pass.Reportf(n.Pos(), "bare go statement: route fan-out through internal/sched so the worker budget stays bounded and seeding deterministic (annotate the line //fmm:go-ok only for bounded service-lifecycle goroutines)")
			case *ast.RangeStmt:
				if isMapType(pass.Info.Types[n.X].Type) {
					checkMapRangeBody(pass, n)
				}
			}
			return true
		})
	}
	return nil
}

// checkMapRangeBody flags order-sensitive writes inside a map-range body.
func checkMapRangeBody(pass *Pass, rs *ast.RangeStmt) {
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, l := range n.Lhs {
				if isSliceElemWrite(pass, l) {
					pass.Reportf(n.Pos(), "slice element written inside range over map: iteration order is nondeterministic — iterate a sorted key slice instead")
				}
			}
		case *ast.IncDecStmt:
			if isSliceElemWrite(pass, n.X) {
				pass.Reportf(n.Pos(), "slice element updated inside range over map: iteration order is nondeterministic — iterate a sorted key slice instead")
			}
		case *ast.CallExpr:
			if f := calleeFunc(pass.Info, n); f != nil && matMutators[f.Name()] && recvTypeName(f) != "" {
				pass.Reportf(n.Pos(), "matrix mutator %s.%s called inside range over map: fold order into the target is nondeterministic — iterate a sorted key slice instead", recvTypeName(f), f.Name())
			}
		}
		return true
	})
}

// isSliceElemWrite reports whether expr is an index into a slice or array —
// the write shapes whose order the determinism contract pins (map writes are
// order-independent and allowed).
func isSliceElemWrite(pass *Pass, expr ast.Expr) bool {
	idx, ok := ast.Unparen(expr).(*ast.IndexExpr)
	if !ok {
		return false
	}
	t := pass.Info.Types[idx.X].Type
	if t == nil {
		return false
	}
	switch u := t.Underlying().(type) {
	case *types.Slice, *types.Array:
		return true
	case *types.Pointer:
		_, ok := u.Elem().Underlying().(*types.Array)
		return ok
	}
	return false
}
