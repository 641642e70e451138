package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// HotPathAlloc checks functions annotated //fmm:hotpath for allocation-
// inducing constructs. The annotated functions are the per-tile and per-term
// inner loops — micro-kernels, packing, scatter, the term loops — which run
// millions of times per multiplication; a single allocation there turns into
// GC pressure proportional to the problem volume.
//
// Flagged constructs: make, new, append (suppressible per line with
// //fmm:alloc-ok for amortized growth into reused pooled buffers), slice and
// map composite literals, taking the address of a composite literal,
// function literals (closures generally escape when passed to the scheduler
// or deferred), go statements, string concatenation and conversions that
// build strings, explicit conversions to interface types, implicit boxing of
// a concrete argument into an interface parameter, any call into fmt, and
// handing the address of a local (or of an element of a local array) to a
// body-less function of the package — an assembly stub — that is not marked
// //go:noescape: the compiler must assume such a callee keeps the pointer,
// so the local moves to the heap, once per call.
//
// The check is syntactic-plus-types, not an escape analysis: constructs the
// compiler might keep on the stack are still flagged, because hot-path code
// should not rely on escape analysis staying clever across compiler
// versions.
var HotPathAlloc = &Analyzer{
	Name: "hotpathalloc",
	Doc: `forbid allocation-inducing constructs in //fmm:hotpath functions

Functions annotated with a //fmm:hotpath directive are the engine's inner
loops. They may not contain make/new/append (append is allowed on lines
annotated //fmm:alloc-ok, for amortized growth into reused pooled buffers),
slice/map literals, closures, go statements, string building, conversions to
interfaces (explicit or by argument passing), fmt calls, or the address of a
local passed to a body-less (assembly) function that lacks //go:noescape.`,
	Run: runHotPathAlloc,
}

const (
	hotPathDirective  = "//fmm:hotpath"
	allocOKDirective  = "fmm:alloc-ok"
	noEscapeDirective = "//go:noescape"
)

func runHotPathAlloc(pass *Pass) error {
	escaping := escapingStubs(pass)
	for _, file := range pass.Files {
		allocOK := allocOKLines(pass, file)
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil || !hasDirective(fn.Doc, hotPathDirective) {
				continue
			}
			checkHotPath(pass, fn, allocOK, escaping)
		}
	}
	return nil
}

// hasDirective reports whether a declaration's doc comment carries the given
// //-directive line.
func hasDirective(doc *ast.CommentGroup, directive string) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		if strings.HasPrefix(strings.TrimSpace(c.Text), directive) {
			return true
		}
	}
	return false
}

// escapingStubs collects the package's body-less functions (assembly stubs)
// that carry no //go:noescape: pointer arguments to these escape.
func escapingStubs(pass *Pass) map[*types.Func]bool {
	stubs := make(map[*types.Func]bool)
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body != nil || hasDirective(fn.Doc, noEscapeDirective) {
				continue
			}
			if f, ok := pass.Info.Defs[fn.Name].(*types.Func); ok {
				stubs[f] = true
			}
		}
	}
	return stubs
}

// localAddressed returns the local variable whose storage the operand of an
// & expression lives in — x for &x, &x[i] with x an array, &x.f with x a
// struct, and nestings of those — or nil when the address is of something
// else (a slice element, a pointer's target, a package-level variable).
func localAddressed(pass *Pass, e ast.Expr) *types.Var {
	underlying := func(x ast.Expr) types.Type {
		if t := pass.Info.Types[x].Type; t != nil {
			return t.Underlying()
		}
		return nil
	}
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.IndexExpr:
			if _, ok := underlying(x.X).(*types.Array); !ok {
				return nil
			}
			e = x.X
		case *ast.SelectorExpr:
			if _, ok := underlying(x.X).(*types.Struct); !ok {
				return nil
			}
			e = x.X
		case *ast.Ident:
			v, ok := objectOf(pass.Info, x).(*types.Var)
			if !ok || v.IsField() || v.Parent() == nil || v.Parent() == v.Pkg().Scope() {
				return nil
			}
			return v
		default:
			return nil
		}
	}
}

// allocOKLines collects the lines carrying an //fmm:alloc-ok suppression.
func allocOKLines(pass *Pass, file *ast.File) map[int]bool {
	lines := make(map[int]bool)
	for _, cg := range file.Comments {
		for _, c := range cg.List {
			if strings.Contains(c.Text, allocOKDirective) {
				lines[pass.Fset.Position(c.Pos()).Line] = true
			}
		}
	}
	return lines
}

func checkHotPath(pass *Pass, fn *ast.FuncDecl, allocOK map[int]bool, escaping map[*types.Func]bool) {
	name := fn.Name.Name
	report := func(pos token.Pos, format string, args ...any) {
		if allocOK[pass.Fset.Position(pos).Line] {
			return
		}
		args = append([]any{name}, args...)
		pass.Reportf(pos, "hot path %s: "+format, args...)
	}
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			report(n.Pos(), "function literal (closures allocate when they escape)")
			return false
		case *ast.GoStmt:
			report(n.Pos(), "go statement allocates a goroutine")
		case *ast.CallExpr:
			checkHotPathCall(pass, n, report)
			if f := calleeFunc(pass.Info, n); f != nil && escaping[f] {
				for _, arg := range n.Args {
					u, ok := ast.Unparen(arg).(*ast.UnaryExpr)
					if !ok || u.Op != token.AND {
						continue
					}
					if v := localAddressed(pass, u.X); v != nil {
						report(arg.Pos(), "address of local %s passed to body-less %s, which lacks //go:noescape: the local is heap-allocated on every call", v.Name(), f.Name())
					}
				}
			}
		case *ast.CompositeLit:
			t := pass.Info.Types[n].Type
			if t != nil {
				switch t.Underlying().(type) {
				case *types.Slice:
					report(n.Pos(), "slice literal allocates")
				case *types.Map:
					report(n.Pos(), "map literal allocates")
				}
			}
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if _, ok := ast.Unparen(n.X).(*ast.CompositeLit); ok {
					report(n.Pos(), "address of composite literal allocates")
				}
			}
		case *ast.BinaryExpr:
			if n.Op == token.ADD {
				if t := pass.Info.Types[n].Type; t != nil && isStringType(t) {
					report(n.Pos(), "string concatenation allocates")
				}
			}
		}
		return true
	})
}

func checkHotPathCall(pass *Pass, call *ast.CallExpr, report func(token.Pos, string, ...any)) {
	// Builtins.
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := objectOf(pass.Info, id).(*types.Builtin); ok {
			switch b.Name() {
			case "make":
				report(call.Pos(), "make allocates")
			case "new":
				report(call.Pos(), "new allocates")
			case "append":
				report(call.Pos(), "append may grow its backing array (annotate the line //fmm:alloc-ok if growth is amortized into a reused buffer)")
			}
			return
		}
	}
	// Conversions: T(x) where T is an interface or a string built from bytes.
	if tv, ok := pass.Info.Types[call.Fun]; ok && tv.IsType() {
		target := tv.Type
		if isInterfaceNotTypeParam(target) {
			report(call.Pos(), "conversion to interface %s allocates", types.TypeString(target, types.RelativeTo(pass.Pkg)))
		}
		if isStringType(target) && len(call.Args) == 1 {
			if at := pass.Info.Types[call.Args[0]].Type; at != nil {
				if _, ok := at.Underlying().(*types.Slice); ok {
					report(call.Pos(), "byte/rune-slice to string conversion allocates")
				}
			}
		}
		return
	}
	f := calleeFunc(pass.Info, call)
	if f == nil {
		return
	}
	if pkg := f.Pkg(); pkg != nil && pkg.Path() == "fmt" {
		report(call.Pos(), "fmt.%s allocates and boxes its operands", f.Name())
		return
	}
	// Implicit boxing: a concrete argument passed for an interface parameter.
	sig, ok := f.Type().(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if call.Ellipsis.IsValid() {
				continue // forwarding a slice: no boxing here
			}
			pt = params.At(params.Len() - 1).Type()
			if s, ok := pt.Underlying().(*types.Slice); ok {
				pt = s.Elem()
			}
		case i < params.Len():
			pt = params.At(i).Type()
		default:
			continue
		}
		if !isInterfaceNotTypeParam(pt) {
			continue
		}
		at := pass.Info.Types[arg].Type
		if at == nil || isUntypedNil(at) {
			continue
		}
		if _, ok := at.Underlying().(*types.Interface); ok {
			continue // interface-to-interface: no boxing
		}
		if _, ok := at.(*types.TypeParam); ok {
			continue
		}
		report(arg.Pos(), "argument boxed into interface parameter %s", types.TypeString(pt, types.RelativeTo(pass.Pkg)))
	}
}

// isInterfaceNotTypeParam reports whether t is an interface type, excluding
// type parameters (whose underlying is an interface but whose use does not
// box).
func isInterfaceNotTypeParam(t types.Type) bool {
	if t == nil {
		return false
	}
	if _, ok := t.(*types.TypeParam); ok {
		return false
	}
	_, ok := t.Underlying().(*types.Interface)
	return ok
}

func isStringType(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isUntypedNil(t types.Type) bool {
	b, ok := t.(*types.Basic)
	return ok && b.Kind() == types.UntypedNil
}
