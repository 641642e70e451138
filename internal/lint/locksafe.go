package lint

import (
	"go/ast"
	"go/types"
)

// LockSafe extends vet's copylocks to the engine's pool-holding state. A
// type is no-copy when it (transitively, through value fields, embedded
// fields, and arrays) contains a sync or sync/atomic state type — or when it
// is the engine type whose identity is load-bearing even without a mutex: a
// gemm Workspace (its buffers are owned by a bounded pool; a copy aliases the
// packing buffers and term lists across two apparent owners).
//
// No-copy types must not appear by value in function signatures (parameters,
// results, or receivers), be copied by assignment, be passed by value as
// call arguments, or be copied out as range values.
var LockSafe = &Analyzer{
	Name: "locksafe",
	Doc: `forbid copying lock- or pool-holding values

Types containing sync.Mutex/RWMutex/WaitGroup/Cond/Once/Pool/Map or
sync/atomic value types — and the engine's pool-owned Workspace — must be
handled through pointers: value parameters, value results, value receivers,
assignments, value arguments, and range values all silently fork the lock or
pool state.`,
	Run: runLockSafe,
}

// syncNoCopy are the sync package's stateful types.
var syncNoCopy = map[string]bool{
	"Mutex":     true,
	"RWMutex":   true,
	"WaitGroup": true,
	"Cond":      true,
	"Once":      true,
	"Pool":      true,
	"Map":       true,
}

// extraNoCopy are engine types that own pooled buffers without carrying a
// lock; copying them aliases pool-owned memory. Matched by type name so the
// rule covers the real packages and fixtures alike.
var extraNoCopy = map[string]bool{
	"Workspace": true,
}

func runLockSafe(pass *Pass) error {
	memo := make(map[types.Type]string)
	why := func(t types.Type) string { return noCopyReason(t, memo, nil) }
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				obj, _ := objectOf(pass.Info, n.Name).(*types.Func)
				if obj != nil {
					checkSignature(pass, n, obj.Signature(), why)
				}
			case *ast.FuncLit:
				if sig, ok := pass.Info.Types[n].Type.(*types.Signature); ok {
					checkFuncLitSignature(pass, n, sig, why)
				}
			case *ast.AssignStmt:
				for _, r := range n.Rhs {
					checkCopySource(pass, r, "assignment copies", why)
				}
			case *ast.ValueSpec:
				for _, v := range n.Values {
					checkCopySource(pass, v, "assignment copies", why)
				}
			case *ast.CallExpr:
				if isConversion(pass, n) {
					break
				}
				for _, arg := range n.Args {
					checkCopySource(pass, arg, "call passes", why)
				}
			case *ast.RangeStmt:
				checkRangeCopies(pass, n, why)
			}
			return true
		})
	}
	return nil
}

func isConversion(pass *Pass, call *ast.CallExpr) bool {
	tv, ok := pass.Info.Types[call.Fun]
	return ok && tv.IsType()
}

// noCopyReason returns a short description of why t must not be copied
// ("sync.Mutex", "Workspace", …) or "" when copying is fine. seen guards
// recursive types.
func noCopyReason(t types.Type, memo map[types.Type]string, seen []types.Type) string {
	if t == nil {
		return ""
	}
	if r, ok := memo[t]; ok {
		return r
	}
	for _, s := range seen {
		if s == t {
			return ""
		}
	}
	seen = append(seen, t)
	r := noCopyReasonUncached(t, memo, seen)
	memo[t] = r
	return r
}

func noCopyReasonUncached(t types.Type, memo map[types.Type]string, seen []types.Type) string {
	switch t := t.(type) {
	case *types.Named:
		obj := t.Obj()
		if pkg := obj.Pkg(); pkg != nil {
			switch pkg.Path() {
			case "sync":
				if syncNoCopy[obj.Name()] {
					return "sync." + obj.Name()
				}
			case "sync/atomic":
				// Every named type in sync/atomic (Int32, Int64, Uint64,
				// Bool, Pointer, Value, …) embeds noCopy or is address-
				// sensitive.
				return "sync/atomic." + obj.Name()
			}
		}
		if extraNoCopy[obj.Name()] {
			return obj.Name()
		}
		return noCopyReason(t.Underlying(), memo, seen)
	case *types.Alias:
		return noCopyReason(types.Unalias(t), memo, seen)
	case *types.Struct:
		for i := 0; i < t.NumFields(); i++ {
			if r := noCopyReason(t.Field(i).Type(), memo, seen); r != "" {
				return r
			}
		}
	case *types.Array:
		return noCopyReason(t.Elem(), memo, seen)
	}
	// Pointers, slices, maps, channels, basics, interfaces, funcs, type
	// params: copying the reference is fine.
	return ""
}

func checkSignature(pass *Pass, fn *ast.FuncDecl, sig *types.Signature, why func(types.Type) string) {
	if recv := sig.Recv(); recv != nil {
		if r := why(recv.Type()); r != "" {
			pass.Reportf(fn.Name.Pos(), "method %s has value receiver of no-copy type (contains %s); use a pointer receiver", fn.Name.Name, r)
		}
	}
	checkTuple(pass, fn.Name.Name, sig, why)
}

func checkFuncLitSignature(pass *Pass, lit *ast.FuncLit, sig *types.Signature, why func(types.Type) string) {
	checkTuple(pass, "function literal", sig, why)
}

func checkTuple(pass *Pass, name string, sig *types.Signature, why func(types.Type) string) {
	params := sig.Params()
	for i := 0; i < params.Len(); i++ {
		v := params.At(i)
		if r := why(v.Type()); r != "" {
			pass.Reportf(v.Pos(), "%s takes %s by value (contains %s); pass a pointer", name, paramName(v), r)
		}
	}
	results := sig.Results()
	for i := 0; i < results.Len(); i++ {
		v := results.At(i)
		if r := why(v.Type()); r != "" {
			pass.Reportf(v.Pos(), "%s returns a no-copy value (contains %s); return a pointer", name, r)
		}
	}
}

func paramName(v *types.Var) string {
	if v.Name() != "" && v.Name() != "_" {
		return "parameter " + v.Name()
	}
	return "a parameter"
}

// checkCopySource flags expressions that read an existing no-copy value by
// value: identifiers, selectors, index expressions, and dereferences.
// Constructions (composite literals) and calls are fine here — a call
// returning a no-copy value by value is flagged at its declaration.
func checkCopySource(pass *Pass, e ast.Expr, verb string, why func(types.Type) string) {
	e = ast.Unparen(e)
	switch e.(type) {
	case *ast.Ident, *ast.SelectorExpr, *ast.IndexExpr, *ast.StarExpr:
	default:
		return
	}
	// Only values copy; the same shapes also appear as type arguments of
	// builtins (new(scratch[E])) and as conversion targets.
	tv, ok := pass.Info.Types[e]
	if !ok || !tv.IsValue() || tv.Type == nil {
		return
	}
	if r := why(tv.Type); r != "" {
		pass.Reportf(e.Pos(), "%s a no-copy value (contains %s); use a pointer", verb, r)
	}
}

func checkRangeCopies(pass *Pass, rs *ast.RangeStmt, why func(types.Type) string) {
	for _, v := range []ast.Expr{rs.Key, rs.Value} {
		if v == nil {
			continue
		}
		id, ok := v.(*ast.Ident)
		if !ok || id.Name == "_" {
			continue
		}
		obj := objectOf(pass.Info, id)
		if obj == nil {
			continue
		}
		if r := why(obj.Type()); r != "" {
			pass.Reportf(id.Pos(), "range copies a no-copy value into %s (contains %s); range over indices or pointers instead", id.Name, r)
		}
	}
}
