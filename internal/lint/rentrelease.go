package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// RentRelease checks that every buffer rented from one of the engine's
// bounded pools is released on every path out of the renting function.
//
// The pools and their rent/release pairs are listed in rentSpecs; a rent
// whose result is bound to a local variable starts tracking, and the
// analyzer then runs a forward may-leak dataflow over the function's CFG:
// a token survives a statement unless the statement releases it (the paired
// release call — deferred forms count at registration, since a registered
// defer runs on every subsequent exit) or
// visibly transfers ownership (returning the value, storing it into a
// field/slice/map, passing it to another call, sending it, or capturing it
// in a function literal). A token still live at any function exit is a
// leak on at least one path and is reported at the rent site.
//
// Ownership transfers end tracking rather than being chased across
// functions — the analyzer is deliberately intraprocedural, so patterns
// like renting into a slice that a later loop releases (mulAddSharded) are
// accepted, not verified. The cost is a false negative, never a false
// positive.
var RentRelease = &Analyzer{
	Name: "rentrelease",
	Doc: `check that pooled-buffer rents are released on every return path

Rents from the engine's bounded pools (a gemm context's packing workspaces
and scratch matrices) must have their paired release reachable on every path
out of the renting function, deferred or explicit. A leaked rent shrinks the pool until callers allocate on every
operation — or, for the bounded channels, until the pool is effectively
empty under load.`,
	Run: runRentRelease,
}

// rentSpec describes one rent/release pair by receiver type name and method
// name. Matching is by name rather than by package so the analyzer works
// identically on the real packages and on test fixtures.
type rentSpec struct {
	recv    string // receiver type name of both methods
	rent    string // renting method: its single result carries the obligation
	release string // paired releasing method
}

// rentSpecs lists every rent/release pair of the engine: all pooled memory
// belongs to a gemm.Context. The last two entries are that context's scratch
// list as the layers above reach it — through a multiplier, and through the
// two-method interface package serve calls the multiplier by.
// TestSeededViolations leaks through each entry's real method, so a spec
// naming a method that no longer exists fails there.
var rentSpecs = []rentSpec{
	{recv: "Context", rent: "GetWorkspace", release: "PutWorkspace"},
	{recv: "workspacePool", rent: "get", release: "put"},
	{recv: "Context", rent: "RentMat", release: "ReturnMat"},
	{recv: "GenericMultiplier", rent: "RentMat", release: "ReturnMat"},
	{recv: "matLender", rent: "RentMat", release: "ReturnMat"},
}

func rentSpecFor(f *types.Func) *rentSpec {
	if f == nil {
		return nil
	}
	recv := recvTypeName(f)
	for i := range rentSpecs {
		if rentSpecs[i].rent == f.Name() && rentSpecs[i].recv == recv {
			return &rentSpecs[i]
		}
	}
	return nil
}

// rentInfo is one outstanding obligation: where the rent happened and which
// pair it came from. The tracked variable's object is the state key.
type rentInfo struct {
	pos  token.Pos
	spec *rentSpec
	name string
}

type rentState map[types.Object]rentInfo

func (s rentState) clone() rentState {
	out := make(rentState, len(s))
	for k, v := range s {
		out[k] = v
	}
	return out
}

func (s rentState) merge(other rentState) {
	for k, v := range other {
		if _, ok := s[k]; !ok {
			s[k] = v
		}
	}
}

func (s rentState) equal(other rentState) bool {
	if len(s) != len(other) {
		return false
	}
	for k, v := range s {
		o, ok := other[k]
		if !ok || o.pos != v.pos {
			return false
		}
	}
	return true
}

func runRentRelease(pass *Pass) error {
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			var body *ast.BlockStmt
			switch fn := n.(type) {
			case *ast.FuncDecl:
				body = fn.Body
			case *ast.FuncLit:
				body = fn.Body
			}
			if body != nil {
				checkRentReleaseBody(pass, body)
			}
			return true
		})
	}
	return nil
}

// bodyHasRent is a cheap pre-filter: most functions rent nothing.
func bodyHasRent(pass *Pass, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		if _, ok := n.(*ast.FuncLit); ok && n.Pos() != body.Pos() {
			return false // nested literals are analyzed as their own bodies
		}
		if call, ok := n.(*ast.CallExpr); ok {
			if rentSpecFor(calleeFunc(pass.Info, call)) != nil {
				found = true
			}
		}
		return true
	})
	return found
}

func checkRentReleaseBody(pass *Pass, body *ast.BlockStmt) {
	if !bodyHasRent(pass, body) {
		return
	}
	g := buildCFG(body)
	if !g.ok {
		return // goto-using function: decline rather than guess
	}
	preds := make(map[*cfgBlock][]*cfgBlock)
	for _, b := range g.blocks {
		for _, s := range b.succs {
			preds[s] = append(preds[s], b)
		}
	}
	out := make(map[*cfgBlock]rentState)
	for _, b := range g.blocks {
		out[b] = rentState{}
	}
	// Forward fixpoint, union at joins: a token outstanding on any path into
	// a block stays outstanding. Kills are per-statement, so the transfer is
	// monotone and the iteration terminates.
	for changed := true; changed; {
		changed = false
		for _, b := range g.blocks {
			in := rentState{}
			for _, p := range preds[b] {
				in.merge(out[p])
			}
			o := in.clone()
			for _, stmt := range b.nodes {
				rrTransfer(pass, o, stmt)
			}
			if !o.equal(out[b]) {
				out[b] = o
				changed = true
			}
		}
	}
	// Any token live at an exit leaked on at least one path. Report each rent
	// site once.
	leaked := make(map[token.Pos]rentInfo)
	for _, e := range g.exits {
		for _, info := range out[e] {
			leaked[info.pos] = info
		}
	}
	positions := make([]token.Pos, 0, len(leaked))
	for pos := range leaked {
		positions = append(positions, pos)
	}
	sort.Slice(positions, func(i, j int) bool { return positions[i] < positions[j] })
	for _, pos := range positions {
		info := leaked[pos]
		pass.Reportf(pos, "%s rented via %s.%s is not released with %s on every path out of the function",
			info.name, info.spec.recv, info.spec.rent, info.spec.release)
	}
}

// rrTransfer applies one statement to the state: first kills (releases and
// ownership transfers), then the statement's own rent binding, if any.
func rrTransfer(pass *Pass, state rentState, stmt ast.Stmt) {
	rrKillScan(pass, state, stmt)
	as, ok := stmt.(*ast.AssignStmt)
	if !ok || len(as.Rhs) != 1 || len(as.Lhs) != 1 {
		return
	}
	call, ok := ast.Unparen(as.Rhs[0]).(*ast.CallExpr)
	if !ok {
		return
	}
	spec := rentSpecFor(calleeFunc(pass.Info, call))
	if spec == nil {
		return
	}
	id, ok := as.Lhs[0].(*ast.Ident)
	if !ok || id.Name == "_" {
		return
	}
	obj := objectOf(pass.Info, id)
	if obj == nil {
		return
	}
	state[obj] = rentInfo{pos: call.Pos(), spec: spec, name: id.Name}
}

// rrKillScan removes every token the statement releases or whose ownership
// it transfers. Both end the obligation from the analyzer's point of view,
// so they share one mechanism: a token dies when its variable appears as a
// whole operand — a call argument (the release calls are exactly this
// shape), a return result, the right side of an assignment, a sent value, a
// composite-literal element, an address-taken operand — or anywhere inside a
// function literal (the closure may release it later; chasing that is out of
// scope). Mere uses of the rented value — selector or index bases like
// ws.bbuf, conditions — keep the obligation alive.
func rrKillScan(pass *Pass, state rentState, root ast.Node) {
	ast.Inspect(root, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			rrKillAllRefs(pass, state, n)
			return false
		case *ast.CallExpr:
			for _, arg := range n.Args {
				rrKillOperand(pass, state, arg)
			}
		case *ast.ReturnStmt:
			for _, r := range n.Results {
				rrKillOperand(pass, state, r)
			}
		case *ast.AssignStmt:
			for _, r := range n.Rhs {
				rrKillOperand(pass, state, r)
			}
			for _, l := range n.Lhs {
				if id, ok := l.(*ast.Ident); ok {
					if obj := objectOf(pass.Info, id); obj != nil {
						delete(state, obj) // reassignment drops the old binding
					}
				}
			}
		case *ast.SendStmt:
			rrKillOperand(pass, state, n.Value)
		case *ast.CompositeLit:
			for _, e := range n.Elts {
				if kv, ok := e.(*ast.KeyValueExpr); ok {
					e = kv.Value
				}
				rrKillOperand(pass, state, e)
			}
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				rrKillOperand(pass, state, n.X)
			}
		}
		return true
	})
}

// rrKillOperand kills a token used as a whole operand (modulo parens and &).
func rrKillOperand(pass *Pass, state rentState, e ast.Expr) {
	e = ast.Unparen(e)
	if u, ok := e.(*ast.UnaryExpr); ok && u.Op == token.AND {
		e = ast.Unparen(u.X)
	}
	id, ok := e.(*ast.Ident)
	if !ok {
		return
	}
	if obj := objectOf(pass.Info, id); obj != nil {
		delete(state, obj)
	}
}

// rrKillAllRefs kills every tracked token referenced anywhere inside a
// function literal: the closure may release or leak it on its own schedule.
func rrKillAllRefs(pass *Pass, state rentState, lit *ast.FuncLit) {
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if obj := objectOf(pass.Info, id); obj != nil {
				delete(state, obj)
			}
		}
		return true
	})
}
