// Package poolcheck tracks pooled acquisitions — packet.Get(),
// (*uio.BufPool).Get() and the simulator's (*netem.Dumbbell).GetFrame() —
// through the acquiring function.
//
// The freelists only help if every acquire is paired with a release; a
// leaked packet or receive buffer silently degrades the pool.hit gauges
// until steady state allocates again. Within the acquiring function the
// pass enforces:
//
//   - the acquired value must reach packet.Put / BufPool.Put (a deferred
//     Put counts), unless ownership demonstrably transfers out of the
//     function — it is returned, stored into a field, map, slice,
//     channel or global, or captured by a composite literal;
//   - no use of the value after a non-deferred Put on the same
//     straight-line path (use-after-Put is a data race with the next
//     pool customer).
//
// The analysis is per-function and flow-approximate by design: passing
// the value to another function is treated as a borrow (the callee must
// not retain — that is borrowcheck's jurisdiction), matching the
// Env.Emit / HandlePacket ownership contract. The exception is a hand-off:
// a call to a function or method, or through a value of a func type, whose
// doc comment carries //iqlint:owns — in this package or an imported one of
// the module — takes ownership of the acquired value passed to it (directly
// or resliced). That transfers ownership like a channel send, and any later
// use of the value is flagged like a use after Put — the new owner may
// already have returned it to the pool. This is how the serve engine's
// pooled transmit buffers travel from an accepted connection's Emit to the
// shard's transmit loop (udpwire.SendFunc, serve's enqueueTx), and how the
// simulator endpoint's frames reach the network (netem.Dumbbell.Inject).
package poolcheck

import (
	"go/ast"
	"go/token"
	"go/types"

	"github.com/cercs/iqrudp/internal/analysis"
)

// Analyzer is the poolcheck pass.
var Analyzer = &analysis.Analyzer{
	Name: "poolcheck",
	Doc:  "every packet.Get/BufPool.Get/Dumbbell.GetFrame must reach a Put or an owning hand-off on all paths; no use-after-Put",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch fn := n.(type) {
			case *ast.FuncDecl:
				if fn.Body != nil {
					checkFunc(pass, fn.Body)
				}
				return false // nested closures handled inside checkFunc
			}
			return true
		})
	}
	return nil
}

// owningCall reports whether call hands ownership of its arguments to the
// callee: the callee is an //iqlint:owns function or method, or the called
// value's type is an //iqlint:owns func type.
func owningCall(pass *analysis.Pass, call *ast.CallExpr) bool {
	if f := pass.Callee(call); f != nil && pass.DeclHasDirective(f, analysis.OwnsDirective) {
		return true
	}
	if named, ok := pass.Info.TypeOf(call.Fun).(*types.Named); ok {
		return pass.DeclHasDirective(named.Obj(), analysis.OwnsDirective)
	}
	return false
}

// acquire is one pooled Get assigned to a local variable.
type acquire struct {
	obj      types.Object
	pos      token.Pos
	kind     string // "packet.Get", "uio.BufPool.Get" or "netem.Dumbbell.GetFrame"
	released bool
	escaped  bool
	puts     []token.Pos // non-deferred Put positions
	handoffs []token.Pos // ends of calls that took ownership
}

// isGet classifies a call as a pooled acquire.
func isGet(pass *analysis.Pass, call *ast.CallExpr) (string, bool) {
	if pass.IsPkgFunc(call, "internal/packet", "Get") {
		return "packet.Get", true
	}
	if pass.IsMethod(call, "internal/uio", "BufPool", "Get") {
		return "uio.BufPool.Get", true
	}
	if pass.IsMethod(call, "internal/netem", "Dumbbell", "GetFrame") {
		return "netem.Dumbbell.GetFrame", true
	}
	return "", false
}

// isPut classifies a call as a pooled release and returns its argument.
func isPut(pass *analysis.Pass, call *ast.CallExpr) (ast.Expr, bool) {
	if pass.IsPkgFunc(call, "internal/packet", "Put") || pass.IsMethod(call, "internal/uio", "BufPool", "Put") ||
		pass.IsMethod(call, "internal/netem", "Dumbbell", "PutFrame") {
		if len(call.Args) == 1 {
			return call.Args[0], true
		}
	}
	return nil, false
}

func checkFunc(pass *analysis.Pass, body *ast.BlockStmt) {
	// Pass 1: find acquires bound to simple identifiers.
	acquires := map[types.Object]*acquire{}
	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Rhs) != 1 || len(as.Lhs) != 1 {
			return true
		}
		call, ok := as.Rhs[0].(*ast.CallExpr)
		if !ok {
			return true
		}
		kind, ok := isGet(pass, call)
		if !ok {
			return true
		}
		id, ok := as.Lhs[0].(*ast.Ident)
		if !ok || id.Name == "_" {
			return true
		}
		obj := pass.Info.Defs[id]
		if obj == nil {
			obj = pass.Info.Uses[id]
		}
		if obj != nil {
			acquires[obj] = &acquire{obj: obj, pos: call.Pos(), kind: kind}
		}
		return true
	})
	if len(acquires) == 0 {
		return
	}

	objOf := func(e ast.Expr) types.Object {
		if id, ok := ast.Unparen(e).(*ast.Ident); ok {
			if o := pass.Info.Uses[id]; o != nil {
				return o
			}
			return pass.Info.Defs[id]
		}
		return nil
	}

	// Pass 2: releases and escapes.
	var walk func(n ast.Node, deferred bool)
	walk = func(root ast.Node, deferred bool) {
		ast.Inspect(root, func(n ast.Node) bool {
			switch s := n.(type) {
			case *ast.DeferStmt:
				walk(s.Call, true)
				return false
			case *ast.CallExpr:
				if arg, ok := isPut(pass, s); ok {
					if a := acquires[objOf(arg)]; a != nil {
						a.released = true
						if !deferred {
							// Record the call's End so the Put argument itself
							// is not counted as a use-after-Put.
							a.puts = append(a.puts, s.End())
						}
					}
					return false // don't treat the Put arg as an escape
				}
				if !deferred && owningCall(pass, s) {
					for _, arg := range s.Args {
						if sl, ok := ast.Unparen(arg).(*ast.SliceExpr); ok {
							arg = sl.X
						}
						if a := acquires[objOf(arg)]; a != nil {
							a.escaped = true
							a.handoffs = append(a.handoffs, s.End())
						}
					}
				}
			case *ast.ReturnStmt:
				for _, r := range s.Results {
					if a := acquires[objOf(r)]; a != nil {
						a.escaped = true
					}
				}
			case *ast.SendStmt:
				if a := acquires[objOf(s.Value)]; a != nil {
					a.escaped = true
				}
			case *ast.CompositeLit:
				for _, el := range s.Elts {
					v := el
					if kv, ok := el.(*ast.KeyValueExpr); ok {
						v = kv.Value
					}
					if a := acquires[objOf(v)]; a != nil {
						a.escaped = true
					}
				}
			case *ast.AssignStmt:
				// Storing the value anywhere that outlives the function —
				// field, index, dereference or package-level variable —
				// transfers ownership.
				for i, rhs := range s.Rhs {
					a := acquires[objOf(rhs)]
					if a == nil {
						continue
					}
					if i < len(s.Lhs) && escapingLHS(pass, s.Lhs[i]) {
						a.escaped = true
					}
				}
			}
			return true
		})
	}
	walk(body, false)

	for _, a := range acquires {
		if !a.released && !a.escaped {
			pass.Reportf(a.pos, "%s result is never released with Put and does not leave the function; pool leak (add Put on every path, ideally deferred)", a.kind)
		}
	}

	// Pass 3: use-after-Put (or after a hand-off) along source order,
	// reset by rebinding.
	for _, a := range acquires {
		for _, putPos := range a.puts {
			checkUseAfter(pass, body, a, putPos, "after Put returned it to the pool (data race with the next Get)")
		}
		for _, pos := range a.handoffs {
			checkUseAfter(pass, body, a, pos, "after its ownership was handed off (the new owner may already have returned it to the pool)")
		}
	}
}

// escapingLHS reports whether assigning to this expression stores the value
// beyond the function's frame.
func escapingLHS(pass *analysis.Pass, lhs ast.Expr) bool {
	switch l := ast.Unparen(lhs).(type) {
	case *ast.Ident:
		obj := pass.Info.Uses[l]
		if obj == nil {
			obj = pass.Info.Defs[l]
		}
		// Package-level variables escape; locals are just aliases.
		if v, ok := obj.(*types.Var); ok {
			return v.Parent() == pass.Pkg.Scope()
		}
		return false
	case *ast.SelectorExpr, *ast.IndexExpr, *ast.StarExpr:
		return true
	}
	return false
}

// checkUseAfter flags uses of a's object lexically after a non-deferred Put
// (or hand-off) and before any rebinding of the variable.
func checkUseAfter(pass *analysis.Pass, body *ast.BlockStmt, a *acquire, putPos token.Pos, why string) {
	rebound := token.Pos(-1)
	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for _, lhs := range as.Lhs {
			if id, ok := lhs.(*ast.Ident); ok {
				obj := pass.Info.Uses[id]
				if obj == nil {
					obj = pass.Info.Defs[id]
				}
				if obj == a.obj && as.Pos() > putPos && (rebound == token.Pos(-1) || as.Pos() < rebound) {
					rebound = as.Pos()
				}
			}
		}
		return true
	})
	ast.Inspect(body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok || pass.Info.Uses[id] != a.obj {
			return true
		}
		if id.Pos() > putPos && (rebound == token.Pos(-1) || id.Pos() < rebound) {
			pass.Reportf(id.Pos(), "use of %s %s", id.Name, why)
		}
		return true
	})
}
