// Package analysis is a self-contained go/analysis-style framework for the
// iqlint suite (cmd/iqlint). The transport's correctness rests on contracts
// the compiler cannot see — the Env.Emit / Machine.HandlePacket borrow
// discipline, pooled-buffer release on every path, no time.After in loops,
// no blocking I/O under a shard lock, socket errors counted into Metrics,
// registered trace/attr vocabularies — so this package makes them
// machine-checked: each invariant is an Analyzer, run over fully
// type-checked packages by the loader in load.go (standalone mode) or by
// the `go vet -vettool` unitchecker protocol in unit.go.
//
// The API deliberately mirrors golang.org/x/tools/go/analysis (Analyzer,
// Pass, Diagnostic) so the analyzers could migrate to the real framework if
// the dependency ever becomes available; everything here builds on the
// standard library only (go/ast, go/types, go/importer and the go command).
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Analyzer is one static check: a name (also the suppression key used by
// //iqlint:ignore comments), a doc string shown by `iqlint -list`, and the
// Run function applied to every package.
//
// An analyzer that needs to see the whole load — lockorder's mutex
// acquisition graph spans every package of a `make lint` run — sets
// NewState: the driver calls it once per Run invocation, hands the value
// to every Pass through Pass.State, and calls its Finish after the last
// package, where cross-package diagnostics are reported. Under the go vet
// driver each invocation holds a single package, so Finish sees only that
// package's facts — cross-package findings are strongest in standalone
// mode (make lint, TestSuiteCleanOnTree).
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass) error

	// NewState, when set, allocates per-invocation shared state threaded
	// through every package's Pass and finished after the last one.
	NewState func() State
}

// State is an analyzer's per-Run accumulator; see Analyzer.NewState.
type State interface {
	// Finish runs after every package has been analyzed. Diagnostics it
	// reports pass through the same //iqlint:ignore suppression filter as
	// per-package ones.
	Finish(report func(Diagnostic)) error
}

// Diagnostic is one finding.
type Diagnostic struct {
	Pos      token.Pos
	Analyzer string
	Message  string
}

// Pass carries one type-checked package through one analyzer.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File // non-test files, with comments
	Pkg      *types.Package
	Info     *types.Info
	State    State // the Analyzer.NewState value for this Run, or nil

	report     func(Diagnostic)
	dir        string // the package's source directory
	directives *declDirectives
}

// DeclHasDirective reports whether the declaration of obj — a function,
// method or type, in this package or in another package of the module —
// carries the given //iqlint: directive in its doc comment.
func (p *Pass) DeclHasDirective(obj types.Object, directive string) bool {
	var local []*ast.File
	if obj != nil && obj.Pkg() == p.Pkg {
		local = p.Files
	}
	return p.directives.has(obj, directive, p.dir, local)
}

// TestFile reports whether pos lies in a _test.go file. The standalone
// loader never loads test files, but the go vet driver does; analyzers
// whose invariants do not apply to test harness code gate on this.
func (p *Pass) TestFile(pos token.Pos) bool {
	return strings.HasSuffix(p.Fset.Position(pos).Filename, "_test.go")
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{Pos: pos, Analyzer: p.Analyzer.Name, Message: fmt.Sprintf(format, args...)})
}

// Callee resolves the *types.Func a call expression invokes (methods and
// package-level functions), or nil for builtins, conversions and calls
// through function-typed values.
func (p *Pass) Callee(call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		f, _ := p.Info.Uses[fun].(*types.Func)
		return f
	case *ast.SelectorExpr:
		if sel, ok := p.Info.Selections[fun]; ok {
			f, _ := sel.Obj().(*types.Func)
			return f
		}
		f, _ := p.Info.Uses[fun.Sel].(*types.Func)
		return f
	}
	return nil
}

// IsPkgFunc reports whether call invokes the package-level function
// pkgPath.name, where pkgPath matches exactly or as a "/"-suffix (so
// "internal/packet" matches the module-qualified import path).
func (p *Pass) IsPkgFunc(call *ast.CallExpr, pkgPath, name string) bool {
	f := p.Callee(call)
	if f == nil || f.Name() != name || f.Pkg() == nil {
		return false
	}
	if recv := f.Type().(*types.Signature).Recv(); recv != nil {
		return false
	}
	return PathMatches(f.Pkg().Path(), pkgPath)
}

// IsMethod reports whether call invokes method name on the named type
// pkgPath.typeName (through a pointer or value receiver, concrete or
// interface, including methods promoted from an embedded field).
func (p *Pass) IsMethod(call *ast.CallExpr, pkgPath, typeName, name string) bool {
	f := p.Callee(call)
	if f == nil || f.Name() != name {
		return false
	}
	for _, t := range p.ReceiverTypes(call) {
		if IsNamedType(t, pkgPath, typeName) {
			return true
		}
	}
	return false
}

// ReceiverTypes returns the candidate receiver types of a method call: the
// type the selection was made through and the method's declared receiver.
// These differ for promoted methods — (*net.UDPConn).SetReadBuffer is
// really declared on the unexported embedded *net.conn — and analyzers
// that match receivers by name must accept either. Empty for non-methods.
func (p *Pass) ReceiverTypes(call *ast.CallExpr) []types.Type {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	var out []types.Type
	if s, ok := p.Info.Selections[sel]; ok {
		out = append(out, s.Recv())
		if f, ok := s.Obj().(*types.Func); ok {
			if r := f.Type().(*types.Signature).Recv(); r != nil {
				out = append(out, r.Type())
			}
		}
		return out
	}
	if f, ok := p.Info.Uses[sel.Sel].(*types.Func); ok {
		if r := f.Type().(*types.Signature).Recv(); r != nil {
			out = append(out, r.Type())
		}
	}
	return out
}

// namedRecv unwraps a receiver type to its named type's name and package
// path ("" for types in the universe scope).
func namedRecv(t types.Type) (name, pkgPath string) {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return "", ""
	}
	obj := named.Obj()
	if obj.Pkg() != nil {
		pkgPath = obj.Pkg().Path()
	}
	return obj.Name(), pkgPath
}

// PathMatches reports whether the import path `path` is exactly want or
// ends in "/"+want, so analyzers can name module-internal packages without
// hard-coding the module path.
func PathMatches(path, want string) bool {
	if path == want {
		return true
	}
	return len(path) > len(want) && path[len(path)-len(want)-1] == '/' &&
		path[len(path)-len(want):] == want
}

// IsNamedType reports whether t (possibly behind a pointer) is the named
// type pkgPath.name.
func IsNamedType(t types.Type, pkgPath, name string) bool {
	tn, path := namedRecv(t)
	return tn == name && PathMatches(path, pkgPath)
}

// FuncKey returns a stable, cross-package identity for a function:
// "path.Type.Name" for methods (pointer receivers unwrapped; interface
// methods keyed by the interface type) and "path.Name" for package-level
// functions. The same source function re-type-checked in another package's
// universe (from export data) yields the same key, which is what lets
// cross-package analyzers match call sites against summaries.
func FuncKey(f *types.Func) string {
	pkg := ""
	if f.Pkg() != nil {
		pkg = f.Pkg().Path()
	}
	if recv := f.Type().(*types.Signature).Recv(); recv != nil {
		t := recv.Type()
		if ptr, ok := t.(*types.Pointer); ok {
			t = ptr.Elem()
		}
		switch tt := t.(type) {
		case *types.Named:
			obj := tt.Obj()
			if obj.Pkg() != nil {
				pkg = obj.Pkg().Path()
			}
			return pkg + "." + obj.Name() + "." + f.Name()
		default:
			return pkg + ".(" + t.String() + ")." + f.Name()
		}
	}
	return pkg + "." + f.Name()
}

// SigKey canonicalizes a signature to its parameter and result types —
// names stripped, packages qualified by full path — so structurally
// identical signatures from different type-checking universes compare
// equal. Used to match registered callbacks against indirect call sites.
func SigKey(sig *types.Signature) string {
	qual := func(p *types.Package) string { return p.Path() }
	var sb strings.Builder
	sb.WriteString("func(")
	params := sig.Params()
	for i := 0; i < params.Len(); i++ {
		if i > 0 {
			sb.WriteByte(',')
		}
		if sig.Variadic() && i == params.Len()-1 {
			sb.WriteString("...")
		}
		sb.WriteString(types.TypeString(params.At(i).Type(), qual))
	}
	sb.WriteByte(')')
	results := sig.Results()
	if results.Len() > 0 {
		sb.WriteByte('(')
		for i := 0; i < results.Len(); i++ {
			if i > 0 {
				sb.WriteByte(',')
			}
			sb.WriteString(types.TypeString(results.At(i).Type(), qual))
		}
		sb.WriteByte(')')
	}
	return sb.String()
}
