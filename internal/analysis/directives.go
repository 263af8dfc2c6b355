package analysis

import (
	"bufio"
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"strings"
)

// declDirectives indexes the //iqlint: directives in the doc comments of
// top-level function, method and type declarations, per package. Imported
// packages reach the type checker only as export data, which keeps no
// comments, so a module package's directives are read from its source:
// the directory is derived from the enclosing go.mod, and each package is
// parsed at most once per Run. Packages outside the module (the standard
// library) carry no directives.
type declDirectives struct {
	byPkg   map[string]map[string][]string // import path → decl key → directives
	modules map[string]module              // package dir → enclosing module
}

type module struct{ path, dir string }

func newDeclDirectives() *declDirectives {
	return &declDirectives{byPkg: map[string]map[string][]string{}, modules: map[string]module{}}
}

// has reports whether obj's declaration carries directive. fromDir is the
// source directory of the package under analysis, which locates the module.
func (d *declDirectives) has(obj types.Object, directive, fromDir string, local []*ast.File) bool {
	if obj == nil || obj.Pkg() == nil {
		return false
	}
	path := obj.Pkg().Path()
	idx, ok := d.byPkg[path]
	if !ok {
		if local != nil {
			idx = indexFiles(local)
		} else {
			idx = d.parseImported(path, fromDir)
		}
		d.byPkg[path] = idx
	}
	for _, dir := range idx[declKey(obj)] {
		if dir == directive {
			return true
		}
	}
	return false
}

// parseImported indexes the module package at import path.
func (d *declDirectives) parseImported(path, fromDir string) map[string][]string {
	path, _, _ = strings.Cut(path, " ") // a test variant: "p [p.test]"
	mod := d.module(fromDir)
	if mod.path == "" || (path != mod.path && !strings.HasPrefix(path, mod.path+"/")) {
		return nil
	}
	dir := filepath.Join(mod.dir, filepath.FromSlash(strings.TrimPrefix(path, mod.path)))
	bp, err := build.ImportDir(dir, 0)
	if err != nil {
		return nil
	}
	fset := token.NewFileSet()
	var files []*ast.File
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil
		}
		files = append(files, f)
	}
	return indexFiles(files)
}

// module finds the module enclosing dir by walking up to its go.mod.
func (d *declDirectives) module(dir string) module {
	if m, ok := d.modules[dir]; ok {
		return m
	}
	var m module
	for at := dir; at != ""; {
		if f, err := os.Open(filepath.Join(at, "go.mod")); err == nil {
			sc := bufio.NewScanner(f)
			for sc.Scan() {
				if rest, ok := strings.CutPrefix(strings.TrimSpace(sc.Text()), "module "); ok {
					m = module{path: strings.Trim(strings.TrimSpace(rest), `"`), dir: at}
					break
				}
			}
			f.Close()
			break
		}
		parent := filepath.Dir(at)
		if parent == at {
			break
		}
		at = parent
	}
	d.modules[dir] = m
	return m
}

// indexFiles collects the directives on the files' top-level declarations.
func indexFiles(files []*ast.File) map[string][]string {
	idx := map[string][]string{}
	add := func(key string, doc *ast.CommentGroup) {
		if doc == nil {
			return
		}
		for _, c := range doc.List {
			text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
			if strings.HasPrefix(text, "iqlint:") {
				idx[key] = append(idx[key], strings.Fields(text)[0])
			}
		}
	}
	for _, f := range files {
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				key := d.Name.Name
				if d.Recv != nil && len(d.Recv.List) == 1 {
					key = recvName(d.Recv.List[0].Type) + "." + key
				}
				add(key, d.Doc)
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					ts, ok := spec.(*ast.TypeSpec)
					if !ok {
						continue
					}
					doc := ts.Doc
					if doc == nil && len(d.Specs) == 1 {
						doc = d.Doc
					}
					add(ts.Name.Name, doc)
				}
			}
		}
	}
	return idx
}

// recvName is the base type name of a method receiver expression.
func recvName(e ast.Expr) string {
	for {
		switch t := e.(type) {
		case *ast.StarExpr:
			e = t.X
		case *ast.ParenExpr:
			e = t.X
		case *ast.IndexExpr:
			e = t.X
		case *ast.IndexListExpr:
			e = t.X
		case *ast.Ident:
			return t.Name
		default:
			return ""
		}
	}
}

// declKey names obj the way indexFiles keys its declaration.
func declKey(obj types.Object) string {
	if f, ok := obj.(*types.Func); ok {
		if recv := f.Type().(*types.Signature).Recv(); recv != nil {
			t := recv.Type()
			if p, ok := t.(*types.Pointer); ok {
				t = p.Elem()
			}
			if n, ok := t.(*types.Named); ok {
				return n.Obj().Name() + "." + f.Name()
			}
			return ""
		}
	}
	return obj.Name()
}
