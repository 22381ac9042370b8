// Package nodeprecated forbids references to deprecated entry points
// from inside the module. A "Deprecated:" doc marker is a promise to
// external callers that the old surface keeps working; it is not a
// license for the module's own code to keep using it. Internal callers
// are exactly the ones we can migrate immediately: deprecated surface
// exists only for published callers.
//
// The analyzer resolves every identifier a package uses. If the
// referenced object — function, method, type, variable, or constant —
// is declared in this module with a doc comment paragraph starting
// "Deprecated:", the use is reported. Cross-package declarations are
// handled by re-parsing the declaring file (export data carries
// positions but not doc comments). Uses from inside a declaration that
// is itself deprecated are exempt, so a deprecated facade may delegate
// to another without churn. A use that must stay (for example a test
// helper pinning the deprecated surface itself, in a non-test file)
// carries //cobra:nodeprecated <reason>.
package nodeprecated

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"strings"

	"github.com/cobra-prov/cobra/internal/lint/analysis"
)

// Analyzer is the deprecated-reference checker.
var Analyzer = &analysis.Analyzer{
	Name:      "nodeprecated",
	Directive: "nodeprecated",
	Doc: "reference to a deprecated module entry point\n\n" +
		"No non-test code in the module may call or mention a declaration\n" +
		"whose doc comment carries a Deprecated: marker. Migrate to the\n" +
		"replacement the marker names, or justify the reference with\n" +
		"//cobra:nodeprecated <reason>.",
	Run: run,
}

func run(pass *analysis.Pass) error {
	c := &checker{
		pass:   pass,
		files:  make(map[string]*ast.File),
		status: make(map[types.Object]string),
	}
	for _, f := range pass.Files {
		if analysis.IsTestFile(pass.Fset, f.Pos()) {
			continue
		}
		for _, decl := range f.Decls {
			// A deprecated declaration may reference other deprecated
			// declarations: migrating it is pointless by definition.
			if doc := declDoc(decl); deprecationNote(doc) != "" {
				continue
			}
			c.checkDecl(decl)
		}
	}
	return nil
}

type checker struct {
	pass *analysis.Pass

	// files caches re-parsed declaring files of other packages, keyed
	// by filename; status caches the deprecation note per object ("" =
	// not deprecated).
	files  map[string]*ast.File
	status map[types.Object]string
}

func (c *checker) checkDecl(decl ast.Decl) {
	ast.Inspect(decl, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj := c.pass.TypesInfo.Uses[id]
		if obj == nil {
			return true
		}
		note := c.deprecated(obj)
		if note == "" {
			return true
		}
		if c.pass.Suppressed(id.Pos()) {
			return true
		}
		c.pass.Reportf(id.Pos(), "use of deprecated %s: %s", obj.Name(), note)
		return true
	})
}

// deprecated returns the deprecation note of obj's declaration, or ""
// if the object is not deprecated or not declared in this module.
func (c *checker) deprecated(obj types.Object) string {
	switch o := obj.(type) {
	case *types.Func, *types.TypeName, *types.Const:
	case *types.Var:
		if o.IsField() {
			// Field names are matched against top-level declarations by
			// name; a field shadowing a deprecated package-level name
			// would false-positive. Deprecation markers on fields are
			// out of scope.
			return ""
		}
	default:
		return ""
	}
	pkg := obj.Pkg()
	if pkg == nil {
		return ""
	}
	if pkg != c.pass.Pkg && !strings.HasPrefix(pkg.Path(), analysis.ModulePath) {
		// Only module-declared surface is in scope: the module cannot
		// migrate the standard library's deprecations on its own
		// schedule, and flagging them here would just accumulate
		// directives.
		return ""
	}
	if obj.Parent() != nil && obj.Parent() != pkg.Scope() {
		// Locals and function parameters cannot carry doc markers; only
		// package-scope declarations and methods/fields matter. Methods
		// have nil Parent, so they fall through.
		return ""
	}
	if note, ok := c.status[obj]; ok {
		return note
	}
	note := c.lookup(obj)
	c.status[obj] = note
	return note
}

// lookup finds obj's declaring file and reads the doc comment of the
// top-level declaration that defines it.
func (c *checker) lookup(obj types.Object) string {
	pos := c.pass.Fset.Position(obj.Pos())
	if pos.Filename == "" {
		return ""
	}
	f, ok := c.files[pos.Filename]
	if !ok {
		parsed, err := parser.ParseFile(token.NewFileSet(), pos.Filename, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			parsed = nil // unreadable export-data position: not checkable
		}
		f = parsed
		c.files[pos.Filename] = f
	}
	if f == nil {
		return ""
	}
	for _, decl := range f.Decls {
		if note := matchDecl(decl, obj); note != "" {
			return note
		}
	}
	return ""
}

// matchDecl returns the deprecation note if decl declares obj.
func matchDecl(decl ast.Decl, obj types.Object) string {
	switch d := decl.(type) {
	case *ast.FuncDecl:
		if d.Name.Name != obj.Name() {
			return ""
		}
		fn, ok := obj.(*types.Func)
		if !ok || !receiverMatches(d, fn) {
			return ""
		}
		return deprecationNote(d.Doc)
	case *ast.GenDecl:
		for _, spec := range d.Specs {
			switch s := spec.(type) {
			case *ast.TypeSpec:
				if s.Name.Name == obj.Name() {
					if note := deprecationNote(s.Doc); note != "" {
						return note
					}
					return deprecationNote(d.Doc)
				}
			case *ast.ValueSpec:
				for _, name := range s.Names {
					if name.Name == obj.Name() {
						if note := deprecationNote(s.Doc); note != "" {
							return note
						}
						return deprecationNote(d.Doc)
					}
				}
			}
		}
	}
	return ""
}

// receiverMatches reports whether d's receiver shape agrees with fn's:
// both plain functions, or methods on the same-named type.
func receiverMatches(d *ast.FuncDecl, fn *types.Func) bool {
	sig := fn.Type().(*types.Signature)
	if d.Recv == nil {
		return sig.Recv() == nil
	}
	if sig.Recv() == nil || len(d.Recv.List) != 1 {
		return false
	}
	return recvTypeName(d.Recv.List[0].Type) == namedRecv(sig.Recv().Type())
}

func recvTypeName(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.StarExpr:
		return recvTypeName(e.X)
	case *ast.IndexExpr:
		return recvTypeName(e.X)
	case *ast.IndexListExpr:
		return recvTypeName(e.X)
	}
	return ""
}

func namedRecv(t types.Type) string {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name()
	}
	return ""
}

func declDoc(decl ast.Decl) *ast.CommentGroup {
	switch d := decl.(type) {
	case *ast.FuncDecl:
		return d.Doc
	case *ast.GenDecl:
		return d.Doc
	}
	return nil
}

// deprecationNote extracts the text of a "Deprecated:" paragraph from a
// doc comment, first line only, or "" if the comment has none.
func deprecationNote(doc *ast.CommentGroup) string {
	if doc == nil {
		return ""
	}
	for _, line := range strings.Split(doc.Text(), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "Deprecated:"); ok {
			return strings.TrimSpace(rest)
		}
	}
	return ""
}
