package lace

// api_test.go pins the repository's one-shape API rule: no package
// exports both X and a twin of it that differs only by a suffix naming
// an extra parameter (XRec, XBudget, XCtx, XErr, XWith, XAt). A stage
// that takes a recorder, a budget or a starting point takes it in its
// one entry point.

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// twinSuffixes are the suffixes that mark a second entry point of the
// same operation.
var twinSuffixes = []string{"Rec", "Budget", "Ctx", "Err", "With", "At"}

// exportedFuncs parses the non-test Go files under roots (files or
// directories; testdata directories are skipped) and returns, per
// package directory and receiver type, the set of exported function
// and method names. Top-level functions are keyed by the directory
// alone, methods by "directory.(Receiver)".
func exportedFuncs(t *testing.T, roots ...string) map[string]map[string]bool {
	t.Helper()
	out := make(map[string]map[string]bool)
	fset := token.NewFileSet()
	add := func(path string) {
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		dir := filepath.ToSlash(filepath.Dir(path))
		if dir == "." {
			dir = "lace"
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || !fd.Name.IsExported() {
				continue
			}
			key := dir
			if fd.Recv != nil && len(fd.Recv.List) == 1 {
				key += ".(" + recvName(fd.Recv.List[0].Type) + ")"
			}
			if out[key] == nil {
				out[key] = make(map[string]bool)
			}
			out[key][fd.Name.Name] = true
		}
	}
	for _, root := range roots {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() {
				if d.Name() == "testdata" {
					return filepath.SkipDir
				}
				return nil
			}
			if strings.HasSuffix(path, ".go") && !strings.HasSuffix(path, "_test.go") {
				add(path)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// recvName returns the type name of a method receiver, without the
// pointer or type parameters.
func recvName(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return "?"
		}
	}
}

// twinPairs lists every "X / XSuffix" pair declared in one scope.
func twinPairs(funcs map[string]map[string]bool) []string {
	var pairs []string
	for scope, names := range funcs {
		for name := range names {
			for _, suf := range twinSuffixes {
				base, ok := strings.CutSuffix(name, suf)
				if ok && base != "" && names[base] {
					pairs = append(pairs, scope+": "+base+" / "+name)
				}
			}
		}
	}
	sort.Strings(pairs)
	return pairs
}

// TestAPIOneShape fails when a package under internal/ or cmd/, or the
// facade, exports an operation twice under a suffixed name. The bench/
// module is separate and not scanned.
func TestAPIOneShape(t *testing.T) {
	pairs := twinPairs(exportedFuncs(t, "internal", "cmd", "lace.go"))
	for _, p := range pairs {
		t.Errorf("twin entry points: %s", p)
	}
}

// facadeResults maps each exported top-level function of the facade to
// the type names of its results, pointers written with a leading "*".
func facadeResults(t *testing.T) map[string][]string {
	t.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), "lace.go", nil, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string][]string)
	for _, decl := range f.Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if !ok || fd.Recv != nil || !fd.Name.IsExported() || fd.Type.Results == nil {
			continue
		}
		for _, r := range fd.Type.Results.List {
			name := recvName(r.Type)
			if _, ptr := r.Type.(*ast.StarExpr); ptr {
				name = "*" + name
			}
			for range max(1, len(r.Names)) {
				out[fd.Name.Name] = append(out[fd.Name.Name], name)
			}
		}
	}
	return out
}

// TestFacadeOneResolver fails unless the facade has exactly one
// constructor of a resolution handle: one exported function returns
// *EpochSnapshot, and none returns an engine (*Engine, *ShardedEngine)
// that answers the same questions.
func TestFacadeOneResolver(t *testing.T) {
	var snapshots []string
	for fn, results := range facadeResults(t) {
		for _, r := range results {
			switch r {
			case "*EpochSnapshot":
				snapshots = append(snapshots, fn)
			case "*Engine", "*ShardedEngine":
				t.Errorf("facade function %s returns %s; resolve through NewSnapshot", fn, r)
			}
		}
	}
	if len(snapshots) != 1 {
		t.Errorf("facade functions returning *EpochSnapshot: %v, want exactly one", snapshots)
	}
}

// shimNames are the names internal/core keeps only for the bench/
// module, which compiles against them: the package-level ones and the
// EpochSnapshot method Sharded.
var shimNames = map[string]bool{"NewSharded": true, "NewMutableSharded": true, "ShardOptions": true}

// shimUses lists the positions in the Go file at path that declare or
// reference a package-level shim name, or declare or call a method
// named Sharded.
func shimUses(t *testing.T, fset *token.FileSet, path string) []string {
	t.Helper()
	f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	var uses []string
	ast.Inspect(f, func(n ast.Node) bool {
		var at ast.Node
		switch x := n.(type) {
		case *ast.Ident:
			if shimNames[x.Name] {
				at = x
			}
		case *ast.FuncDecl:
			if x.Recv != nil && x.Name.Name == "Sharded" {
				at = x.Name
			}
		case *ast.CallExpr:
			if sel, ok := x.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Sharded" {
				at = sel.Sel
			}
		}
		if at != nil {
			uses = append(uses, fset.Position(at.Pos()).String())
		}
		return true
	})
	return uses
}

// TestCoreOneResolutionType fails unless internal/core has one
// resolution type besides the monolithic Engine: among its exported
// types only Engine and EpochSnapshot declare CertainMergesCtx, and no
// Go file of this module but internal/core/shims.go declares or uses
// the shims the bench/ module (a separate module, not scanned) still
// compiles against.
func TestCoreOneResolutionType(t *testing.T) {
	for scope, names := range exportedFuncs(t, "internal/core") {
		recv, ok := strings.CutPrefix(scope, "internal/core.(")
		recv = strings.TrimSuffix(recv, ")")
		if ok && names["CertainMergesCtx"] && token.IsExported(recv) && recv != "Engine" && recv != "EpochSnapshot" {
			t.Errorf("internal/core type %s declares CertainMergesCtx; resolve through EpochSnapshot", recv)
		}
	}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == "." {
				return nil
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil || d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") && filepath.ToSlash(path) != "internal/core/shims.go" {
			for _, at := range shimUses(t, fset, path) {
				t.Errorf("%s: uses a bench/-only shim of internal/core/shims.go", at)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestShimScanFindsUses keeps the shim scan honest: a synthetic file
// declaring and using each shim is reported at every use.
func TestShimScanFindsUses(t *testing.T) {
	path := filepath.Join(t.TempDir(), "p.go")
	src := `package p

type ShardOptions struct{}

func (s *T) Sharded() *T { return s }

func f(s *T) { _ = NewSharded; _ = NewMutableSharded; s.Sharded(); _ = s.Sharded }
`
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	if got := len(shimUses(t, token.NewFileSet(), path)); got != 5 {
		t.Fatalf("shim scan found %d uses, want 5 (the method value s.Sharded is not a call)", got)
	}
}

// TestTwinScanFindsPairs keeps the scan honest: a synthetic package
// with a Rec twin, a Budget twin, an At twin and a method twin is
// reported.
func TestTwinScanFindsPairs(t *testing.T) {
	funcs := map[string]map[string]bool{
		"p":        {"Ground": true, "GroundRec": true, "GroundBudget": true, "Rec": true, "NewMutable": true, "NewMutableAt": true},
		"p.(Plan)": {"Run": true, "RunWith": true},
		"q.(Plan)": {"RunWith": true},
	}
	got := strings.Join(twinPairs(funcs), "; ")
	want := "p.(Plan): Run / RunWith; p: Ground / GroundBudget; p: Ground / GroundRec; p: NewMutable / NewMutableAt"
	if got != want {
		t.Fatalf("twinPairs = %q, want %q", got, want)
	}
}
