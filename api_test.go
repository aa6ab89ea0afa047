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
