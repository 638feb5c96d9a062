package qhorn

// The API-surface guard: a cross-cutting dimension of a run (steps,
// spans, metrics, batching, …) is one run.Option, never one exported
// function per learner and verifier variant (docs/ENGINE.md). The guard
// fails on any exported *Observed / *Traced / *Parallel function in the
// facade, the learners or the verifier. CI runs this test explicitly
// (go test -run TestNoVariantExports .).

import (
	"go/ast"
	"go/parser"
	"go/token"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// guardedDirs are the package directories whose exports the guard
// scans.
var guardedDirs = []string{".", "internal/learn", "internal/verify"}

var variantName = regexp.MustCompile(`(Observed|Traced|Parallel)`)

// variantExports parses a package directory and returns every exported
// function or method whose name matches the variant pattern, excluding
// test files and With* option constructors.
func variantExports(t *testing.T, dir string) []string {
	t.Helper()
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, dir, nil, 0)
	if err != nil {
		t.Fatalf("parse %s: %v", dir, err)
	}
	var out []string
	for _, pkg := range pkgs {
		for name, file := range pkg.Files {
			if strings.HasSuffix(name, "_test.go") {
				continue
			}
			for _, decl := range file.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if !ok || !fn.Name.IsExported() || !variantName.MatchString(fn.Name.Name) {
					continue
				}
				// Option constructors (WithParallel, …) are the
				// sanctioned mechanism the guard steers toward.
				if strings.HasPrefix(fn.Name.Name, "With") {
					continue
				}
				out = append(out, fn.Name.Name)
			}
		}
	}
	sort.Strings(out)
	return out
}

// TestNoVariantExports fails when a variant export appears in the
// facade, the learners, or the verifier.
func TestNoVariantExports(t *testing.T) {
	for _, dir := range guardedDirs {
		for _, name := range variantExports(t, dir) {
			t.Errorf("%s: variant export %s — add a run.Option instead (docs/ENGINE.md)", dir, name)
		}
	}
}

// TestNoVariantExportsBites runs the same scan over a fixture package
// with one planted variant export, an option constructor, an
// unexported variant and a variant in a test file: only the planted
// export may be reported.
func TestNoVariantExportsBites(t *testing.T) {
	got := variantExports(t, "testdata/variantguard")
	if want := []string{"LearnPlantedObserved"}; !reflect.DeepEqual(got, want) {
		t.Errorf("scan of the planted fixture reported %v, want %v", got, want)
	}
}
