package qhorn

// The API-surface guard: a cross-cutting dimension of a run (steps,
// spans, metrics, batching, …) is one run.Option, never one exported
// function per learner and verifier variant (docs/ENGINE.md), and a
// wrapper that may mirror into a metrics registry takes the registry
// as a nil-able argument, never as an exported *Into twin. The guard
// fails on any exported *Observed / *Traced / *Parallel / *Into
// function in the facade, the learners, the verifier, the oracle
// wrappers or the run engine. CI runs this test explicitly
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
var guardedDirs = []string{".", "internal/learn", "internal/verify", "internal/oracle", "internal/run"}

var (
	// variantName matches a variant suffix on some base name; a bare
	// mechanism name with no base before the suffix is not a variant.
	variantName = regexp.MustCompile(`^.+(Observed|Traced|Parallel)`)
	// twinName matches a registry twin (CountInto beside Count).
	twinName = regexp.MustCompile(`.Into$`)
)

// variantExports parses a package directory and returns every exported
// function or method that is a registry twin, or matches the variant
// pattern and is not a With* option constructor. Test files are
// skipped.
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
				if !ok || !fn.Name.IsExported() {
					continue
				}
				// Option constructors (With…Parallel, …) are the
				// sanctioned mechanism the guard steers toward; a twin
				// is never sanctioned (WithBudgetInto beside WithBudget).
				name := fn.Name.Name
				if twinName.MatchString(name) || variantName.MatchString(name) && !strings.HasPrefix(name, "With") {
					out = append(out, name)
				}
			}
		}
	}
	sort.Strings(out)
	return out
}

// TestNoVariantExports fails when a variant export appears in any
// guarded package.
func TestNoVariantExports(t *testing.T) {
	for _, dir := range guardedDirs {
		for _, name := range variantExports(t, dir) {
			t.Errorf("%s: variant export %s — add a run.Option or a nil-able registry argument instead (docs/ENGINE.md)", dir, name)
		}
	}
}

// TestNoVariantExportsBites runs the same scan over a fixture package
// with a planted variant export and two planted registry twins beside an
// option constructor, a bare mechanism name, an unexported variant and
// a variant in a test file: only the three planted exports may be
// reported.
func TestNoVariantExportsBites(t *testing.T) {
	got := variantExports(t, "testdata/variantguard")
	if want := []string{"CountPlantedInto", "LearnPlantedObserved", "WithPlantedInto"}; !reflect.DeepEqual(got, want) {
		t.Errorf("scan of the planted fixture reported %v, want %v", got, want)
	}
}
