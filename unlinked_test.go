package qhorn

// The unlinked-code check: every non-test function under the root and
// internal/ must be linked into some binary, or be listed with a reason
// in testdata/unlinked.allow. It builds every main package (cmd/,
// examples/ and the bench/ module) with inlining off, so no function
// is lost to inlining, takes the union of their `go tool nm` text
// symbols and lists each function declaration that is not in it. The
// builds take about ten seconds warm, so the check runs only when
// QHORN_UNLINKED is set (CI runs it explicitly). -count=1 matters: the
// test cache does not see the sources the builds read.
//
//	QHORN_UNLINKED=1 go test -run TestNoUnlinkedCode -count=1 .

import (
	"bufio"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// unlinkedAllow holds one `symbol  reason` line per function that no
// binary links but that stays.
const unlinkedAllow = "testdata/unlinked.allow"

// TestNoUnlinkedCode fails on an unlinked function missing from the
// allowlist, on an allowlist line without a reason, and on a stale
// allowlist line whose function is now linked or gone.
func TestNoUnlinkedCode(t *testing.T) {
	if os.Getenv("QHORN_UNLINKED") == "" {
		t.Skip("set QHORN_UNLINKED=1 to build every binary and check for unlinked functions")
	}
	linked := linkedSymbols(t)
	unlinked := map[string]bool{}
	for _, sym := range declaredFuncs(t) {
		if !linked[sym] {
			unlinked[sym] = true
		}
	}

	f, err := os.Open(unlinkedAllow)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	allowed := map[string]bool{}
	sc := bufio.NewScanner(f)
	for line := 1; sc.Scan(); line++ {
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		sym, reason, _ := strings.Cut(text, " ")
		switch {
		case strings.TrimSpace(reason) == "":
			t.Errorf("%s:%d: %s has no reason", unlinkedAllow, line, sym)
		case allowed[sym]:
			t.Errorf("%s:%d: %s is listed twice", unlinkedAllow, line, sym)
		case !unlinked[sym]:
			t.Errorf("%s:%d: stale entry: %s is linked or no longer declared", unlinkedAllow, line, sym)
		}
		allowed[sym] = true
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}

	var missing []string
	for sym := range unlinked {
		if !allowed[sym] {
			missing = append(missing, sym)
		}
	}
	sort.Strings(missing)
	for _, sym := range missing {
		t.Errorf("%s is linked into no binary: delete it, move it into a _test.go file, or list it in %s with a reason", sym, unlinkedAllow)
	}
}

// linkedSymbols builds every main package of the root and bench/
// modules with inlining off and returns the union of their text
// symbols, with type arguments stripped.
func linkedSymbols(t *testing.T) map[string]bool {
	t.Helper()
	bin := t.TempDir()
	build := func(dir, out string, pkgs ...string) {
		args := append([]string{"build", "-gcflags=all=-l", "-o", out}, pkgs...)
		cmd := exec.Command("go", args...)
		cmd.Dir = dir
		if msg, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("go %s: %v\n%s", strings.Join(args, " "), err, msg)
		}
	}
	build(".", bin+string(filepath.Separator), "./cmd/...", "./examples/...")
	build("bench", filepath.Join(bin, "bench"))

	entries, err := os.ReadDir(bin)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) < 2 {
		t.Fatalf("built %d binaries", len(entries))
	}
	linked := map[string]bool{}
	for _, e := range entries {
		out, err := exec.Command("go", "tool", "nm", filepath.Join(bin, e.Name())).Output()
		if err != nil {
			t.Fatalf("go tool nm %s: %v", e.Name(), err)
		}
		for _, line := range strings.Split(string(out), "\n") {
			// "  4a3b20 T qhorn/internal/query.(*Query).Classify"
			fields := strings.SplitN(strings.TrimSpace(line), " ", 3)
			if len(fields) == 3 && (fields[1] == "T" || fields[1] == "t") {
				linked[stripTypeArgs(fields[2])] = true
			}
		}
	}
	return linked
}

// stripTypeArgs drops every bracketed type-argument list from a symbol,
// so pkg.F[go.shape.int] and pkg.(*T[go.shape.int]).M match their
// declarations.
func stripTypeArgs(sym string) string {
	var b strings.Builder
	depth := 0
	for _, r := range sym {
		switch {
		case r == '[':
			depth++
		case r == ']':
			depth--
		case depth == 0:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// declaredFuncs returns the linker symbol of every function and method
// declared in a non-test file of the root package and of internal/.
func declaredFuncs(t *testing.T) []string {
	t.Helper()
	var syms []string
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && path != "internal" && !strings.HasPrefix(path, "internal"+string(filepath.Separator)) || d.Name() == "testdata" {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		file, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkg := "qhorn"
		if dir := filepath.ToSlash(filepath.Dir(path)); dir != "." {
			pkg += "/" + dir
		}
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Name.Name == "init" || fn.Name.Name == "_" {
				continue
			}
			sym := pkg + "."
			if fn.Recv != nil {
				sym += receiver(fn.Recv.List[0].Type) + "."
			}
			syms = append(syms, sym+fn.Name.Name)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return syms
}

// receiver renders a method's receiver type the way the linker names
// it: T or (*T), without type parameters.
func receiver(expr ast.Expr) string {
	star, ptr := expr.(*ast.StarExpr)
	if ptr {
		expr = star.X
	}
	switch x := expr.(type) {
	case *ast.IndexExpr:
		expr = x.X
	case *ast.IndexListExpr:
		expr = x.X
	}
	name := expr.(*ast.Ident).Name
	if ptr {
		return "(*" + name + ")"
	}
	return name
}
