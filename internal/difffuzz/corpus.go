package difffuzz

import (
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"qhorn/internal/boolean"
	"qhorn/internal/query"
)

// FormatRepro renders a disagreement as a replayable corpus file. The
// format is line-oriented "key: value" with '#' comments; queries use
// the paper's shorthand, so repros are readable and hand-editable:
//
//	# qhorn differential-fuzz repro
//	class: rp
//	n: 5
//	hidden: ∀x1x4 → x5 ∃x2x3
//	kind: learn-equiv
//	detail: ...
func FormatRepro(d Disagreement) string {
	var b strings.Builder
	b.WriteString("# qhorn differential-fuzz repro — replayed by TestCorpusReplay,\n")
	b.WriteString("# reproduced with: go run ./cmd/qhornfuzz -corpus <dir containing this file>\n")
	fmt.Fprintf(&b, "class: %s\n", d.Case.Class)
	fmt.Fprintf(&b, "n: %d\n", d.Case.Hidden.N())
	fmt.Fprintf(&b, "hidden: %s\n", d.Case.Hidden)
	if d.Case.Class == ClassVerify {
		fmt.Fprintf(&b, "given: %s\n", d.Case.Given)
	}
	if d.Kind != "" {
		fmt.Fprintf(&b, "kind: %s\n", d.Kind)
	}
	if d.Detail != "" {
		fmt.Fprintf(&b, "detail: %s\n", strings.ReplaceAll(d.Detail, "\n", " "))
	}
	if d.HasWitness {
		fmt.Fprintf(&b, "witness: %s\n", d.Witness.Format(d.Case.Hidden.U))
	}
	return b.String()
}

// WriteRepro persists the disagreement under dir as
// <kind>-<content hash>.repro and returns the path. The content hash
// keeps re-runs idempotent: the same repro maps to the same file.
func WriteRepro(dir string, d Disagreement) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	content := FormatRepro(d)
	h := fnv.New64a()
	fmt.Fprintf(h, "%s|%s|%s", d.Case.Class, d.Case.Hidden, d.Case.Given)
	kind := string(d.Kind)
	if kind == "" {
		kind = "case"
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-%016x.repro", kind, h.Sum64()))
	return path, os.WriteFile(path, []byte(content), 0o644)
}

// ParseRepro reads a corpus file back into a Case. Unknown keys are
// ignored so repro files can carry extra diagnostics.
func ParseRepro(data []byte) (Case, error) {
	fields := map[string]string{}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		key, value, ok := strings.Cut(line, ":")
		if !ok {
			return Case{}, fmt.Errorf("difffuzz: repro line %q is not key: value", line)
		}
		fields[strings.TrimSpace(key)] = strings.TrimSpace(value)
	}
	class := Class(fields["class"])
	switch class {
	case ClassQhorn1, ClassRP, ClassVerify:
	default:
		return Case{}, fmt.Errorf("difffuzz: repro has unknown class %q", fields["class"])
	}
	n, err := strconv.Atoi(fields["n"])
	if err != nil || n < 1 || n > boolean.MaxVars {
		return Case{}, fmt.Errorf("difffuzz: repro has bad universe size %q", fields["n"])
	}
	u := boolean.MustUniverse(n)
	hidden, err := query.Parse(u, fields["hidden"])
	if err != nil {
		return Case{}, fmt.Errorf("difffuzz: repro hidden query: %v", err)
	}
	c := Case{Class: class, Hidden: hidden}
	if class == ClassVerify {
		given, err := query.Parse(u, fields["given"])
		if err != nil {
			return Case{}, fmt.Errorf("difffuzz: repro given query: %v", err)
		}
		c.Given = given
	}
	return c, nil
}

// LoadCorpus parses every *.repro file under dir, sorted by name for
// deterministic replay order. A missing directory is an empty corpus.
func LoadCorpus(dir string) ([]Case, error) {
	entries, err := os.ReadDir(dir)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".repro") {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	var cases []Case
	for _, name := range names {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			return nil, err
		}
		c, err := ParseRepro(data)
		if err != nil {
			return nil, fmt.Errorf("%s: %v", name, err)
		}
		cases = append(cases, c)
	}
	return cases, nil
}
