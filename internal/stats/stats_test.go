package stats

import (
	"math"
	"strings"
	"testing"
)

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4})
	if s.Count != 4 || s.Mean != 2.5 || s.Min != 1 || s.Max != 4 {
		t.Errorf("Summary = %+v", s)
	}
	want := math.Sqrt((2.25 + 0.25 + 0.25 + 2.25) / 3)
	if math.Abs(s.StdDev-want) > 1e-12 {
		t.Errorf("StdDev = %v, want %v", s.StdDev, want)
	}
	if got := Summarize(nil); got.Count != 0 {
		t.Errorf("empty Summarize = %+v", got)
	}
	one := Summarize([]float64{5})
	if one.StdDev != 0 || one.Mean != 5 {
		t.Errorf("single-sample Summary = %+v", one)
	}
}

func TestSummarizeInts(t *testing.T) {
	s := SummarizeInts([]int{2, 4})
	if s.Mean != 3 || s.Min != 2 || s.Max != 4 {
		t.Errorf("SummarizeInts = %+v", s)
	}
}

func TestGrowthExponent(t *testing.T) {
	// y = 3 x^2 exactly.
	xs := []float64{2, 4, 8, 16, 32}
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = 3 * x * x
	}
	if e := GrowthExponent(xs, ys); math.Abs(e-2) > 1e-9 {
		t.Errorf("exponent = %v, want 2", e)
	}
	// y = 7 x exactly.
	for i, x := range xs {
		ys[i] = 7 * x
	}
	if e := GrowthExponent(xs, ys); math.Abs(e-1) > 1e-9 {
		t.Errorf("exponent = %v, want 1", e)
	}
	// n lg n sits between 1 and 1.6 on this range.
	for i, x := range xs {
		ys[i] = x * math.Log2(x)
	}
	if e := GrowthExponent(xs, ys); e < 1.0 || e > 1.7 {
		t.Errorf("n lg n exponent = %v", e)
	}
	if !math.IsNaN(GrowthExponent([]float64{1}, []float64{1})) {
		t.Error("single point should yield NaN")
	}
	if !math.IsNaN(GrowthExponent([]float64{0, -1}, []float64{1, 2})) {
		t.Error("non-positive points should be skipped")
	}
}

func TestTableText(t *testing.T) {
	tb := NewTable("Demo", "n", "questions")
	tb.AddRow(8, 24)
	tb.AddRow(16, 64.5)
	tb.AddNote("exponent %.2f", 1.42)
	out := tb.Text()
	for _, want := range []string{"## Demo", "n", "questions", "8", "64.50", "note: exponent 1.42"} {
		if !strings.Contains(out, want) {
			t.Errorf("Text missing %q:\n%s", want, out)
		}
	}
}

func TestTableMarkdown(t *testing.T) {
	tb := NewTable("Demo", "a", "b")
	tb.AddRow("x", 1)
	out := tb.Markdown()
	for _, want := range []string{"### Demo", "| a | b |", "| --- | --- |", "| x | 1 |"} {
		if !strings.Contains(out, want) {
			t.Errorf("Markdown missing %q:\n%s", want, out)
		}
	}
}

func TestTableCSV(t *testing.T) {
	tb := NewTable("", "a", "b")
	tb.AddRow(`has,comma`, `has"quote`)
	out := tb.CSV()
	if !strings.Contains(out, `"has,comma","has""quote"`) {
		t.Errorf("CSV quoting wrong:\n%s", out)
	}
	if !strings.HasPrefix(out, "a,b\n") {
		t.Errorf("CSV header wrong:\n%s", out)
	}
}

func TestFormatFloat(t *testing.T) {
	tests := []struct {
		in   float64
		want string
	}{
		{3, "3"},
		{3.14159, "3.14"},
		{math.NaN(), "-"},
		{-2, "-2"},
	}
	for _, tc := range tests {
		if got := FormatFloat(tc.in); got != tc.want {
			t.Errorf("FormatFloat(%v) = %q, want %q", tc.in, got, tc.want)
		}
	}
}
