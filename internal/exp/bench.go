package exp

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"regexp"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"

	"qhorn/internal/stats"
)

// BenchTable is the JSON rendering of one stats.Table. Key is the
// short identifier ("t1", "t2", …) the per-measurement entries
// (question_counts, growth_exponents) reference; Title stays here in
// full — tools/benchgate matches rows by it.
type BenchTable struct {
	Key     string     `json:"key"`
	Title   string     `json:"title"`
	Columns []string   `json:"columns"`
	Rows    [][]string `json:"rows"`
	Notes   []string   `json:"notes,omitempty"`
}

// GrowthExponent is one measured growth exponent extracted from a
// table note, e.g. 1.18 from "growth exponent: learner 1.18 (…)".
// Table is the short table key; the summary's table_legend maps it to
// the full title.
type GrowthExponent struct {
	Table string  `json:"table"`
	Note  string  `json:"note"`
	Value float64 `json:"value"`
}

// QuestionCount is one aggregated question-count measurement: all
// rows of a table sharing the same sweep-parameter value (first
// column) collapse into one entry with the mean and standard deviation
// of their "questions" column. Tables whose rows vary a second
// dimension (e.g. a worker count beside the class) previously
// emitted one identical entry per row; aggregation keeps exactly one
// per (table, param, param_value).
type QuestionCount struct {
	// Table is the short table key ("t1", "t2", …); the summary's
	// table_legend maps it to the full title. Repeating the multi-line
	// titles here once bloated every BENCH file.
	Table    string `json:"table"`
	Param    string `json:"param"`       // first column header, e.g. "n"
	ParamVal string `json:"param_value"` // e.g. "32"
	// Questions is the mean over the aggregated rows.
	Questions float64 `json:"questions"`
	// Stddev is the population standard deviation over the aggregated
	// rows; 0 when every row agrees (the common case: the question
	// count is a determinism invariant across the second dimension).
	Stddev float64 `json:"stddev"`
	// Samples is the number of table rows aggregated into this entry.
	Samples int `json:"samples"`
}

// BenchSummary is the machine-readable result of one experiment run,
// written by `qhornexp -json` as BENCH_<experiment>.json.
type BenchSummary struct {
	Experiment  string  `json:"experiment"`
	ID          string  `json:"id"`
	Paper       string  `json:"paper"`
	Claim       string  `json:"claim"`
	Seed        int64   `json:"seed"`
	Trials      int     `json:"trials"`
	Quick       bool    `json:"quick"`
	WallSeconds float64 `json:"wall_seconds"`

	// The machine and build the timings come from, so BENCH files
	// written on different hosts are not compared as if alike.
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model"` // "" where /proc/cpuinfo has none
	Commit     string `json:"commit"`    // vcs.revision of the binary, or "unknown"

	// TableLegend maps the short table keys used by GrowthExponents
	// and QuestionCounts to the full table titles, stated once.
	TableLegend     map[string]string `json:"table_legend,omitempty"`
	GrowthExponents []GrowthExponent  `json:"growth_exponents,omitempty"`
	QuestionCounts  []QuestionCount   `json:"question_counts,omitempty"`
	Tables          []BenchTable      `json:"tables"`
}

// FileName returns the canonical output name, BENCH_<experiment>.json.
func (s *BenchSummary) FileName() string {
	return fmt.Sprintf("BENCH_%s.json", s.Experiment)
}

// WriteJSON writes the summary as indented JSON.
func (s *BenchSummary) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// Bench runs e under cfg, timing the run and extracting the
// machine-readable measurements from its tables.
func Bench(e Experiment, cfg Config) (*BenchSummary, []*stats.Table) {
	cfg = cfg.normalize()
	start := time.Now()
	tables := e.Run(cfg)
	return Summarize(e, cfg, tables, time.Since(start)), tables
}

// cpuModel returns the first "model name" of /proc/cpuinfo, or "" on
// systems without one.
func cpuModel() string {
	raw, _ := os.ReadFile("/proc/cpuinfo") // unreadable: no model to report
	_, rest, _ := strings.Cut(string(raw), "model name")
	line, _, _ := strings.Cut(rest, "\n")
	_, model, _ := strings.Cut(line, ":")
	return strings.TrimSpace(model)
}

// commit returns the VCS revision stamped into the running binary, or
// "unknown" (go test and builds outside a work tree stamp none).
func commit() string {
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, st := range info.Settings {
			if st.Key == "vcs.revision" {
				return st.Value
			}
		}
	}
	return "unknown"
}

// measuredExponent matches the %.2f-formatted exponents the
// experiments put in their notes; claim references like "≈ 1" or
// "n²" never carry two decimals, so they are not captured.
var measuredExponent = regexp.MustCompile(`-?\d+\.\d{2}`)

// Summarize builds a BenchSummary from an experiment's tables: growth
// exponents are taken from every note mentioning one, and question
// counts from the first column whose header names questions.
func Summarize(e Experiment, cfg Config, tables []*stats.Table, wall time.Duration) *BenchSummary {
	s := &BenchSummary{
		Experiment:  e.Name,
		ID:          e.ID,
		Paper:       e.Paper,
		Claim:       e.Claim,
		Seed:        cfg.Seed,
		Trials:      cfg.Trials,
		Quick:       cfg.Quick,
		WallSeconds: wall.Seconds(),
		GoVersion:   runtime.Version(),
		GOOS:        runtime.GOOS,
		GOARCH:      runtime.GOARCH,
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		CPUModel:    cpuModel(),
		Commit:      commit(),
	}
	for ti, t := range tables {
		key := fmt.Sprintf("t%d", ti+1)
		if s.TableLegend == nil {
			s.TableLegend = map[string]string{}
		}
		s.TableLegend[key] = t.Title
		s.Tables = append(s.Tables, BenchTable{
			Key:     key,
			Title:   t.Title,
			Columns: t.Columns,
			Rows:    t.Rows,
			Notes:   t.Notes,
		})
		for _, note := range t.Notes {
			if !strings.Contains(note, "growth exponent") {
				continue
			}
			for _, m := range measuredExponent.FindAllString(note, -1) {
				v, err := strconv.ParseFloat(m, 64)
				if err != nil {
					continue
				}
				s.GrowthExponents = append(s.GrowthExponents, GrowthExponent{
					Table: key,
					Note:  note,
					Value: v,
				})
			}
		}
		qCol := questionColumn(t.Columns)
		if qCol < 0 {
			continue
		}
		param := ""
		if len(t.Columns) > 0 {
			param = t.Columns[0]
		}
		// Aggregate per parameter value: rows differing only in a
		// second sweep dimension (workers, options, …) collapse into
		// one entry with mean and stddev.
		type agg struct {
			sum, sumSq float64
			n          int
		}
		byVal := map[string]*agg{}
		var order []string
		for _, row := range t.Rows {
			if qCol >= len(row) || len(row) == 0 {
				continue
			}
			v, err := strconv.ParseFloat(strings.TrimSpace(row[qCol]), 64)
			if err != nil {
				continue
			}
			a := byVal[row[0]]
			if a == nil {
				a = &agg{}
				byVal[row[0]] = a
				order = append(order, row[0])
			}
			a.sum += v
			a.sumSq += v * v
			a.n++
		}
		for _, val := range order {
			a := byVal[val]
			mean := a.sum / float64(a.n)
			variance := a.sumSq/float64(a.n) - mean*mean
			if variance < 0 {
				variance = 0 // float rounding
			}
			s.QuestionCounts = append(s.QuestionCounts, QuestionCount{
				Table:     key,
				Param:     param,
				ParamVal:  val,
				Questions: mean,
				Stddev:    math.Sqrt(variance),
				Samples:   a.n,
			})
		}
	}
	return s
}

// questionColumn returns the index of the first column reporting a
// question count ("questions", "questions (mean)", …) but not a
// derived ratio, or -1.
func questionColumn(cols []string) int {
	for i, c := range cols {
		lc := strings.ToLower(c)
		if strings.Contains(lc, "question") && !strings.Contains(lc, "/") {
			return i
		}
	}
	return -1
}
