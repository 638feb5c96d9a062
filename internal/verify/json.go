package verify

import "encoding/json"

// Report is the wire form of a verification set: everything a query
// interface needs to render the §4 questions to a user — the
// normalized query, and per question its family, expectation,
// diagnostic label and tuples in the paper's 0/1 notation.
type Report struct {
	Query     string           `json:"query"`
	Variables int              `json:"variables"`
	Questions []QuestionReport `json:"questions"`
}

// QuestionReport is one question of a Report.
type QuestionReport struct {
	Kind   string   `json:"kind"`
	Expect string   `json:"expect"` // "answer" or "non-answer"
	About  string   `json:"about"`
	Tuples []string `json:"tuples"`
}

// Report renders the verification set for serialization.
func (vs Set) Report() Report {
	u := vs.Query.U
	r := Report{Query: vs.Query.String(), Variables: u.N()}
	for _, q := range vs.Questions {
		expect := "non-answer"
		if q.Expect {
			expect = "answer"
		}
		qr := QuestionReport{Kind: string(q.Kind), Expect: expect, About: q.About}
		for _, t := range q.Set.Tuples() {
			qr.Tuples = append(qr.Tuples, u.Format(t))
		}
		r.Questions = append(r.Questions, qr)
	}
	return r
}

// EncodeJSON renders the verification set as indented JSON.
func (vs Set) EncodeJSON() ([]byte, error) {
	return json.MarshalIndent(vs.Report(), "", "  ")
}
