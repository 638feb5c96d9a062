package session_test

import (
	"fmt"

	"qhorn/internal/boolean"
	"qhorn/internal/learn"
	"qhorn/internal/oracle"
	"qhorn/internal/query"
	"qhorn/internal/run"
	"qhorn/internal/session"
)

func Example() {
	u := boolean.MustUniverse(4)
	intended := query.MustParse(u, "∀x1 → x2 ∃x3x4")
	truth := oracle.Target(intended)

	// A user who misanswers the second question.
	asked := 0
	user := oracle.Func(func(q boolean.Set) bool {
		asked++
		a := truth.Ask(q)
		if asked == 2 {
			return !a
		}
		return a
	})

	s := session.New(user)
	first, _ := learn.Run(u, s, run.WithAlgorithm(run.RolePreserving))
	fmt.Println("with the mistake:", first.Equivalent(intended))

	// Review the history, flip the bad response, re-run: the
	// corrected answers replay without consulting the user again.
	for i, e := range s.Entries() {
		if truth.Ask(e.Question) != e.Answer {
			s.Amend(i)
		}
	}
	s.ResetRun()
	fixed, _ := learn.Run(u, s, run.WithAlgorithm(run.RolePreserving))
	fmt.Println("after amendment:", fixed.Equivalent(intended))
	// Output:
	// with the mistake: false
	// after amendment: true
}
