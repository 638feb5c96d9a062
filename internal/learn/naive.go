package learn

// The serial search strategy the paper uses as the baseline in §3.1.2
// (run.WithNaiveSearch): instead of binary-searching for body
// variables and dependents, each candidate variable gets its own
// membership question, O(n²) questions in total, so the experiments
// can reproduce the paper's comparison with the O(n lg n) strategy.

// serialFindOne scans candidates one at a time, asking one question
// per variable.
func serialFindOne(vars []int, eliminate func([]int) bool) (int, bool) {
	for _, v := range vars {
		if !eliminate([]int{v}) {
			return v, true
		}
	}
	return 0, false
}

// serialFindAll tests every candidate individually.
func serialFindAll(vars []int, eliminate func([]int) bool) []int {
	var out []int
	for _, v := range vars {
		if !eliminate([]int{v}) {
			out = append(out, v)
		}
	}
	return out
}
