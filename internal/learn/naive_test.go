package learn

import (
	"math/rand"
	"testing"

	"qhorn/internal/oracle"
	"qhorn/internal/query"
	"qhorn/internal/run"
)

func TestQhorn1NaiveRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	for i := 0; i < 100; i++ {
		n := 1 + rng.Intn(12)
		target := query.GenQhorn1(rng, n)
		learned, _ := Run(target.U, oracle.Target(target), run.WithNaiveSearch())
		if !learned.Equivalent(target) {
			t.Fatalf("target %s learned as %s", target, learned)
		}
	}
}

// TestNaiveAsksMoreQuestions: on queries with few, large bodies the
// binary-search learner beats the serial baseline (the point of
// §3.1.2's "we can do better").
func TestNaiveAsksMoreQuestions(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	n := 32
	var fastTotal, naiveTotal int
	for i := 0; i < 20; i++ {
		target := query.GenQhorn1(rng, n)
		_, fast := Run(target.U, oracle.Target(target))
		_, naive := Run(target.U, oracle.Target(target), run.WithNaiveSearch())
		fastTotal += fast.Total()
		naiveTotal += naive.Total()
	}
	if naiveTotal <= fastTotal {
		t.Errorf("naive asked %d, binary asked %d: expected naive to ask more", naiveTotal, fastTotal)
	}
}

func TestSerialSearchHelpers(t *testing.T) {
	targets := map[int]bool{2: true, 4: true}
	eliminate := func(d []int) bool {
		for _, v := range d {
			if targets[v] {
				return false
			}
		}
		return true
	}
	if v, ok := serialFindOne([]int{0, 1, 2, 3, 4}, eliminate); !ok || v != 2 {
		t.Errorf("serialFindOne = %d, %v", v, ok)
	}
	if _, ok := serialFindOne([]int{0, 1}, eliminate); ok {
		t.Error("serialFindOne found absent target")
	}
	got := serialFindAll([]int{0, 1, 2, 3, 4}, eliminate)
	if len(got) != 2 || got[0] != 2 || got[1] != 4 {
		t.Errorf("serialFindAll = %v", got)
	}
}
