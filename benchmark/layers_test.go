package main

import (
	"math"
	"testing"

	"knowphish/internal/webpage"
)

// The traced run times search.Engine.Query on queries it rebuilds from
// Identify's result. A candidate's score is the sum of the relevance of
// every hit that named it, so the rebuilt queries must add up to exactly
// the scores Identify ranked; if Identify comes to query differently,
// search.query_us would measure queries the program no longer issues,
// and this fails.
func TestRebuiltQueriesAreIdentifys(t *testing.T) {
	s, err := smokeSUT()
	if err != nil {
		t.Fatal(err)
	}
	in, err := generate(s, workloads[0], roundRNG(1, workloads[0], 1), 48)
	if err != nil {
		t.Fatal(err)
	}
	ident := s.pipe.Identifier
	ranked := 0
	for _, p := range in.pages {
		snap, err := snapshot(p.body)
		if err != nil {
			t.Fatal(err)
		}
		a := webpage.Analyze(snap)
		res := ident.Identify(a)
		queries := identifyQueries(res, a)
		if want := min(res.StepsUsed, 2); len(queries) < want {
			t.Fatalf("%s: %d queries rebuilt for a verdict of step %d", p.start, len(queries), res.StepsUsed)
		}
		score := map[string]float64{}
		for _, q := range queries {
			for _, hit := range ident.Engine.Query(q, ident.Results) {
				score[hit.RDN] += hit.Score
			}
		}
		for _, c := range res.Candidates {
			ranked++
			if math.Abs(score[c.RDN]-c.Score) > 1e-9*c.Score {
				t.Errorf("%s: candidate %s scored %v by Identify, %v by the rebuilt queries %q", p.start, c.RDN, c.Score, score[c.RDN], queries)
			}
		}
	}
	if ranked == 0 {
		t.Fatal("no page reached candidate ranking: the test compared nothing")
	}
}
