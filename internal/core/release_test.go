package core

import (
	"context"
	"encoding/json"
	"reflect"
	"testing"

	"knowphish/internal/target"
	"knowphish/internal/webgen"
	"knowphish/internal/webpage"
)

// otherPages returns at least 50 pages other than the first phishing
// test page: six of every language test set and twenty phishing pages,
// enough detector positives among them to run target identification.
func otherPages(t *testing.T) []*webpage.Snapshot {
	t.Helper()
	c := corpus(t)
	var out []*webpage.Snapshot
	for _, lang := range webgen.Languages {
		snaps := c.LangTests[lang].Snapshots()
		out = append(out, snaps[:min(6, len(snaps))]...)
	}
	phish := c.PhishTest.Snapshots()
	out = append(out, phish[1:min(21, len(phish))]...)
	if len(out) < 50 {
		t.Fatalf("only %d other pages", len(out))
	}
	return out
}

// scoreAll scores every page cold through the pipeline and reports how
// many ran target identification.
func scoreAll(t *testing.T, pipe *Pipeline, snaps []*webpage.Snapshot) (identified int) {
	t.Helper()
	for _, s := range snaps {
		v, err := pipe.AnalyzeCtx(context.Background(), NewScoreRequest(s))
		if err != nil {
			t.Fatal(err)
		}
		if v.TargetRun {
			identified++
		}
	}
	return identified
}

// untimed is v without its timings, the part of a verdict that does not
// change from run to run.
func untimed(v Verdict) Verdict {
	v.Timings = StageTimings{}
	return v
}

// TestReleasedAnalysisLeavesVerdictIntact: a cold score releases the
// analysis it computed, and the pages scored after it refill that
// analysis. The verdict kept from the first page must still equal, field
// for field and byte for byte in JSON, one built from an analysis that
// was never released.
func TestReleasedAnalysisLeavesVerdictIntact(t *testing.T) {
	c := corpus(t)
	d := trainDetector(t, c, 0)
	pipe := &Pipeline{Detector: d, Identifier: target.New(c.Engine)}
	ctx := context.Background()
	page := c.PhishTest.Snapshots()[0]

	scored, err := d.ScoreCtx(ctx, NewScoreRequest(page))
	if err != nil {
		t.Fatal(err)
	}
	analyzed, err := pipe.AnalyzeCtx(ctx, NewScoreRequest(page))
	if err != nil {
		t.Fatal(err)
	}
	if !analyzed.TargetRun || len(analyzed.Target.Keyterms.Prominent) == 0 {
		t.Fatalf("the first phishing page did not run target identification: %+v", analyzed.Outcome)
	}
	kept := []Verdict{untimed(scored), untimed(analyzed)}
	var keptJSON [][]byte
	for _, v := range kept {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		keptJSON = append(keptJSON, b)
	}

	if n := scoreAll(t, pipe, otherPages(t)); n == 0 {
		t.Fatal("no other page ran target identification")
	}

	refScored, err := d.ScoreCtx(ctx, NewScoreRequest(page, WithAnalysis(webpage.Analyze(page))))
	if err != nil {
		t.Fatal(err)
	}
	refAnalyzed, err := pipe.AnalyzeCtx(ctx, NewScoreRequest(page, WithAnalysis(webpage.Analyze(page))))
	if err != nil {
		t.Fatal(err)
	}
	for i, ref := range []Verdict{untimed(refScored), untimed(refAnalyzed)} {
		if !reflect.DeepEqual(kept[i], ref) {
			t.Fatalf("verdict %d changed after other pages were scored:\n got %+v\nwant %+v", i, kept[i], ref)
		}
		now, err := json.Marshal(kept[i])
		if err != nil {
			t.Fatal(err)
		}
		want, err := json.Marshal(ref)
		if err != nil {
			t.Fatal(err)
		}
		if string(now) != string(want) || string(keptJSON[i]) != string(want) {
			t.Fatalf("verdict %d JSON differs:\n kept %s\n  now %s\n want %s", i, keptJSON[i], now, want)
		}
	}
}

// TestWithAnalysisIsNotReleased: an analysis the caller supplies stays
// the caller's. Scoring with it, on every entry point, and then scoring
// other pages cold leaves it equal to a fresh analysis of its page.
func TestWithAnalysisIsNotReleased(t *testing.T) {
	c := corpus(t)
	d := trainDetector(t, c, 0)
	pipe := &Pipeline{Detector: d, Identifier: target.New(c.Engine)}
	ctx := context.Background()
	page := c.PhishTest.Snapshots()[0]
	a := webpage.Analyze(page)

	req := NewScoreRequest(page, WithAnalysis(a))
	if _, err := d.ScoreCtx(ctx, req); err != nil {
		t.Fatal(err)
	}
	v, err := pipe.AnalyzeCtx(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if !v.TargetRun {
		t.Fatal("the first phishing page did not run target identification")
	}
	var st StageResults
	if _, err := pipe.AnalyzeStagedCtx(ctx, req, &st); err != nil {
		t.Fatal(err)
	}
	scoreAll(t, pipe, otherPages(t))

	want := webpage.Analyze(page)
	for _, f := range []struct {
		name      string
		got, want any
	}{
		{"Snap", a.Snap, want.Snap}, {"Start", a.Start, want.Start}, {"Land", a.Land, want.Land},
		{"Chain", a.Chain, want.Chain}, {"ControlledRDNs", a.ControlledRDNs, want.ControlledRDNs},
		{"IntLog", a.IntLog, want.IntLog}, {"ExtLog", a.ExtLog, want.ExtLog},
		{"IntLink", a.IntLink, want.IntLink}, {"ExtLink", a.ExtLink, want.ExtLink},
	} {
		if !reflect.DeepEqual(f.got, f.want) {
			t.Fatalf("supplied analysis changed: %s = %#v, want %#v", f.name, f.got, f.want)
		}
	}
	for id := webpage.DistText; id <= webpage.DistImage; id++ {
		g, w := a.Dist(id), want.Dist(id)
		if !reflect.DeepEqual(g.Terms(), w.Terms()) || !reflect.DeepEqual(g.Probs(), w.Probs()) || g.TotalOccurrences() != w.TotalOccurrences() {
			t.Fatalf("supplied analysis changed: %v = %q, want %q", id, g.Terms(), w.Terms())
		}
	}
}
