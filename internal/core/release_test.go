package core

import (
	"context"
	"encoding/json"
	"fmt"
	"reflect"
	"slices"
	"strings"
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
// for field and byte for byte in JSON, one scored afresh from the same
// page after them.
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

	refScored, err := d.ScoreCtx(ctx, NewScoreRequest(page))
	if err != nil {
		t.Fatal(err)
	}
	refAnalyzed, err := pipe.AnalyzeCtx(ctx, NewScoreRequest(page))
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

// ownedCopy is a deep copy of v's target result: every list and string
// in storage of its own.
func ownedCopy(r target.Result) target.Result {
	clone := func(ss []string) []string {
		if ss == nil {
			return nil
		}
		out := make([]string, len(ss))
		for i, s := range ss {
			out[i] = strings.Clone(s)
		}
		return out
	}
	r.Keyterms = target.Keyterms{Boosted: clone(r.Keyterms.Boosted), Prominent: clone(r.Keyterms.Prominent)}
	r.OCRProminent = clone(r.OCRProminent)
	r.Candidates = slices.Clone(r.Candidates)
	return r
}

// wordsPage returns a page of n distinct words, each in its own part of
// the alphabet's order.
func wordsPage(n int) *webpage.Snapshot {
	var text strings.Builder
	for i := range n {
		fmt.Fprintf(&text, "overwrite%c%c%c ", 'a'+i%26, 'a'+i/26%26, 'a'+i/676%26)
	}
	return &webpage.Snapshot{StartingURL: "http://b.example/", LandingURL: "http://b.example/", Title: "zzz yyy", Text: text.String()}
}

// TestVerdictOutlivesItsAnalysis: a cold verdict's target result owns
// its keyterms. Phishing page A is scored without the memo and a deep
// copy of its verdict kept; page B is then analysed on the same
// goroutine, so the pool hands back the analysis A released and B's
// terms overwrite its dictionary. A's verdict must still equal the
// copy, keyterms included. A larger page analysed first leaves the
// pooled dictionary room for both, so that B's bytes land where A's
// were instead of in a grown array.
func TestVerdictOutlivesItsAnalysis(t *testing.T) {
	c := corpus(t)
	d := trainDetector(t, c, 0)
	pipe := &Pipeline{Detector: d, Identifier: target.New(c.Engine)}
	ctx := context.Background()
	webpage.Analyze(wordsPage(2000)).Release()
	v, err := pipe.AnalyzeCtx(ctx, NewScoreRequest(c.PhishTest.Snapshots()[0]))
	if err != nil {
		t.Fatal(err)
	}
	if !v.TargetRun || len(v.Target.Keyterms.Prominent) == 0 {
		t.Fatalf("the first phishing page did not run target identification: %+v", v.Outcome)
	}
	kept := untimed(v)
	kept.Target = ownedCopy(v.Target)
	keptJSON, err := json.Marshal(kept)
	if err != nil {
		t.Fatal(err)
	}

	b := webpage.Analyze(wordsPage(500))
	defer b.Release()

	if !reflect.DeepEqual(untimed(v), kept) {
		t.Fatalf("the verdict changed once another page was analysed:\n got %+v\nwant %+v", untimed(v).Target, kept.Target)
	}
	if now, err := json.Marshal(untimed(v)); err != nil || string(now) != string(keptJSON) {
		t.Fatalf("the verdict's JSON changed once another page was analysed (%v):\n got %s\nwant %s", err, now, keptJSON)
	}
}
