package knowphish_test

import (
	"bytes"
	"context"
	"io/fs"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"knowphish/internal/core"
	"knowphish/internal/crawl"
	"knowphish/internal/dataset"
	"knowphish/internal/ml"
	"knowphish/internal/ocr"
	"knowphish/internal/search"
	"knowphish/internal/target"
	"knowphish/internal/webgen"
	"knowphish/internal/webpage"
)

// TestPublicAPIEndToEnd drives the whole library exactly the way the
// README quickstart does: build a corpus, train, classify, identify.
func TestPublicAPIEndToEnd(t *testing.T) {
	corpus, err := dataset.Build(dataset.Config{
		Seed:              61,
		Scale:             100,
		World:             webgen.Config{Seed: 62, Brands: 60, RankedGenerics: 60, VocabularyWords: 100},
		SkipLanguageTests: true,
	})
	if err != nil {
		t.Fatalf("BuildCorpus: %v", err)
	}

	snaps := append(corpus.LegTrain.Snapshots(), corpus.PhishTrain.Snapshots()...)
	labels := append(corpus.LegTrain.Labels(), corpus.PhishTrain.Labels()...)
	det, err := core.Train(snaps, labels, core.TrainConfig{
		Rank: corpus.World.Ranking(),
		GBM:  ml.GBMConfig{Trees: 50, MaxDepth: 4, Seed: 3},
	})
	if err != nil {
		t.Fatalf("Train: %v", err)
	}
	if det.Threshold() != core.DefaultThreshold {
		t.Errorf("threshold = %v", det.Threshold())
	}

	pipe := &core.Pipeline{
		Detector:   det,
		Identifier: target.New(corpus.Engine),
	}

	caught := 0
	for _, ex := range corpus.PhishTest.Examples {
		v, err := pipe.AnalyzeCtx(context.Background(), core.NewScoreRequest(ex.Snapshot))
		if err != nil {
			t.Fatalf("AnalyzeCtx: %v", err)
		}
		if v.FinalPhish {
			caught++
		}
	}
	if rate := float64(caught) / float64(len(corpus.PhishTest.Examples)); rate < 0.7 {
		t.Errorf("pipeline catch rate = %.2f, want >= 0.7", rate)
	}

	// Persistence: Save, then Load against the same ranking list.
	var buf bytes.Buffer
	if err := det.Save(&buf); err != nil {
		t.Fatalf("Save: %v", err)
	}
	back, err := core.Load(&buf, corpus.World.Ranking())
	if err != nil {
		t.Fatalf("LoadDetector: %v", err)
	}
	snap := corpus.PhishTest.Examples[0].Snapshot
	req := core.NewScoreRequest(snap)
	va, errA := det.ScoreCtx(context.Background(), req)
	vb, errB := back.ScoreCtx(context.Background(), req)
	if errA != nil || errB != nil || math.Abs(va.Score-vb.Score) > 1e-12 {
		t.Errorf("roundtrip score mismatch: %v (%v) vs %v (%v)", va.Score, errA, vb.Score, errB)
	}
}

func TestSnapshotFromHTML(t *testing.T) {
	snap := webpage.FromHTML(
		"http://evil.example/x",
		"http://evil.example/x",
		nil,
		`<title>NovaBank Login</title><body>novabank secure login
		 <a href="https://www.novabank.com/help">help</a>
		 <form action="/steal.php"><input type="text"><input type="password"></form></body>`,
	)
	if snap.Title != "NovaBank Login" {
		t.Errorf("Title = %q", snap.Title)
	}
	if snap.InputCount != 2 {
		t.Errorf("InputCount = %d", snap.InputCount)
	}
	if len(snap.HREFLinks) != 1 {
		t.Errorf("HREFLinks = %v", snap.HREFLinks)
	}
}

func TestWorldHelpers(t *testing.T) {
	w := webgen.New(webgen.Config{Seed: 63, Brands: 20, RankedGenerics: 30, VocabularyWords: 60})
	if len(w.Brands) != 20 {
		t.Fatalf("brands = %d", len(w.Brands))
	}
	engine := search.NewEngine()
	if engine.Len() != 0 {
		t.Error("fresh engine not empty")
	}
	if ocr.Default() == nil {
		t.Error("NewOCR returned nil")
	}
	rng := rand.New(rand.NewSource(1))
	site := w.NewPhishSite(rng, webgen.PhishOptions{})
	snap, err := crawl.VisitSite(w, site)
	if err != nil {
		t.Fatalf("VisitSite: %v", err)
	}
	if snap.StartingURL == "" || snap.InputCount < 2 {
		t.Errorf("phish snapshot malformed: %+v", snap)
	}
}

// TestDocsNameExistingTests keeps the test names README and the verify
// skill cite real: every Test…, Benchmark…, Fuzz… or Example… name they
// spell must be a prefix of a function some _test.go defines, since a
// -run or -bench pattern matches by prefix.
func TestDocsNameExistingTests(t *testing.T) {
	name := regexp.MustCompile(`\b(?:Test|Benchmark|Fuzz|Example)[A-Z_][A-Za-z0-9_]*`)
	def := regexp.MustCompile(`(?m)^func ((?:Test|Benchmark|Fuzz|Example)\w*)\(`)
	var defined []string
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && strings.HasSuffix(path, "_test.go") {
			src, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			for _, m := range def.FindAllSubmatch(src, -1) {
				defined = append(defined, string(m[1]))
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, doc := range []string{"README.md", ".claude/skills/verify/SKILL.md"} {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
	names:
		for _, n := range name.FindAllString(string(text), -1) {
			for _, d := range defined {
				if strings.HasPrefix(d, n) {
					continue names
				}
			}
			t.Errorf("%s names %s, which prefixes no test function", doc, n)
		}
	}
}

// TestDocsNameExistingTooling keeps the commands README, the verify
// skill and the CI workflows give runnable: every `make` target in their
// code (markdown code spans and blocks; workflow lines, and code spans in
// workflow comments) must be one the Makefile defines, and every
// scripts/*.sh and ./cmd/<name> they name must exist.
func TestDocsNameExistingTooling(t *testing.T) {
	mk, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	targets := map[string]bool{}
	for _, m := range regexp.MustCompile(`(?m)^([a-z][a-z0-9-]*):`).FindAllSubmatch(mk, -1) {
		targets[string(m[1])] = true
	}
	workflows, err := filepath.Glob(".github/workflows/*.yml")
	if err != nil || len(workflows) == 0 {
		t.Fatalf("no workflows found: %v", err)
	}
	fence := regexp.MustCompile("(?s)```.*?```")
	span := regexp.MustCompile("`[^`\n]+`")
	invocation := regexp.MustCompile(`\bmake[ \t]+([^\n` + "`" + `]*)`)
	comment := regexp.MustCompile(`#[^\n]*`)
	target := regexp.MustCompile(`^[a-z][a-z0-9-]*$`)
	tool := regexp.MustCompile(`scripts/[A-Za-z0-9_-]+\.sh|\./cmd/[A-Za-z0-9_-]+`)
	for _, doc := range append([]string{"README.md", ".claude/skills/verify/SKILL.md"}, workflows...) {
		raw, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		text := string(raw)
		var code []string
		if strings.HasSuffix(doc, ".md") {
			code = append(fence.FindAllString(text, -1), span.FindAllString(fence.ReplaceAllString(text, ""), -1)...)
		} else {
			for _, line := range strings.Split(text, "\n") {
				if strings.HasPrefix(strings.TrimSpace(line), "#") {
					code = append(code, span.FindAllString(line, -1)...)
				} else {
					code = append(code, line)
				}
			}
		}
		for _, c := range code {
			// A shell comment is prose: "# make sure …" runs nothing.
			c = comment.ReplaceAllString(c, "")
			for _, m := range invocation.FindAllStringSubmatch(c, -1) {
				// `make [-s] [-C dir] target… [VAR=value…]`: the targets
				// run from the first word past the options to the first
				// word that is not one.
				words := strings.Fields(m[1])
				for i := 0; i < len(words); i++ {
					w := strings.TrimRight(words[i], `)";`)
					if w == "-C" {
						i++
						continue
					}
					if strings.HasPrefix(w, "-") {
						continue
					}
					if !target.MatchString(w) {
						break
					}
					if !targets[w] {
						t.Errorf("%s runs make %s, which the Makefile does not define", doc, w)
					}
				}
			}
		}
		for _, s := range tool.FindAllString(text, -1) {
			if _, err := os.Stat(s); err != nil {
				t.Errorf("%s names %s: %v", doc, s, err)
			}
		}
	}
}
