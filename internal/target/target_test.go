package target

import (
	"encoding/json"
	"math/rand"
	"reflect"
	"testing"

	"knowphish/internal/crawl"
	"knowphish/internal/dataset"
	"knowphish/internal/racecheck"
	"knowphish/internal/webgen"
	"knowphish/internal/webpage"
)

var sharedCorpus *dataset.Corpus

func corpus(t *testing.T) *dataset.Corpus {
	t.Helper()
	if sharedCorpus == nil {
		c, err := dataset.Build(dataset.Config{
			Seed:              31,
			Scale:             100,
			World:             webgen.Config{Seed: 32, Brands: 60, RankedGenerics: 60, VocabularyWords: 100},
			SkipLanguageTests: true,
		})
		if err != nil {
			t.Fatalf("corpus: %v", err)
		}
		sharedCorpus = c
	}
	return sharedCorpus
}

func TestVerdictStrings(t *testing.T) {
	for v, want := range map[Verdict]string{
		VerdictSuspicious: "suspicious",
		VerdictLegitimate: "legitimate",
		VerdictPhish:      "phish",
	} {
		if v.String() != want {
			t.Errorf("%d.String() = %q, want %q", v, v.String(), want)
		}
	}
	if Verdict(99).String() == "" {
		t.Error("out-of-range verdict must not stringify to empty")
	}
}

func TestVerdictJSONRoundTrip(t *testing.T) {
	for _, v := range []Verdict{VerdictSuspicious, VerdictLegitimate, VerdictPhish} {
		blob, err := json.Marshal(v)
		if err != nil {
			t.Fatalf("marshal %v: %v", v, err)
		}
		var back Verdict
		if err := json.Unmarshal(blob, &back); err != nil {
			t.Fatalf("unmarshal %s: %v", blob, err)
		}
		if back != v {
			t.Errorf("roundtrip %v -> %s -> %v", v, blob, back)
		}
	}
}

// TestVerdictMarshalTextAllocs: every verdict, out-of-range values
// included, marshals to its String() without allocating, in a slice
// whose capacity ends at its length, so that an append copies instead
// of writing the shared bytes.
func TestVerdictMarshalTextAllocs(t *testing.T) {
	verdicts := []Verdict{VerdictSuspicious, VerdictLegitimate, VerdictPhish, -1, 3, 99}
	for _, v := range verdicts {
		b, err := v.MarshalText()
		if err != nil || string(b) != v.String() || cap(b) != len(b) {
			t.Errorf("%d.MarshalText() = %q (cap %d), %v; want %q at capacity", int(v), b, cap(b), err, v.String())
		}
	}
	if racecheck.Enabled {
		return
	}
	if n := testing.AllocsPerRun(100, func() {
		for _, v := range verdicts {
			v.MarshalText()
		}
	}); n != 0 {
		t.Errorf("MarshalText allocated %.0f times, want 0", n)
	}
}

func TestExtractKeytermsFindsBrandTerms(t *testing.T) {
	c := corpus(t)
	rng := rand.New(rand.NewSource(4))
	brand := c.World.Brands[0]
	site := c.World.NewPhishSite(rng, webgen.PhishOptions{Target: brand, Hosting: webgen.HostDedicated})
	snap, err := crawl.VisitSite(c.World, site)
	if err != nil {
		t.Fatalf("visit: %v", err)
	}
	kt := ExtractKeyterms(webpage.Analyze(snap), 5)
	if len(kt.Prominent) == 0 {
		t.Fatal("no prominent terms on a phishing page")
	}
	found := false
	for _, bt := range brand.Terms {
		for _, got := range append(append([]string(nil), kt.Boosted...), kt.Prominent...) {
			if got == bt {
				found = true
			}
		}
	}
	if !found {
		t.Errorf("no brand term of %v among keyterms %+v", brand.Terms, kt)
	}
}

func TestIdentifyLegitimate(t *testing.T) {
	c := corpus(t)
	id := New(c.Engine)
	legit, total := 0, 0
	for _, ex := range c.LangTests[webgen.English].Examples {
		total++
		res := id.Identify(webpage.Analyze(ex.Snapshot))
		if res.Verdict == VerdictLegitimate {
			legit++
		}
		if res.Verdict == VerdictLegitimate && res.StepsUsed > 2 && !res.UsedOCR {
			t.Errorf("legitimate verdict at step %d without OCR", res.StepsUsed)
		}
	}
	if rate := float64(legit) / float64(total); rate < 0.8 {
		t.Errorf("legitimate confirmation rate = %.2f over %d pages, want >= 0.8", rate, total)
	}
}

func TestIdentifyPhishNamesTarget(t *testing.T) {
	c := corpus(t)
	id := New(c.Engine)
	hit, phishVerdicts, total := 0, 0, 0
	for _, ex := range c.PhishBrand.Examples {
		if ex.NoHint {
			continue
		}
		total++
		res := id.Identify(webpage.Analyze(ex.Snapshot))
		if res.Verdict != VerdictPhish {
			continue
		}
		phishVerdicts++
		for i, cand := range res.Candidates {
			if i >= 3 {
				break
			}
			if cand.MLD == ex.TargetMLD {
				hit++
				break
			}
		}
	}
	if total == 0 {
		t.Fatal("no hinted phish examples")
	}
	if rate := float64(hit) / float64(total); rate < 0.6 {
		t.Errorf("top-3 target hit rate = %.2f (%d/%d, %d phish verdicts), want >= 0.6",
			rate, hit, total, phishVerdicts)
	}
}

func TestIdentifyNoHintStaysUnknown(t *testing.T) {
	c := corpus(t)
	id := New(c.Engine)
	for _, ex := range c.PhishBrand.Examples {
		if !ex.NoHint {
			continue
		}
		res := id.Identify(webpage.Analyze(ex.Snapshot))
		if res.Verdict != VerdictPhish {
			continue
		}
		// A "no-hint" page may still leak its target through the URL
		// (subdomain squatting embeds the target RDN in the FQDN, which
		// stripTargetHints cannot remove); a phish verdict is acceptable
		// only when it names that true target.
		if len(res.Candidates) == 0 || res.Candidates[0].MLD != ex.TargetMLD {
			t.Errorf("no-hint page %s got phish verdict with candidates %+v",
				ex.Snapshot.StartingURL, res.Candidates)
		}
	}
}

func TestIdentifyDeterministic(t *testing.T) {
	c := corpus(t)
	id := New(c.Engine)
	for i, ex := range c.PhishBrand.Examples {
		if i == 10 {
			break
		}
		a := webpage.Analyze(ex.Snapshot)
		first := id.Identify(a)
		second := id.Identify(webpage.Analyze(ex.Snapshot))
		if !reflect.DeepEqual(first, second) {
			t.Fatalf("non-deterministic result for %s:\n%+v\nvs\n%+v",
				ex.Snapshot.StartingURL, first, second)
		}
	}
}

func TestIdentifyEmptyPage(t *testing.T) {
	id := New(corpus(t).Engine)
	snap := &webpage.Snapshot{StartingURL: "http://x.test/", LandingURL: "http://x.test/"}
	res := id.Identify(webpage.Analyze(snap))
	if res.Verdict != VerdictSuspicious {
		t.Errorf("empty page verdict = %v, want suspicious", res.Verdict)
	}
	if len(res.Candidates) != 0 {
		t.Errorf("empty page produced candidates: %+v", res.Candidates)
	}
}
