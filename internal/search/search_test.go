package search_test

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"

	"knowphish/internal/dataset"
	"knowphish/internal/racecheck"
	"knowphish/internal/search"
	"knowphish/internal/webgen"
)

func engineWithDocs() *search.Engine {
	e := search.NewEngine()
	e.Add(search.Doc{URL: "https://www.novabank.com/", RDN: "novabank.com", MLD: "novabank",
		Terms: []string{"nova", "bank", "novabank", "login", "accounts", "savings"}})
	e.Add(search.Doc{URL: "https://www.paysphere.com/", RDN: "paysphere.com", MLD: "paysphere",
		Terms: []string{"pay", "sphere", "paysphere", "wallet", "send", "login"}})
	e.Add(search.Doc{URL: "http://www.harborfield.net/", RDN: "harborfield.net", MLD: "harborfield",
		Terms: []string{"harbor", "field", "harborfield", "news", "stories"}})
	return e
}

func TestQueryRanksRelevant(t *testing.T) {
	e := engineWithDocs()
	res := e.Query([]string{"nova", "bank", "login"}, 5)
	if len(res) == 0 {
		t.Fatal("no results")
	}
	if res[0].RDN != "novabank.com" {
		t.Errorf("top result = %s, want novabank.com", res[0].RDN)
	}
	if !search.ContainsRDN(res, "novabank.com") {
		t.Error("ContainsRDN failed")
	}
	if search.ContainsRDN(res, "absent.example") {
		t.Error("ContainsRDN false positive")
	}
	if search.ContainsRDN(res, "") {
		t.Error("empty RDN must never match")
	}
}

func TestQueryIDFWeighting(t *testing.T) {
	// "login" appears in two docs, "harbor" in one; a query for both must
	// rank the harbor doc on top (rarer term carries more weight).
	e := engineWithDocs()
	res := e.Query([]string{"harbor", "login"}, 3)
	if len(res) < 2 {
		t.Fatalf("results = %d", len(res))
	}
	if res[0].RDN != "harborfield.net" {
		t.Errorf("top = %s, want harborfield.net", res[0].RDN)
	}
}

func TestQueryEdgeCases(t *testing.T) {
	e := engineWithDocs()
	if res := e.Query(nil, 5); res != nil {
		t.Error("nil query must return nil")
	}
	if res := e.Query([]string{"nova"}, 0); res != nil {
		t.Error("k=0 must return nil")
	}
	if res := e.Query([]string{"zzznomatch"}, 5); res != nil {
		t.Error("no-match query must return nil")
	}
	empty := search.NewEngine()
	if res := empty.Query([]string{"nova"}, 5); res != nil {
		t.Error("empty engine must return nil")
	}
}

func TestQueryDeduplicatesByRDN(t *testing.T) {
	e := search.NewEngine()
	for i := 0; i < 3; i++ {
		e.Add(search.Doc{URL: fmt.Sprintf("https://site.example/p%d", i), RDN: "site.example", MLD: "site",
			Terms: []string{"common", "words"}})
	}
	// The three documents tie on score and RDN: the first inserted wins,
	// every time.
	for i := 0; i < 20; i++ {
		res := e.Query([]string{"common"}, 10)
		if len(res) != 1 {
			t.Fatalf("results = %d, want 1 (deduplicated by RDN)", len(res))
		}
		if res[0].URL != "https://site.example/p0" {
			t.Fatalf("call %d: an RDN's equal-scored documents must resolve to the first inserted, got %s", i, res[0].URL)
		}
	}
}

func TestQueryTopKRespected(t *testing.T) {
	e := search.NewEngine()
	for i := 0; i < 20; i++ {
		e.Add(search.Doc{URL: fmt.Sprintf("https://s%d.example/", i), RDN: fmt.Sprintf("s%d.example", i), MLD: fmt.Sprintf("s%d", i),
			Terms: []string{"shared", fmt.Sprintf("unique%d", i)}})
	}
	res := e.Query([]string{"shared"}, 7)
	if len(res) != 7 {
		t.Errorf("results = %d, want 7", len(res))
	}
}

func TestAddIgnoresEmptyDocs(t *testing.T) {
	e := search.NewEngine()
	e.Add(search.Doc{URL: "https://empty.example/", RDN: "empty.example"})
	if e.Len() != 0 {
		t.Error("empty doc must be ignored")
	}
}

func TestQueryDeterministicTieBreak(t *testing.T) {
	e := search.NewEngine()
	e.Add(search.Doc{URL: "u1", RDN: "bbb.example", MLD: "bbb", Terms: []string{"tie"}})
	e.Add(search.Doc{URL: "u2", RDN: "aaa.example", MLD: "aaa", Terms: []string{"tie"}})
	for i := 0; i < 5; i++ {
		res := e.Query([]string{"tie"}, 2)
		if res[0].RDN != "aaa.example" {
			t.Fatalf("tie-break not lexicographic: %v", res)
		}
	}
}

// TestDomainIDs pins the domain accessors: every RDN a query can return
// has an id, ids count from 0 in first-added order and survive later
// Adds and a Save/Load, and Domain spells an id as its RDN's first
// document does.
func TestDomainIDs(t *testing.T) {
	e := search.NewEngine()
	e.Add(search.Doc{URL: "u0", RDN: "bbb.example", MLD: "bbb", Terms: []string{"x"}})
	e.Add(search.Doc{URL: "u1", RDN: "aaa.example", MLD: "aaa", Terms: []string{"x"}})
	e.Add(search.Doc{URL: "u2", RDN: "bbb.example", MLD: "other", Terms: []string{"x"}})
	e.Add(search.Doc{URL: "u3", RDN: "empty.example", MLD: "empty"}) // ignored: no terms
	check := func(e *search.Engine) {
		t.Helper()
		for want, rdn := range []string{"bbb.example", "aaa.example"} {
			id, ok := e.DomainID(rdn)
			if !ok || id != int32(want) {
				t.Fatalf("DomainID(%q) = %d, %v; want %d, true", rdn, id, ok, want)
			}
			if gotRDN, gotMLD := e.Domain(id); gotRDN != rdn || gotMLD != rdn[:3] {
				t.Fatalf("Domain(%d) = %q, %q; want %q, %q", id, gotRDN, gotMLD, rdn, rdn[:3])
			}
		}
		for _, rdn := range []string{"empty.example", "", "zzz.example"} {
			if _, ok := e.DomainID(rdn); ok {
				t.Fatalf("DomainID(%q) found an RDN no indexed document has", rdn)
			}
		}
		ids := []int32{1, 0, 1}
		var got []string
		e.Domains(ids, func(i int, rdn, mld string) { got = append(got, fmt.Sprint(i, " ", rdn, " ", mld)) })
		if want := []string{"0 aaa.example aaa", "1 bbb.example bbb", "2 aaa.example aaa"}; !slices.Equal(got, want) {
			t.Fatalf("Domains(%v) read %q, want %q", ids, got, want)
		}
	}
	check(e)
	e.Add(search.Doc{URL: "u4", RDN: "ccc.example", MLD: "ccc", Terms: []string{"y"}})
	if id, ok := e.DomainID("ccc.example"); !ok || id != 2 {
		t.Fatalf("a new RDN got id %d, %v; want 2, true", id, ok)
	}
	var buf bytes.Buffer
	if err := e.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := search.Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	check(loaded)
}

func TestSaveLoadRoundTrip(t *testing.T) {
	e := engineWithDocs()
	var buf bytes.Buffer
	if err := e.Save(&buf); err != nil {
		t.Fatalf("Save: %v", err)
	}
	back, err := search.Load(&buf)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if back.Len() != e.Len() {
		t.Fatalf("doc count %d, want %d", back.Len(), e.Len())
	}
	if !reflect.DeepEqual(back.Docs(), e.Docs()) {
		t.Error("documents lost in roundtrip")
	}
	for _, q := range [][]string{{"nova", "bank"}, {"harbor", "login"}, {"wallet"}} {
		if a, b := e.Query(q, 5), back.Query(q, 5); !reflect.DeepEqual(a, b) {
			t.Errorf("query %v differs after roundtrip:\n%v\nvs\n%v", q, a, b)
		}
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := search.Load(strings.NewReader("not json")); err == nil {
		t.Error("garbage index: want error")
	}
}

func TestDuplicateQueryTermsCountOnce(t *testing.T) {
	e := engineWithDocs()
	a := e.Query([]string{"nova", "nova", "nova"}, 3)
	b := e.Query([]string{"nova"}, 3)
	if len(a) != len(b) || a[0].Score != b[0].Score {
		t.Error("duplicate query terms must not inflate scores")
	}
}

// reference is the map-and-sort Query this package shipped before the
// pooled kernel, kept as the differential oracle. It indexes from
// Engine.Docs alone, so it shares no state with the engine it checks;
// its comparator carries the same total order (score descending, RDN
// ascending, insertion order ascending).
type reference struct {
	docs     []search.Doc
	postings map[string][]refPosting
}

type refPosting struct {
	doc int
	tf  int
}

func newReference(docs []search.Doc) *reference {
	r := &reference{docs: docs, postings: make(map[string][]refPosting)}
	for id, d := range docs {
		counts := make(map[string]int, len(d.Terms))
		for _, t := range d.Terms {
			counts[t]++
		}
		for t, c := range counts {
			r.postings[t] = append(r.postings[t], refPosting{doc: id, tf: c})
		}
	}
	return r
}

func (r *reference) query(queryTerms []string, k int) []search.Result {
	if k <= 0 || len(queryTerms) == 0 || len(r.docs) == 0 {
		return nil
	}
	n := float64(len(r.docs))
	scores := make(map[int]float64)
	seen := map[string]struct{}{}
	for _, qt := range queryTerms {
		if _, dup := seen[qt]; dup {
			continue
		}
		seen[qt] = struct{}{}
		posts := r.postings[qt]
		if len(posts) == 0 {
			continue
		}
		idf := math.Log(1 + n/float64(len(posts)))
		for _, p := range posts {
			tf := float64(p.tf) / float64(len(r.docs[p.doc].Terms))
			scores[p.doc] += float64(tf * idf)
		}
	}
	if len(scores) == 0 {
		return nil
	}
	type scored struct {
		doc   int
		score float64
	}
	all := make([]scored, 0, len(scores))
	for d, s := range scores {
		all = append(all, scored{d, s})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].score != all[j].score {
			return all[i].score > all[j].score
		}
		if a, b := r.docs[all[i].doc].RDN, r.docs[all[j].doc].RDN; a != b {
			return a < b
		}
		return all[i].doc < all[j].doc
	})
	var out []search.Result
	byRDN := map[string]struct{}{}
	for _, s := range all {
		d := r.docs[s.doc]
		if _, dup := byRDN[d.RDN]; dup {
			continue
		}
		byRDN[d.RDN] = struct{}{}
		out = append(out, search.Result{RDN: d.RDN, MLD: d.MLD, URL: d.URL, Score: s.score})
		if len(out) == k {
			break
		}
	}
	return out
}

// sameResults holds both forms of the query — Query, and AppendQuery
// behind results a caller already holds — to want exactly:
// reflect.DeepEqual compares the scores as float64 values, so a
// last-bit difference fails.
func sameResults(t *testing.T, e *search.Engine, want []search.Result, query []string, k int) {
	t.Helper()
	if got := e.Query(query, k); !reflect.DeepEqual(got, want) {
		t.Fatalf("Query(%q, %d) differs from the reference:\n got %+v\nwant %+v", query, k, got, want)
	}
	held := []search.Result{{RDN: "held.example", Score: 1}, {RDN: "held.example", Score: 2}}
	got := e.AppendQuery(slices.Clone(held), query, k)
	if !reflect.DeepEqual(got[:len(held)], held) {
		t.Fatalf("AppendQuery(%q, %d) changed the results it was appending to: %+v", query, k, got[:len(held)])
	}
	// No match appends nothing, where Query returns nil.
	if got = got[len(held):]; len(got) != len(want) || (len(want) > 0 && !reflect.DeepEqual(got, want)) {
		t.Fatalf("AppendQuery(%q, %d) differs from the reference:\n got %+v\nwant %+v", query, k, got, want)
	}
}

var sharedCorpus *dataset.Corpus

func corpus(t testing.TB) *dataset.Corpus {
	t.Helper()
	if sharedCorpus == nil {
		c, err := dataset.Build(dataset.Config{
			Seed:              41,
			Scale:             100,
			World:             webgen.Config{Seed: 42, Brands: 60, RankedGenerics: 60, VocabularyWords: 100},
			SkipLanguageTests: true,
		})
		if err != nil {
			t.Fatalf("corpus: %v", err)
		}
		sharedCorpus = c
	}
	return sharedCorpus
}

// randomQuery draws n terms from the documents' own terms, then salts
// the query with terms no document holds and with repeats of its own.
func randomQuery(rng *rand.Rand, docs []search.Doc, n int) []string {
	q := make([]string, 0, n+4)
	for len(q) < n {
		d := docs[rng.Intn(len(docs))]
		q = append(q, d.Terms[rng.Intn(len(d.Terms))])
	}
	for i := rng.Intn(3); i > 0; i-- {
		q = append(q, fmt.Sprintf("absent%d", rng.Intn(5)))
	}
	for i := rng.Intn(3); i > 0; i-- {
		q = append(q, q[rng.Intn(len(q))])
	}
	rng.Shuffle(len(q), func(i, j int) { q[i], q[j] = q[j], q[i] })
	return q
}

func TestQueryMatchesReference(t *testing.T) {
	e := corpus(t).Engine
	docs := e.Docs()
	ref := newReference(docs)
	rng := rand.New(rand.NewSource(7))
	matched := 0
	for i := 0; i < 300; i++ {
		q := randomQuery(rng, docs, 1+rng.Intn(12))
		for _, k := range []int{1, 10, len(docs) + 1} {
			want := ref.query(q, k)
			sameResults(t, e, want, q, k)
			matched += len(want)
		}
	}
	// A whole document as the query, as the Cantina baseline's longest
	// signatures are: every term repeats and most documents match.
	for i := 0; i < 10; i++ {
		q := docs[rng.Intn(len(docs))].Terms
		sameResults(t, e, ref.query(q, 30), q, 30)
	}
	absent := []string{"absent0", "absent1"}
	sameResults(t, e, ref.query(absent, 10), absent, 10)
	if matched == 0 {
		t.Fatal("no query matched a document: the test compared nothing")
	}
}

// FuzzQueryMatchesReference builds a tiny corpus and a query from the
// fuzzer's bytes: 0xff ends a document, a document's first byte names
// its RDN and the rest its terms, and the last segment is the query.
// The vocabulary is a handful of terms and RDNs, so equal scores, shared
// RDNs and repeated terms are the common case, not the rare one.
func FuzzQueryMatchesReference(f *testing.F) {
	f.Add([]byte{0, 1, 2, 0xff, 0, 1, 2, 0xff, 1, 1, 3, 0xff, 1, 2, 9}, uint8(2))
	f.Add([]byte{3, 5, 5, 5, 0xff, 2, 5, 0xff, 5, 5, 5}, uint8(1))
	f.Add([]byte{1, 4, 0xff, 0xff, 2, 0xff}, uint8(10))
	f.Fuzz(func(t *testing.T, data []byte, k uint8) {
		segs := bytes.Split(data, []byte{0xff})
		words := func(b []byte) []string {
			out := make([]string, len(b))
			for i, c := range b {
				out[i] = fmt.Sprintf("t%d", c%11)
			}
			return out
		}
		e := search.NewEngine()
		for i, seg := range segs[:len(segs)-1] {
			if len(seg) == 0 {
				continue
			}
			mld := fmt.Sprintf("site%d", seg[0]%5)
			e.Add(search.Doc{URL: fmt.Sprintf("https://%s.example/%d", mld, i), RDN: mld + ".example", MLD: mld, Terms: words(seg[1:])})
		}
		q := words(segs[len(segs)-1])
		sameResults(t, e, newReference(e.Docs()).query(q, int(k)), q, int(k))
	})
}

// TestQueryConcurrentWithAdd runs queries while the index grows past
// the size their pooled scratch was first cut to (run under -race).
// Once the writer is done every reader's scratch has been resized at
// least once, and the engine must still equal the reference.
func TestQueryConcurrentWithAdd(t *testing.T) {
	e := search.NewEngine()
	doc := func(i int) search.Doc {
		mld := fmt.Sprintf("s%d", i%97)
		return search.Doc{URL: fmt.Sprintf("https://%s.example/%d", mld, i), RDN: mld + ".example", MLD: mld,
			Terms: []string{"shared", fmt.Sprintf("w%d", i%13), fmt.Sprintf("w%d", i%7)}}
	}
	e.Add(doc(0))
	q := []string{"shared", "w3", "w5", "w3"}
	done := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var buf []search.Result
			for {
				res := e.Query(q, 10)
				if g%2 == 1 { // half the readers reuse a buffer of their own
					buf = e.AppendQuery(buf[:0], q, 10)
					res = buf
				}
				for i := 1; i < len(res); i++ {
					if res[i].Score > res[i-1].Score {
						t.Errorf("results out of order while adding: %+v", res)
						return
					}
				}
				select {
				case <-done:
					return
				default:
				}
			}
		}(g)
	}
	for i := 1; i < 2000; i++ {
		e.Add(doc(i))
	}
	close(done)
	wg.Wait()
	sameResults(t, e, newReference(e.Docs()).query(q, 10), q, 10)
}

// TestQueryAllocs pins the kernel's allocation contract: warm, Query
// allocates its returned slice and nothing else, and AppendQuery into a
// buffer with room allocates nothing.
func TestQueryAllocs(t *testing.T) {
	if racecheck.Enabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	e := corpus(t).Engine
	docs := e.Docs()
	rng := rand.New(rand.NewSource(9))
	for _, n := range []int{5, 12} {
		q := randomQuery(rng, docs, n)
		if len(e.Query(q, 10)) == 0 {
			t.Fatalf("query %q matched nothing", q)
		}
		if allocs := testing.AllocsPerRun(200, func() { e.Query(q, 10) }); allocs > 1 {
			t.Errorf("Query(%d terms) allocated %.1f times per run, want at most 1 (the results)", len(q), allocs)
		}
		buf := make([]search.Result, 0, 30)
		if allocs := testing.AllocsPerRun(200, func() {
			buf = e.AppendQuery(e.AppendQuery(buf[:0], q, 10), q, 10) // two result sets in one buffer
		}); allocs != 0 || len(buf) == 0 {
			t.Errorf("AppendQuery(%d terms) into a reused buffer allocated %.1f times per run for %d results, want 0", len(q), allocs, len(buf))
		}
	}
}
