package terms

import (
	"math"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"
)

// checkPieces feeds each piece to one Builder as a distribution of its
// own, closed by Next, and holds every distribution BuildAll returns to
// the reference built from that piece alone — the table is reset between
// distributions, and a term of one must not be counted in another. It
// then feeds the same pieces again and holds AppendSorted to every
// piece's occurrences, sorted.
func checkPieces(t testing.TB, pieces []string) {
	t.Helper()
	b := AcquireBuilder()
	defer b.Release()
	for _, p := range pieces {
		b.Add(p)
		b.Next()
	}
	got := make([]Distribution, len(pieces))
	b.BuildAll(got)
	for i, p := range pieces {
		checkAgainstReference(t, got[i], refNewDistribution(refExtract(p)))
	}
	checkDictionary(t, b, pieces, new(Dictionary))

	for _, p := range pieces {
		b.Add(p)
		b.Next()
	}
	var want []string
	for _, p := range pieces {
		occ := refExtract(p)
		sort.Strings(occ)
		want = append(want, occ...)
	}
	if sorted := b.AppendSorted([]string{"held"}); sorted[0] != "held" || !slices.Equal(sorted[1:], want) {
		t.Fatalf("AppendSorted over %q = %q, want held + %q", pieces, sorted, want)
	}
}

// checkDictionary builds pieces, one distribution each, into d with
// BuildDictionary and holds every distribution to the reference, and
// every pair's HellingerRanked to Hellinger over the same pair, bit for
// bit: the ranks must order the distributions' terms as the terms do.
func checkDictionary(t testing.TB, b *Builder, pieces []string, d *Dictionary) {
	t.Helper()
	for _, p := range pieces {
		b.Add(p)
		b.Next()
	}
	got := make([]Distribution, len(pieces))
	ranked := make([]Ranked, len(pieces))
	b.BuildDictionary(got, ranked, d)
	for i, p := range pieces {
		checkAgainstReference(t, got[i], refNewDistribution(refExtract(p)))
		if r := ranked[i].Ranks(); len(r) != got[i].Len() || !slices.IsSorted(r) || len(slices.Compact(slices.Clone(r))) != len(r) {
			t.Fatalf("distribution %d (%q) has ranks %v for %d terms", i, p, r, got[i].Len())
		}
		for j := range pieces {
			h, hr := Hellinger(got[i], got[j]), HellingerRanked(ranked[i], ranked[j])
			if math.Float64bits(h) != math.Float64bits(hr) {
				t.Fatalf("HellingerRanked(%q, %q) = %v, Hellinger %v", p, pieces[j], hr, h)
			}
		}
	}
}

// A Dictionary is reused from page to page: each page built into it
// must equal the reference, whatever the page before it held.
func TestBuildDictionaryReuse(t *testing.T) {
	b := AcquireBuilder()
	defer b.Release()
	var d Dictionary
	pages := [][]string{
		referenceTexts,
		{"foo foo bar", "", "bar baz foo", "foo", "12 34", "foo foo foo foo"},
		nil,
		{strings.Repeat("login secure account verify ", 40), "account verify", "zzz"},
		{"pay\u200bpal se\u00adcure", "paypal secure"},
	}
	for round := 0; round < 2; round++ {
		for _, pieces := range pages {
			checkDictionary(t, b, pieces, &d)
		}
	}
}

func TestBuildAllPiecesMatchReference(t *testing.T) {
	checkPieces(t, nil)
	checkPieces(t, referenceTexts)
	checkPieces(t, []string{"foo foo bar", "", "bar baz foo", "foo", "12 34", "foo foo foo foo"})
}

// distinctWords returns n distinct terms of five or more letters: i
// written in base 26 behind a common prefix.
func distinctWords(n int) []string {
	out := make([]string, n)
	for i := range out {
		w := []byte("qz")
		for v := i; ; v /= 26 {
			w = append(w, byte('a'+v%26))
			if v < 26 {
				break
			}
		}
		for len(w) < 5 {
			w = append(w, 'a')
		}
		out[i] = string(w)
	}
	return out
}

// TestBuilderHostilePages: a page of 50 000 distinct terms and a page of
// one term repeated 100 000 times build the reference distributions, and
// the table the first grew past maxPooledSlots is not kept in the pool.
func TestBuilderHostilePages(t *testing.T) {
	words := distinctWords(50000)
	if len(slices.Compact(slices.Sorted(slices.Values(words)))) != len(words) {
		t.Fatal("distinctWords repeated a word")
	}
	distinct := strings.Join(words, " ")
	repeated := strings.Repeat("phish ", 100000)
	checkAgainstReference(t, FromText(distinct), refNewDistribution(refExtract(distinct)))
	checkAgainstReference(t, FromText(repeated), refNewDistribution(refExtract(repeated)))
	checkPieces(t, []string{repeated, distinct, "phish qzaaa", repeated})

	b := AcquireBuilder()
	b.Add(distinct)
	if d := b.Build(); d.Len() != len(words) {
		t.Fatalf("built %d distinct terms, want %d", d.Len(), len(words))
	}
	if cap(b.slots) <= maxPooledSlots {
		t.Fatalf("a %d-term distribution grew a %d-slot table, not past the drop capacity %d", len(words), cap(b.slots), maxPooledSlots)
	}
	b.Release()
	held := make([]*Builder, 8)
	for i := range held {
		held[i] = AcquireBuilder()
		if n := cap(held[i].slots); n > maxPooledSlots {
			t.Errorf("a pooled Builder holds a %d-slot table, over the drop capacity %d", n, maxPooledSlots)
		}
	}
	for _, h := range held {
		h.Release()
	}
}

// A Builder reused across pages must not carry one page's counts into
// the next, however the pages are split into distributions.
func TestBuilderReuseAcrossPages(t *testing.T) {
	b := AcquireBuilder()
	defer b.Release()
	for round := 0; round < 3; round++ {
		b.Add("alpha beta alpha")
		b.Next()
		b.Add("beta gamma")
		b.Next()
		got := make([]Distribution, 2)
		b.BuildAll(got)
		checkAgainstReference(t, got[0], refNewDistribution([]string{"alpha", "beta", "alpha"}))
		checkAgainstReference(t, got[1], refNewDistribution([]string{"beta", "gamma"}))
		if !reflect.DeepEqual(b.AppendSorted(nil), []string(nil)) {
			t.Fatal("AppendSorted on an emptied builder returned terms")
		}
	}
}
