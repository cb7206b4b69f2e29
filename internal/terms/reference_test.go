package terms

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"

	"knowphish/internal/racecheck"
)

// The pre-Builder implementations, verbatim: one string per term, a
// counting map and an index map per distribution. They are the oracle
// the pooled kernel is differentially tested against.

func refExtract(s string) []string {
	var out []string
	var cur strings.Builder
	flush := func() {
		if cur.Len() >= MinTermLength {
			out = append(out, cur.String())
		}
		cur.Reset()
	}
	for _, r := range s {
		c := Canonicalize(r)
		if c < 0 {
			flush()
			continue
		}
		cur.WriteRune(c)
	}
	flush()
	return out
}

type refDistribution struct {
	terms []string
	probs []float64
	index map[string]int
	total int
}

func refNewDistribution(occurrences []string) refDistribution {
	if len(occurrences) == 0 {
		return refDistribution{}
	}
	counts := make(map[string]int, len(occurrences))
	for _, t := range occurrences {
		counts[t]++
	}
	ts := make([]string, 0, len(counts))
	for t := range counts {
		ts = append(ts, t)
	}
	sort.Strings(ts)
	probs := make([]float64, len(ts))
	index := make(map[string]int, len(ts))
	n := float64(len(occurrences))
	for i, t := range ts {
		probs[i] = float64(counts[t]) / n
		index[t] = i
	}
	return refDistribution{terms: ts, probs: probs, index: index, total: len(occurrences)}
}

func (d refDistribution) P(t string) float64 {
	if i, ok := d.index[t]; ok {
		return d.probs[i]
	}
	return 0
}

func (d refDistribution) Contains(t string) bool {
	_, ok := d.index[t]
	return ok
}

// checkAgainstReference compares every observable of got with the
// reference built from the same occurrences: terms, probabilities bit
// for bit, totals, and the three lookups for present and absent terms.
func checkAgainstReference(t testing.TB, got Distribution, want refDistribution) {
	t.Helper()
	if got.Empty() != (len(want.terms) == 0) || got.Len() != len(want.terms) {
		t.Fatalf("Len = %d (Empty %v), reference has %d terms", got.Len(), got.Empty(), len(want.terms))
	}
	if got.TotalOccurrences() != want.total {
		t.Fatalf("TotalOccurrences = %d, want %d", got.TotalOccurrences(), want.total)
	}
	if len(want.terms) == 0 {
		if got.Terms() != nil || got.Probs() != nil {
			t.Fatalf("empty distribution has non-nil slices: %v %v", got.Terms(), got.Probs())
		}
	} else if !reflect.DeepEqual(got.Terms(), want.terms) {
		t.Fatalf("Terms = %q\nwant    %q", got.Terms(), want.terms)
	}
	for i, term := range want.terms {
		if math.Float64bits(got.Probs()[i]) != math.Float64bits(want.probs[i]) {
			t.Fatalf("Probs[%d] (%q) = %v, want %v", i, term, got.Probs()[i], want.probs[i])
		}
	}
	probe := append([]string{"", "a", "zzzz", "absent", "\xff"}, want.terms...)
	for _, term := range want.terms {
		if len(term) > 0 {
			probe = append(probe, term[:len(term)-1], term+"a", term+"\x00")
		}
	}
	for _, term := range probe {
		if math.Float64bits(got.P(term)) != math.Float64bits(want.P(term)) {
			t.Fatalf("P(%q) = %v, want %v", term, got.P(term), want.P(term))
		}
		if got.Contains(term) != want.Contains(term) {
			t.Fatalf("Contains(%q) = %v, want %v", term, got.Contains(term), want.Contains(term))
		}
		if got.ContainsBytes([]byte(term)) != want.Contains(term) {
			t.Fatalf("ContainsBytes(%q) = %v, want %v", term, got.ContainsBytes([]byte(term)), want.Contains(term))
		}
	}
}

// checkText runs one input through every entry point the kernel
// replaced: Extract, FromText, FromStrings over its space-split pieces,
// and NewDistribution over arbitrary (unfolded) occurrences.
func checkText(t testing.TB, s string) {
	t.Helper()
	want := refExtract(s)
	if got := Extract(s); !reflect.DeepEqual(got, want) {
		t.Fatalf("Extract(%q) = %q, want %q", s, got, want)
	}
	checkAgainstReference(t, FromText(s), refNewDistribution(want))
	// Over the text's own distribution AppendExtract is Extract, behind
	// what the caller already holds; over another distribution it keeps
	// the occurrences that one holds.
	if got := FromText(s).AppendExtract([]string{"held"}, s); got[0] != "held" || !slices.Equal(got[1:], want) {
		t.Fatalf("AppendExtract(%q) over its own distribution = %q, want held + %q", s, got, want)
	}
	some := FromStrings(want[:len(want)/2])
	kept := slices.DeleteFunc(slices.Clone(want), func(t string) bool { return !some.Contains(t) })
	if got := some.AppendExtract(nil, s); !slices.Equal(got, kept) {
		t.Fatalf("AppendExtract(%q) over the distribution of %q = %q, want %q", s, some.Terms(), got, kept)
	}

	pieces := strings.Split(s, " ")
	var occ []string
	for _, p := range pieces {
		occ = append(occ, refExtract(p)...)
	}
	checkAgainstReference(t, FromStrings(pieces), refNewDistribution(occ))
	// NewDistribution takes occurrences as they are: no folding, no
	// minimum length, empty strings included.
	checkAgainstReference(t, NewDistribution(pieces), refNewDistribution(pieces))
}

var referenceTexts = []string{
	"",
	"ab",
	"abc",
	"foo foo bar",
	"Bank of America — sign-in.amazon.co.uk",
	"Crédit Agricole ßströng ünïcode ендс paypаl",
	"dl4a s2mr e-go",
	"a\xffbcd\xfe\xfdefg \xc3",
	"  double  spaces   and\ttabs\n",
	"zzz aaa mmm aaa zzz aaa",
	"abcdefghijklm abcdefghijkl abcdefghijklmn abcdefghijklm",
	strings.Repeat("login secure account verify ", 12),
}

func TestDistributionMatchesReference(t *testing.T) {
	for _, s := range referenceTexts {
		checkText(t, s)
	}
	// Random texts over a small alphabet (many repeats, shared prefixes)
	// mixed with separators, accents and invalid UTF-8.
	alphabet := []string{"a", "b", "c", "d", "E", "é", "а", " ", " ", "-", "7", "\xff", "中"}
	rng := rand.New(rand.NewSource(17))
	for i := 0; i < 300; i++ {
		var sb strings.Builder
		for n := rng.Intn(120); n > 0; n-- {
			sb.WriteString(alphabet[rng.Intn(len(alphabet))])
		}
		checkText(t, sb.String())
	}
}

// BuildAll carves several distributions out of shared arrays: each must
// equal the one built alone, empties included, and an append to one
// must not reach its neighbour. BuildAllInto does the same in arrays
// that still hold an earlier build's terms.
func TestBuildAllMatchesReference(t *testing.T) {
	b := AcquireBuilder()
	defer b.Release()
	distinct := 0
	for round := 0; round < 2; round++ {
		for _, s := range referenceTexts {
			b.Add(s)
			b.Next()
		}
		got := make([]Distribution, len(referenceTexts))
		if round == 0 {
			b.BuildAll(got)
			for _, d := range got {
				distinct += d.Len()
			}
		} else {
			stale, staleProbs := make([]string, distinct+5), make([]float64, distinct+5)
			for i := range stale {
				stale[i], staleProbs[i] = "stale", 1
			}
			terms, probs := b.BuildAllInto(got, stale, staleProbs)
			if len(terms) != distinct || len(probs) != distinct || &terms[0] != &stale[0] || &probs[0] != &staleProbs[0] {
				t.Fatalf("BuildAllInto returned %d terms and %d probabilities outside the arrays it was given, want %d in them", len(terms), len(probs), distinct)
			}
		}
		for i, s := range referenceTexts {
			checkAgainstReference(t, got[i], refNewDistribution(refExtract(s)))
			if len(got[i].terms) != cap(got[i].terms) || len(got[i].probs) != cap(got[i].probs) {
				t.Fatalf("distribution %d has spare capacity into its neighbour", i)
			}
		}
	}
	b.BuildAll(nil)
	if d := b.Build(); !d.Empty() {
		t.Fatalf("Build on an emptied builder = %v", d.Terms())
	}
}

// A Builder is reused across distributions and across goroutines via
// the pool; what it built earlier must not change when it builds again.
func TestBuilderReuseDoesNotAlias(t *testing.T) {
	b := AcquireBuilder()
	b.Add("first second first")
	d := b.Build()
	before := append([]string(nil), d.Terms()...)
	b.Add("zzzzz yyyyy xxxxx wwwww zzzzz")
	_ = b.Build()
	b.Release()
	b = AcquireBuilder()
	b.Add("overwrite overwrite overwrite")
	_ = b.Build()
	b.Release()
	if !reflect.DeepEqual(d.Terms(), before) {
		t.Fatalf("terms changed after the builder was reused: %q, were %q", d.Terms(), before)
	}
	if got := Extract("one two"); !reflect.DeepEqual(got, []string{"one", "two"}) {
		t.Fatalf("Extract after reuse = %q", got)
	}
}

func TestBuildAllocBudget(t *testing.T) {
	if racecheck.Enabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	text := strings.Repeat("login secure account verify password ", 40)
	FromText(text) // warm the pool
	if n := testing.AllocsPerRun(100, func() { FromText(text) }); n > 3 {
		t.Errorf("FromText allocates %v times, want <= 3 (backing string, terms, probs)", n)
	}
	b := AcquireBuilder()
	defer b.Release()
	var dst [2]Distribution
	var terms []string
	var probs []float64
	if n := testing.AllocsPerRun(100, func() {
		b.Add(text)
		b.Next()
		b.Add("account verify")
		b.Next()
		terms, probs = b.BuildAllInto(dst[:], terms, probs)
	}); n > 1 {
		t.Errorf("BuildAllInto into arrays with room allocates %v times, want <= 1 (backing string)", n)
	}
	if n := testing.AllocsPerRun(100, func() { FromText("12 34") }); n != 0 {
		t.Errorf("empty distribution allocates %v times, want 0", n)
	}
	d := FromText(text)
	term := []byte("secure")
	if n := testing.AllocsPerRun(100, func() { d.ContainsBytes(term); d.Contains("verify"); d.P("absent") }); n != 0 {
		t.Errorf("lookups allocate %v times, want 0", n)
	}
	buf := make([]string, 0, 256)
	if n := testing.AllocsPerRun(100, func() { buf = d.AppendExtract(buf[:0], text) }); n != 0 || len(buf) != 200 {
		t.Errorf("AppendExtract into a buffer with room allocates %v times for %d terms, want 0 for 200", n, len(buf))
	}
}

func FuzzDistributionMatchesReference(f *testing.F) {
	for _, s := range referenceTexts {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		checkText(t, s)
		// The same input as several distributions of one Builder: every
		// '|' closes one, so the fuzzer decides how the table is reset.
		checkPieces(t, strings.Split(s, "|"))
	})
}
