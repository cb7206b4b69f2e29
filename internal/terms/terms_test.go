package terms

import (
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func TestCanonicalizePaperExample(t *testing.T) {
	// Section III-B: { B, β, b̀, b̂ } → b.
	for _, r := range []rune{'B', 'β', 'b'} {
		if got := Canonicalize(r); got != 'b' {
			t.Errorf("Canonicalize(%q) = %q, want b", r, got)
		}
	}
	// Accented forms via the fold table.
	for r, want := range map[rune]rune{'é': 'e', 'Ñ': 'n', 'ü': 'u', 'ç': 'c', 'а': 'a'} {
		if got := Canonicalize(r); got != want {
			t.Errorf("Canonicalize(%q) = %q, want %q", r, got, want)
		}
	}
	// Non-letters are rejected.
	for _, r := range []rune{'7', '-', '.', ' ', '中', '€'} {
		if got := Canonicalize(r); got != -1 {
			t.Errorf("Canonicalize(%q) = %q, want -1", r, got)
		}
	}
}

func TestExtract(t *testing.T) {
	tests := []struct {
		in   string
		want []string
	}{
		{"Bank of America", []string{"bank", "america"}}, // "of" dropped (<3)
		{"sign-in.amazon.co.uk", []string{"sign", "amazon"}},
		{"PayPal Secure Login", []string{"paypal", "secure", "login"}},
		{"dl4a s2mr e-go", nil}, // all fragments < 3 chars (paper §VII-B)
		{"theinstantexchange", []string{"theinstantexchange"}},
		{"", nil},
		{"123 456", nil},
		{"Crédit Agricole", []string{"credit", "agricole"}},
		{"foo foo bar", []string{"foo", "foo", "bar"}},
	}
	for _, tt := range tests {
		if got := Extract(tt.in); !reflect.DeepEqual(got, tt.want) {
			t.Errorf("Extract(%q) = %v, want %v", tt.in, got, tt.want)
		}
	}
}

func TestQuickExtractInvariants(t *testing.T) {
	f := func(s string) bool {
		for _, term := range Extract(s) {
			if len(term) < MinTermLength {
				return false
			}
			for i := 0; i < len(term); i++ {
				if term[i] < 'a' || term[i] > 'z' {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestQuickExtractIdempotent(t *testing.T) {
	// Extracting from the joined output of Extract returns the same terms.
	f := func(s string) bool {
		first := Extract(s)
		second := Extract(strings.Join(first, " "))
		return reflect.DeepEqual(first, second)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestDistributionProbabilities(t *testing.T) {
	d := NewDistribution([]string{"foo", "foo", "bar", "baz"})
	if got := d.P("foo"); got != 0.5 {
		t.Errorf("P(foo) = %v, want 0.5", got)
	}
	if got := d.P("bar"); got != 0.25 {
		t.Errorf("P(bar) = %v, want 0.25", got)
	}
	if got := d.P("missing"); got != 0 {
		t.Errorf("P(missing) = %v, want 0", got)
	}
	if d.Len() != 3 || d.TotalOccurrences() != 4 {
		t.Errorf("Len=%d Total=%d, want 3 and 4", d.Len(), d.TotalOccurrences())
	}
	if !d.Contains("baz") || d.Contains("qux") {
		t.Error("Contains misbehaves")
	}
}

func TestQuickDistributionSumsToOne(t *testing.T) {
	f := func(raw []string) bool {
		var occ []string
		for _, s := range raw {
			occ = append(occ, Extract(s)...)
		}
		d := NewDistribution(occ)
		if len(occ) == 0 {
			return d.Empty()
		}
		var sum float64
		for _, term := range d.Terms() {
			p := d.P(term)
			if p <= 0 || p > 1 {
				return false
			}
			sum += p
		}
		return math.Abs(sum-1) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestTopN(t *testing.T) {
	d := NewDistribution([]string{"aaa", "aaa", "aaa", "bbb", "bbb", "ccc", "ddd"})
	got := d.TopN(2)
	if !reflect.DeepEqual(got, []string{"aaa", "bbb"}) {
		t.Errorf("TopN(2) = %v", got)
	}
	// Ties broken lexicographically.
	got = d.TopN(4)
	if !reflect.DeepEqual(got, []string{"aaa", "bbb", "ccc", "ddd"}) {
		t.Errorf("TopN(4) = %v", got)
	}
	if got := d.TopN(100); len(got) != 4 {
		t.Errorf("TopN(100) len = %d, want 4", len(got))
	}
}

func TestSubstringProbabilitySum(t *testing.T) {
	d := NewDistribution([]string{"bank", "america", "bank", "login"})
	// "bank" and "america" are substrings of "bankofamerica".
	got := d.SubstringProbabilitySumBytes([]byte("bankofamerica"))
	want := 0.5 + 0.25
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("SubstringProbabilitySumBytes = %v, want %v", got, want)
	}
	if d.SubstringProbabilitySumBytes(nil) != 0 {
		t.Error("empty target should yield 0")
	}
}

func TestHellingerKnownValues(t *testing.T) {
	p := NewDistribution([]string{"aaa", "bbb"})
	q := NewDistribution([]string{"aaa", "bbb"})
	if got := Hellinger(p, q); got != 0 {
		t.Errorf("identical distributions: H² = %v, want 0", got)
	}
	r := NewDistribution([]string{"ccc", "ddd"})
	if got := Hellinger(p, r); got != 1 {
		t.Errorf("disjoint distributions: H² = %v, want 1", got)
	}
	// Half-overlap hand computation: P = {a:1}, Q = {a:.5, b:.5}
	// H² = ½[(1-√.5)² + .5] = ½[1 - 2√.5 + .5 + .5] = 1 - √.5/... compute:
	pa := NewDistribution([]string{"aaa"})
	qa := NewDistribution([]string{"aaa", "bbb"})
	want := 0.5 * ((1-math.Sqrt(0.5))*(1-math.Sqrt(0.5)) + 0.5)
	if got := Hellinger(pa, qa); math.Abs(got-want) > 1e-12 {
		t.Errorf("H² = %v, want %v", got, want)
	}
}

func TestHellingerEmptyConventions(t *testing.T) {
	var empty Distribution
	full := NewDistribution([]string{"aaa"})
	if got := Hellinger(empty, empty); got != 0 {
		t.Errorf("H²(∅,∅) = %v, want 0", got)
	}
	if got := Hellinger(empty, full); got != 1 {
		t.Errorf("H²(∅,P) = %v, want 1", got)
	}
	if got := Hellinger(full, empty); got != 1 {
		t.Errorf("H²(P,∅) = %v, want 1", got)
	}
}

// randomDist builds a random small distribution for property tests.
func randomDist(r *rand.Rand) Distribution {
	n := 1 + r.Intn(8)
	var occ []string
	for i := 0; i < n; i++ {
		occ = append(occ, genTerm(r))
	}
	return NewDistribution(occ)
}

func genTerm(r *rand.Rand) string {
	n := MinTermLength + r.Intn(5)
	b := make([]byte, n)
	for i := range b {
		b[i] = byte('a' + r.Intn(6)) // small alphabet → overlaps common
	}
	return string(b)
}

func TestQuickHellingerProperties(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	for i := 0; i < 500; i++ {
		p, q := randomDist(r), randomDist(r)
		h := Hellinger(p, q)
		if h < 0 || h > 1 {
			t.Fatalf("H² out of range: %v", h)
		}
		if got := Hellinger(q, p); math.Abs(got-h) > 1e-12 {
			t.Fatalf("asymmetric: H(p,q)=%v H(q,p)=%v", h, got)
		}
		if got := Hellinger(p, p); got != 0 {
			t.Fatalf("H(p,p) = %v, want 0", got)
		}
		// Relation to Bhattacharyya: H² = 1 − BC.
		if bc := BhattacharyyaCoefficient(p, q); math.Abs(h-(1-bc)) > 1e-9 {
			t.Fatalf("H² = %v but 1−BC = %v", h, 1-bc)
		}
	}
}

func TestQuickTotalVariationProperties(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 500; i++ {
		p, q := randomDist(r), randomDist(r)
		tv := TotalVariation(p, q)
		if tv < 0 || tv > 1 {
			t.Fatalf("TV out of range: %v", tv)
		}
		if got := TotalVariation(q, p); math.Abs(got-tv) > 1e-12 {
			t.Fatalf("asymmetric TV")
		}
		if TotalVariation(p, p) != 0 {
			t.Fatalf("TV(p,p) != 0")
		}
		// Hellinger² ≤ TV (standard inequality H² ≤ TV ≤ H√2, on squared H).
		if h := Hellinger(p, q); h > tv+1e-9 {
			t.Fatalf("H²=%v > TV=%v", h, tv)
		}
	}
}

func TestFromTextAndStrings(t *testing.T) {
	d1 := FromText("secure bank login bank")
	if d1.P("bank") != 0.5 {
		t.Errorf("FromText P(bank) = %v, want 0.5", d1.P("bank"))
	}
	d2 := FromStrings([]string{"secure bank", "login bank"})
	if d2.P("bank") != 0.5 {
		t.Errorf("FromStrings P(bank) = %v, want 0.5", d2.P("bank"))
	}
}

func TestCountMatchesExtract(t *testing.T) {
	cases := []string{
		"",
		"ab",
		"abc",
		"secure-login-77 Bank of Tests",
		"paypаl with-а-homograph",              // Cyrillic а folds to a
		"x.y.z..w http://example.com/a/b?c=dd", // separators everywhere
		"ßströng ünïcode ендс",
		"no",
	}
	for _, s := range cases {
		if got, want := Count(s), len(Extract(s)); got != want {
			t.Errorf("Count(%q) = %d, want len(Extract) = %d", s, got, want)
		}
	}
}

func TestAppendFolded(t *testing.T) {
	if got := string(AppendFolded(nil, "Secure-Login-77")); got != "securelogin" {
		t.Errorf("AppendFolded = %q, want securelogin", got)
	}
	// Appends to the tail of dst rather than overwriting it.
	if got := string(AppendFolded([]byte("x"), "ab")); got != "xab" {
		t.Errorf("AppendFolded with prefix = %q, want xab", got)
	}
}

func TestBytesVariantsMatchStringAPI(t *testing.T) {
	d := FromText("secure bank login secure")
	for _, term := range []string{"secure", "bank", "absent", ""} {
		if got, want := d.ContainsBytes([]byte(term)), d.Contains(term); got != want {
			t.Errorf("ContainsBytes(%q) = %v, want %v", term, got, want)
		}
	}
	for target, want := range map[string]float64{"": 0, "securebank": 0.75, "bank": 0.25, "xyz": 0, "loginsecurelogin": 0.75} {
		if got := d.SubstringProbabilitySumBytes([]byte(target)); got != want {
			t.Errorf("SubstringProbabilitySumBytes(%q) = %v, want %v", target, got, want)
		}
	}
}
