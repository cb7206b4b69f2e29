package webpage

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"regexp"
	"slices"
	"testing"

	"knowphish/internal/racecheck"
)

func fpSnap() *Snapshot {
	return &Snapshot{
		StartingURL:      "http://lure.example/login",
		LandingURL:       "http://landing.example/phish",
		RedirectionChain: []string{"http://lure.example/login", "http://landing.example/phish"},
		LoggedLinks:      []string{"http://cdn.example/app.js"},
		Title:            "Sign in",
		Text:             "Enter your password to continue",
		Copyright:        "© landing.example",
		HREFLinks:        []string{"http://landing.example/help"},
		InputCount:       2,
		ImageCount:       3,
		IFrameCount:      1,
		ScreenshotTerms:  []string{"sign", "in"},
		Language:         "en",
	}
}

// TestContentKeyStable pins that equal content yields equal keys and
// that every kind of identity-bearing field — URL, text, count —
// perturbs the key.
func TestContentKeyStable(t *testing.T) {
	a, b := fpSnap(), fpSnap()
	if ContentKey(a) != ContentKey(b) {
		t.Fatal("identical snapshots produced different content keys")
	}
	base := ContentKey(a)

	mut := fpSnap()
	mut.LandingURL = "http://other.example/phish"
	if ContentKey(mut) == base {
		t.Fatal("landing URL change did not change the content key")
	}
	mut = fpSnap()
	mut.Text = "different body"
	if ContentKey(mut) == base {
		t.Fatal("text change did not change the content key")
	}
	mut = fpSnap()
	mut.InputCount++
	if ContentKey(mut) == base {
		t.Fatal("input count change did not change the content key")
	}
}

// TestFingerprintIsContentKeyHex pins that there is one identity: the
// fingerprint is the content key rendered as 32 hex digits, landing URL
// included.
func TestFingerprintIsContentKeyHex(t *testing.T) {
	a, b := fpSnap(), fpSnap()
	fp := Fingerprint(a)
	if fp != ContentKey(a).String() {
		t.Fatalf("Fingerprint %q is not the content key %q", fp, ContentKey(a))
	}
	if !regexp.MustCompile(`^[0-9a-f]{32}$`).MatchString(fp) {
		t.Fatalf("fingerprint %q is not 32 lower-case hex digits", fp)
	}
	b.LandingURL = "http://elsewhere.example/"
	if Fingerprint(b) == fp {
		t.Fatal("fingerprint does not cover the landing URL")
	}
}

// TestContentKeyZeroAllocs pins the memo-key path off the heap: it runs
// per request in front of every memo lookup.
func TestContentKeyZeroAllocs(t *testing.T) {
	if racecheck.Enabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	snap := fpSnap()
	ContentKey(snap) // warm the pool
	if n := testing.AllocsPerRun(200, func() { ContentKey(snap) }); n != 0 {
		t.Fatalf("ContentKey allocates %.1f per run, want 0", n)
	}
}

// TestKey128StringAllocs pins the spelling of a key to one allocation,
// the string, and to hex.EncodeToString of its 16 big-endian bytes.
func TestKey128StringAllocs(t *testing.T) {
	k := Key128{Hi: 0x0123456789abcdef, Lo: 0xfedcba9876543210}
	if got, want := k.String(), "0123456789abcdeffedcba9876543210"; got != want {
		t.Fatalf("String() = %q, want %q", got, want)
	}
	k = ContentKey(fpSnap())
	var b [16]byte
	binary.BigEndian.PutUint64(b[:8], k.Hi)
	binary.BigEndian.PutUint64(b[8:], k.Lo)
	if got, want := k.String(), hex.EncodeToString(b[:]); got != want {
		t.Fatalf("String() = %q, want %q", got, want)
	}
	if h := k.Hex(); string(h[:]) != k.String() {
		t.Fatalf("Hex() = %q, String() = %q", h[:], k.String())
	}
	if racecheck.Enabled {
		return // allocation counts are not meaningful under the race detector
	}
	var sink string
	if n := testing.AllocsPerRun(200, func() { sink = k.String() }); n != 1 || sink == "" {
		t.Fatalf("Key128.String allocates %.1f per run, want 1", n)
	}
}

// TestPreimageInjective pins the identity against a client who moves
// bytes across field boundaries. The first pair — reachable over JSON
// with a \u0000 escape — is what a separator byte cannot tell apart.
func TestPreimageInjective(t *testing.T) {
	for name, pair := range map[string][2]Snapshot{
		"nul moves title to text": {{Title: "x\x00y", Text: ""}, {Title: "x", Text: "y\x00"}},
		"fields swapped":          {{Title: "a", Text: "b"}, {Title: "b", Text: "a"}},
		"element split":           {{HREFLinks: []string{"ab"}}, {HREFLinks: []string{"a", "b"}}},
		"element changes list":    {{LoggedLinks: []string{"u"}}, {HREFLinks: []string{"u"}}},
		"url moves to chain":      {{StartingURL: "u"}, {RedirectionChain: []string{"u"}}},
		"landing vs starting":     {{LandingURL: "u"}, {StartingURL: "u"}},
		"text vs count bytes":     {{Language: "\x01\x00\x00\x00\x00\x00\x00\x00"}, {InputCount: 1}},
	} {
		a, b := pair[0], pair[1]
		if bytes.Equal(appendPreimage(nil, &a), appendPreimage(nil, &b)) {
			t.Errorf("%s: distinct snapshots share a preimage", name)
		}
		if ContentKey(&a) == ContentKey(&b) || Fingerprint(&a) == Fingerprint(&b) {
			t.Errorf("%s: distinct snapshots share an identity", name)
		}
	}
}

// fuzzSnap carves a snapshot out of fuzzer bytes: a string takes a
// length byte and up to that many of the bytes after it, a list a count
// byte first. Running out of input leaves the remaining fields empty,
// so every input is a snapshot, and one mutated length byte shifts
// content — a NUL included — into the neighbouring field.
func fuzzSnap(data []byte) *Snapshot {
	str := func() string {
		if len(data) == 0 {
			return ""
		}
		n := min(int(data[0])%8, len(data)-1)
		s := string(data[1 : 1+n])
		data = data[1+n:]
		return s
	}
	list := func() []string {
		if len(data) == 0 {
			return nil
		}
		n := int(data[0]) % 4
		data = data[1:]
		var ss []string
		for range n {
			ss = append(ss, str())
		}
		return ss
	}
	count := func() int {
		if len(data) == 0 {
			return 0
		}
		n := int(int8(data[0]))
		data = data[1:]
		return n
	}
	return &Snapshot{
		LandingURL: str(), StartingURL: str(),
		RedirectionChain: list(), LoggedLinks: list(), HREFLinks: list(), ScreenshotTerms: list(),
		Title: str(), Text: str(), Copyright: str(), Language: str(),
		InputCount: count(), ImageCount: count(), IFrameCount: count(),
	}
}

// sameFields compares the field tuples the identity covers (a nil and
// an empty list are the same tuple).
func sameFields(a, b *Snapshot) bool {
	return a.LandingURL == b.LandingURL && a.StartingURL == b.StartingURL &&
		slices.Equal(a.RedirectionChain, b.RedirectionChain) &&
		slices.Equal(a.LoggedLinks, b.LoggedLinks) &&
		slices.Equal(a.HREFLinks, b.HREFLinks) &&
		slices.Equal(a.ScreenshotTerms, b.ScreenshotTerms) &&
		a.Title == b.Title && a.Text == b.Text && a.Copyright == b.Copyright && a.Language == b.Language &&
		a.InputCount == b.InputCount && a.ImageCount == b.ImageCount && a.IFrameCount == b.IFrameCount
}

// FuzzPreimageInjective builds two snapshots from fuzzer bytes and
// requires that they share preimage bytes, and a key, exactly when
// their field tuples are equal.
func FuzzPreimageInjective(f *testing.F) {
	f.Add([]byte("\x00\x00\x00\x00\x00\x00\x03x\x00y\x00"), []byte("\x00\x00\x00\x00\x00\x00\x01x\x02y\x00"))
	f.Add([]byte("\x01u"), []byte("\x00\x01u"))
	f.Add([]byte("\x00\x00\x00\x00\x01\x02ab"), []byte("\x00\x00\x00\x00\x02\x01a\x01b"))
	f.Add([]byte{}, []byte{0})
	f.Fuzz(func(t *testing.T, x, y []byte) {
		a, b := fuzzSnap(x), fuzzSnap(y)
		same := sameFields(a, b)
		if got := bytes.Equal(appendPreimage(nil, a), appendPreimage(nil, b)); got != same {
			t.Fatalf("preimages equal = %v for field tuples equal = %v\na: %+v\nb: %+v", got, same, a, b)
		}
		if got := ContentKey(a) == ContentKey(b); got != same {
			t.Fatalf("keys equal = %v for field tuples equal = %v\na: %+v\nb: %+v", got, same, a, b)
		}
	})
}
