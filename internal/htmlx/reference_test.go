package htmlx

import (
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"
	"unicode"
	"unicode/utf8"
	"unsafe"

	"knowphish/internal/racecheck"
	"knowphish/internal/webgen"
)

// The pre-kernel Parse, verbatim: a map[string]string per tag, strings.
// Builder accumulation, strings.Replacer entity decoding and
// strings.Fields whitespace collapsing. Only extractCopyright is the
// current function — the parent's slicing by lower-cased offsets is the
// defect TestCopyrightMarkerOffsets pins, not behaviour to preserve.

func referenceParse(src string) Document {
	var (
		doc       Document
		text      strings.Builder
		title     strings.Builder
		inTitle   bool
		skipUntil string // closing tag name that ends a skipped element
	)
	i := 0
	n := len(src)
	for i < n {
		lt := strings.IndexByte(src[i:], '<')
		if lt < 0 {
			refAppendText(&text, &title, inTitle, skipUntil, src[i:])
			break
		}
		refAppendText(&text, &title, inTitle, skipUntil, src[i:i+lt])
		i += lt
		tag, attrs, selfClose, closing, next := refScanTag(src, i)
		if tag == "" {
			// Stray '<': treat as text.
			refAppendText(&text, &title, inTitle, skipUntil, "<")
			i++
			continue
		}
		i = next
		if closing {
			switch tag {
			case "title":
				inTitle = false
			case skipUntil:
				skipUntil = ""
			}
			// Closing block elements break words.
			text.WriteByte(' ')
			continue
		}
		if skipUntil != "" {
			continue
		}
		switch tag {
		case "title":
			if !selfClose {
				inTitle = true
			}
		case "script", "style", "noscript":
			if !selfClose {
				skipUntil = tag
			}
			if srcAttr := attrs["src"]; srcAttr != "" {
				doc.ResourceLinks = append(doc.ResourceLinks, srcAttr)
			}
		case "a", "area":
			if href := attrs["href"]; href != "" && !strings.HasPrefix(href, "javascript:") && !strings.HasPrefix(href, "#") {
				doc.HREFLinks = append(doc.HREFLinks, href)
			}
		case "img":
			doc.ImageCount++
			if s := attrs["src"]; s != "" {
				doc.ResourceLinks = append(doc.ResourceLinks, s)
			}
		case "iframe", "frame":
			doc.IFrameCount++
			if s := attrs["src"]; s != "" {
				doc.ResourceLinks = append(doc.ResourceLinks, s)
				doc.IFrameSrcs = append(doc.IFrameSrcs, s)
			}
		case "embed", "source", "audio", "video", "track":
			if s := attrs["src"]; s != "" {
				doc.ResourceLinks = append(doc.ResourceLinks, s)
			}
		case "link":
			if h := attrs["href"]; h != "" {
				doc.ResourceLinks = append(doc.ResourceLinks, h)
			}
		case "form":
			if a := attrs["action"]; a != "" {
				doc.ResourceLinks = append(doc.ResourceLinks, a)
			}
		case "input":
			typ := strings.ToLower(attrs["type"])
			if typ != "hidden" && typ != "submit" && typ != "button" && typ != "image" {
				doc.InputCount++
			}
		case "textarea", "select":
			doc.InputCount++
		case "br", "p", "div", "td", "tr", "li", "h1", "h2", "h3", "h4", "h5", "h6":
			text.WriteByte(' ')
		}
	}
	doc.Title = refCollapseSpace(title.String())
	doc.Text = refCollapseSpace(refDecodeEntities(text.String()))
	doc.Copyright = extractCopyright(doc.Text)
	return doc
}

func refAppendText(text, title *strings.Builder, inTitle bool, skipUntil, s string) {
	if s == "" || skipUntil != "" {
		return
	}
	if inTitle {
		title.WriteString(s)
		return
	}
	text.WriteString(s)
}

// refScanTag parses the tag beginning at src[i] == '<'. It returns the
// lowercase tag name, its attributes, whether it is self-closing, whether
// it is a closing tag, and the index just past the '>'.
func refScanTag(src string, i int) (tag string, attrs map[string]string, selfClose, closing bool, next int) {
	n := len(src)
	j := i + 1
	if j >= n {
		return "", nil, false, false, i + 1
	}
	if src[j] == '!' || src[j] == '?' {
		// Comment, doctype or processing instruction: skip to '>'
		// (handling <!-- --> comments properly).
		if strings.HasPrefix(src[j:], "!--") {
			if end := strings.Index(src[j+3:], "-->"); end >= 0 {
				return "!comment", nil, true, false, j + 3 + end + 3
			}
			return "!comment", nil, true, false, n
		}
		if end := strings.IndexByte(src[j:], '>'); end >= 0 {
			return "!decl", nil, true, false, j + end + 1
		}
		return "!decl", nil, true, false, n
	}
	if src[j] == '/' {
		closing = true
		j++
	}
	start := j
	for j < n && refIsNameChar(src[j]) {
		j++
	}
	if j == start {
		return "", nil, false, false, i + 1
	}
	tag = strings.ToLower(src[start:j])
	// Scan attributes until '>'.
	attrs = map[string]string{}
	for j < n && src[j] != '>' {
		// Skip whitespace and slashes.
		for j < n && (src[j] == ' ' || src[j] == '\t' || src[j] == '\n' || src[j] == '\r' || src[j] == '/') {
			if src[j] == '/' {
				selfClose = true
			}
			j++
		}
		if j >= n || src[j] == '>' {
			break
		}
		selfClose = false
		aStart := j
		for j < n && src[j] != '=' && src[j] != '>' && src[j] != ' ' && src[j] != '\t' && src[j] != '\n' && src[j] != '\r' && src[j] != '/' {
			j++
		}
		name := strings.ToLower(src[aStart:j])
		// Skip whitespace before '='.
		for j < n && (src[j] == ' ' || src[j] == '\t') {
			j++
		}
		if j < n && src[j] == '=' {
			j++
			for j < n && (src[j] == ' ' || src[j] == '\t') {
				j++
			}
			var val string
			if j < n && (src[j] == '"' || src[j] == '\'') {
				quote := src[j]
				j++
				vStart := j
				for j < n && src[j] != quote {
					j++
				}
				val = src[vStart:j]
				if j < n {
					j++
				}
			} else {
				vStart := j
				for j < n && src[j] != ' ' && src[j] != '\t' && src[j] != '\n' && src[j] != '\r' && src[j] != '>' {
					j++
				}
				val = src[vStart:j]
			}
			if name != "" {
				attrs[name] = val
			}
		} else if name != "" {
			attrs[name] = ""
		}
	}
	if j < n && src[j] == '>' {
		j++
	}
	if j > i+1 && j-2 >= 0 && j-2 < n && src[j-2] == '/' {
		selfClose = true
	}
	return tag, attrs, selfClose, closing, j
}

func refIsNameChar(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' || c == '-' || c == '_' || c == ':'
}

var refEntityReplacer = strings.NewReplacer(
	"&amp;", "&",
	"&lt;", "<",
	"&gt;", ">",
	"&quot;", `"`,
	"&apos;", "'",
	"&nbsp;", " ",
	"&copy;", "©",
	"&#169;", "©",
	"&reg;", "®",
	"&eacute;", "é",
	"&egrave;", "è",
	"&agrave;", "à",
	"&ccedil;", "ç",
	"&uuml;", "ü",
	"&ouml;", "ö",
	"&auml;", "ä",
	"&ntilde;", "ñ",
)

func refDecodeEntities(s string) string {
	if !strings.Contains(s, "&") {
		return s
	}
	return refEntityReplacer.Replace(s)
}

func refCollapseSpace(s string) string {
	return strings.Join(strings.Fields(s), " ")
}

// parseSeeds are the hand-written inputs of FuzzParse and of the
// differential tests; FuzzParse's corpus is index-addressed, so new
// seeds are appended, never inserted.
var parseSeeds = []string{
	"",
	"<",
	"<<<<>>>>",
	"<a",
	"<a href=",
	`<a href="unterminated`,
	"<!--",
	"<!-- <script> -->",
	"<script><script><script>",
	"</closing-only>",
	"<title><title><title>",
	"<iframe src='a'><iframe src='b'>",
	strings.Repeat("<div>", 2000),
	"<p>" + strings.Repeat("&amp;", 500),
	"\x00\x01\x02<body>\xff\xfe</body>",
	"<input type=><img src=><form action=>",
	"<a href='a' href='b' href='c'>dup</a>",
	"<A HREF=HTTP://X.EXAMPLE/>case</A>",
	"<style>body{}</style><style>again",
	samplePage,
	"<a HREF='upper' href='lower'>x</a><a href='lower' HREF='upper'>y</a><a hrEF=mixed>",
	"<a href>bare</a><img src src='late'><img src='early' src>",
	"<INPUT TYPE=HIDDEN><input type=SubMit><input type='h\u0130dden'><input type=\u212aey><input tYpe=\"image\" type=text>",
	"<form act\u0130on='dotted-i'><a \u017fref=long-s href=ok><a href\xff=bad>",
	"<SCRIPT SRC=a.js>x<b y>z</SCRIPT>shown<NoScript>hidden</noscript> <STYLE/>kept<style />also",
	"<title/>not a title<title>T &amp; U</title>&amp;&lt;&gt;&quot;&apos;&nbsp;&copy;&#169;&reg;",
	"caf&eacute; cr&egrave;me &agrave; fa&ccedil;on f&uuml;r sch&ouml;n &auml;hnlich se&ntilde;or",
	"&amp;lt; &am&amp; &amp &; &;amp; &unknown; &eacute &#169 &#1699; &copy;&copy;x&",
	"a&nbsp;&nbsp;b\u00a0c\u2003d\u3000e\x85f \t\r\n g\xa0h\xc2",
	"  \n\t lead and trail \v\f ",
	"<title>  spaced \u00a0 title\n&amp;raw </title>",
	"<p>one</p><p>two<br>three<td>four</tr>five<li>six<h1>seven</h6>eight",
	"<div/><p/><br/>x<img src=a.png/><iframe src=f /><frame src='g'/>",
	"<a href=javascript:void(0)><a href=#top><a href=' #sp'><area href=/map><AREA HREF=JAVASCRIPT:x>",
	"<embed src=e><source src=s><audio src=a><video src=v><track src=t><link href=l><link rel=x>",
	"<textarea></textarea><select><option>o</select><input><input type=text><input type>",
	"<a href = 'spaced' ><a href\t=\t\"tabbed\"><a href\n=nl><a href= >",
	"<a / href=/slash/><a href=x/ ><a href='q'/><a/b=c>",
	"<? php echo '<a href=x>' ?><!DOCTYPE html><!-><!--->x--><![CDATA[<a href=y>]]>",
	"<1><-x><:y><_z href=u><a-b><a:b href=v>",
	"text < less <3 hearts <= and > more",
	"<noscript><a href=hidden></noscript><a href=visible>",
	"<script>if (a<b && c>d) { s = \"</scr\" + \"ipt>\" }</script>after",
	"Copyright \u00a9 2016 Example Corp. All rights reserved. More text here and there and everywhere.",
	strings.Repeat("\u023a", 50) + " copyright 2016 Example",
	strings.Repeat("\u0130", 40) + " CoPyRiGhT 2016 \u212aelvin (C) x",
	"(c) (C) \u00a9",
	strings.Repeat("<a href=x y=z>", 300) + strings.Repeat("</a>", 300),
}

// referencePages returns n generated pages: phishing and legitimate
// sites of every kind, cycling through the six languages.
func referencePages(n int) []string {
	w := webgen.New(webgen.Config{Seed: 17, Brands: 30, RankedGenerics: 30, VocabularyWords: 60})
	rng := rand.New(rand.NewSource(17))
	var out []string
	for i := 0; len(out) < n; i++ {
		lang := webgen.Languages[i%len(webgen.Languages)]
		var site *webgen.Site
		switch i % 3 {
		case 0:
			opts := w.RandomPhishOptions(rng)
			opts.Lang = lang
			site = w.NewPhishSite(rng, opts)
		case 1:
			site = w.NewLegitSite(rng, webgen.LegitOptions{Lang: lang})
		default:
			site = w.NewLegitSite(rng, webgen.LegitOptions{
				Lang: lang, BrandVisit: i%12 == 2, NewsStyle: i%12 == 5, LoginPage: i%12 == 8, MerchantCheckout: i%12 == 11,
			})
		}
		for _, p := range site.Pages {
			if p.HTML != "" && len(out) < n {
				out = append(out, p.HTML)
			}
		}
	}
	return out
}

// checkParse holds both endings of the one scanner to the reference:
// the Document a Parser leaves in its storage, and Parse's copy.
func checkParse(t testing.TB, src string) {
	t.Helper()
	want := referenceParse(src)
	var p Parser
	if got := p.Parse(src); !reflect.DeepEqual(got, want) {
		t.Fatalf("Parser.Parse differs from the reference on %q\n got %#v\nwant %#v", src, got, want)
	}
	got := Parse(src)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Parse differs from the reference on %q\n got %#v\nwant %#v", src, got, want)
	}
	for _, l := range [][]string{got.HREFLinks, got.ResourceLinks, got.IFrameSrcs} {
		if len(l) != cap(l) {
			t.Fatalf("a link list of %q has spare capacity into its neighbour", src)
		}
	}
}

func TestParseMatchesReference(t *testing.T) {
	for _, src := range parseSeeds {
		checkParse(t, src)
	}
	pages := referencePages(200)
	for _, src := range pages {
		checkParse(t, src)
	}
	// The same pages damaged: truncated mid-tag, upper-cased, and with a
	// stretch of markup duplicated out of place.
	rng := rand.New(rand.NewSource(23))
	for _, src := range pages[:100] {
		cut := rng.Intn(len(src))
		checkParse(t, src[:cut])
		checkParse(t, strings.ToUpper(src))
		from := rng.Intn(len(src))
		checkParse(t, src[:cut]+src[from:min(len(src), from+40)]+src[cut:])
	}
}

// Parse hands out pooled buffers; nothing it returned earlier may change
// when the buffers are reused.
func TestParseDoesNotAliasPooledMemory(t *testing.T) {
	first := Parse(samplePage)
	want := referenceParse(samplePage)
	Parse("<title>" + strings.Repeat("overwrite ", 200) + "</title>" + strings.Repeat("<a href=zzzzzzzz>clobber &copy; 1999 </a><img src=yyyyyyyy><iframe src=xxxxxxxx>", 40))
	if !reflect.DeepEqual(first, want) {
		t.Fatalf("a Document changed after a later Parse\n got %#v\nwant %#v", first, want)
	}
}

// Parse is reached from concurrent handlers; documents parsed side by
// side must equal the reference's (run under -race in CI).
func TestParseConcurrent(t *testing.T) {
	pages := append(referencePages(40), parseSeeds...)
	want := make([]Document, len(pages))
	for i, src := range pages {
		want[i] = referenceParse(src)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 3; round++ {
				for i, src := range pages {
					if got := Parse(src); !reflect.DeepEqual(got, want[i]) {
						t.Errorf("page %d parsed concurrently differs from the reference", i)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

func TestCopyrightMarkerOffsets(t *testing.T) {
	tests := []struct{ name, text, want string }{
		// U+023A is 2 bytes and lower-cases to 3: an offset into the
		// lower-cased copy lies past the end of text.
		{"grows", strings.Repeat("\u023a", 50) + " copyright 2016 Example Corp. tail", "copyright 2016 Example Corp."},
		// U+0130 (2 bytes → 1) and the Kelvin sign (3 → 1) shrink: the
		// offset falls short, mid-rune.
		{"shrinks dotted I", strings.Repeat("\u0130", 9) + " copyright 2016 Example", "copyright 2016 Example"},
		{"shrinks kelvin", "\u212a\u212a\u212a \u00a9 2016 Example Inc. more", "\u00a9 2016 Example Inc."},
		{"mixed case", "Terms. CoPyRiGhT 2016 MegaCorp Ltd. More text.", "CoPyRiGhT 2016 MegaCorp Ltd."},
		{"dotted I inside the marker", "x COPYR\u0130GHT 2016 y", "COPYR\u0130GHT 2016 y"},
		{"upper (C)", "prefix (C) 2014 Small Shop", "(C) 2014 Small Shop"},
		{"sign", "a b \u00a9 c", "\u00a9 c"},
		{"earliest wins", "(c) then copyright then \u00a9", "(c) then copyright then \u00a9"},
		{"earliest wins 2", "x copyright (c) \u00a9. y", "copyright (c) \u00a9."},
		{"no marker", "copyrigh (c 2016 nothing here", ""},
		{"twelve tokens", "\u00a9 1 2 3 4 5 6 7 8 9 10 11 12 13", "\u00a9 1 2 3 4 5 6 7 8 9 10 11"},
		{"first token may end in a dot", "(c). 2016 Example. tail", "(c). 2016 Example."},
		{"uncollapsed input", "copyright \t 2016\n\nExample\u00a0Corp.  tail", "copyright 2016 Example Corp."},
		{"invalid utf-8", "\xff\xfe copyright \xff 2016", "copyright \xff 2016"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := extractCopyright(tt.text); got != tt.want {
				t.Errorf("extractCopyright(%q) = %q, want %q", tt.text, got, tt.want)
			}
			if doc := Parse("<body>" + tt.text + "</body>"); doc.Copyright != tt.want {
				t.Errorf("Parse(...).Copyright = %q, want %q", doc.Copyright, tt.want)
			}
		})
	}
	// findCopyrightMarker dispatches on four bytes; that is the whole set
	// of runes a marker can begin with.
	for r := rune(0); r <= unicode.MaxRune; r++ {
		switch l := unicode.ToLower(r); {
		case l == 'c' && r != 'c' && r != 'C', l == '(' && r != '(', l == '\u00a9' && r != '\u00a9':
			t.Errorf("%U lower-cases to %q: a marker can begin with it", r, l)
		}
	}
	if utf8.RuneLen('\u00a9') != 2 || "\u00a9"[0] != 0xc2 {
		t.Error("the copyright sign is not the two bytes findCopyrightMarker looks for")
	}
}

func TestParseAllocsIndependentOfTagCount(t *testing.T) {
	if racecheck.Enabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	allocs := func(src string) float64 {
		Parse(src) // size the pooled buffers
		return testing.AllocsPerRun(50, func() { Parse(src) })
	}
	few := allocs(strings.Repeat("<div>", 20))
	for name, src := range map[string]string{
		"open":       strings.Repeat("<div>", 2000),
		"close":      strings.Repeat("</div>", 2000),
		"attributes": strings.Repeat("<div class=a id=b data-x='y'>", 2000),
		"upper case": strings.Repeat("<DIV CLASS=a>", 2000),
	} {
		if many := allocs(src); many > few+2 {
			t.Errorf("%s: 2000 tags allocate %.0f times, 20 tags %.0f: the count must not grow with the tags", name, many, few)
		}
	}
	// Title, Text and one array for the link lists: three allocations
	// however many links there are.
	if n := allocs("<title>t</title>" + strings.Repeat("<a href=x>y</a><img src=z>", 500)); n > 3 {
		t.Errorf("a page with 1000 links allocates %.0f times, want <= 3", n)
	}
}

// TestParserAllocs: a Parser whose buffers have grown to the page
// parses it again without allocating — title, text and links stay in
// its storage — however many links the page has.
func TestParserAllocs(t *testing.T) {
	if racecheck.Enabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	var p Parser
	for name, src := range map[string]string{
		"sample": samplePage,
		"links":  "<title>t</title>" + strings.Repeat(`<a href="https://a.example/x">y &copy; 2015 z</a><img src="https://b.example/z.png">`, 500),
	} {
		doc := p.Parse(src)
		if doc.Title == "" || len(doc.HREFLinks) == 0 {
			t.Fatalf("%s: parsed %#v", name, doc)
		}
		if n := testing.AllocsPerRun(50, func() { p.Parse(src) }); n != 0 {
			t.Errorf("%s: a warm Parser allocates %.0f times a page, want 0", name, n)
		}
	}
}

// TestOversizedParserIsNotPooled: a parser that a huge page grew past
// maxPooledBytes — in its text or in its link array — is dropped by
// Parse instead of pinning that storage in the pool; an ordinary one is
// kept. Either way Reset leaves nothing of the page reachable.
func TestOversizedParserIsNotPooled(t *testing.T) {
	for _, tc := range []struct {
		name, src string
		keep      bool
	}{
		{"ordinary", samplePage, true},
		{"text", "<p>" + strings.Repeat("x ", maxPooledBytes/2+1) + "</p>", false},
		{"links", strings.Repeat("<a href=x>", maxPooledBytes/int(unsafe.Sizeof(""))+1), false},
	} {
		var p Parser
		p.Parse(tc.src)
		if keep := p.Reset(); keep != tc.keep {
			t.Errorf("%s page: Reset reports keep = %v, want %v", tc.name, keep, tc.keep)
		}
		if len(p.text) != 0 || len(p.title) != 0 || len(p.href) != 0 || len(p.res) != 0 || len(p.iframe) != 0 {
			t.Errorf("%s page: Reset left the page in the parser", tc.name)
		}
		for _, l := range [][]string{p.href[:cap(p.href)], p.res[:cap(p.res)], p.iframe[:cap(p.iframe)]} {
			for _, v := range l {
				if v != "" {
					t.Fatalf("%s page: Reset left the link %q reachable", tc.name, v)
				}
			}
		}
	}
}

func FuzzParseMatchesReference(f *testing.F) {
	for _, s := range parseSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		checkParse(t, src)
	})
}
