// Package htmlx is a small, dependency-free HTML scanner that extracts
// exactly the elements the paper's data sources need (Section II-C):
// title, rendered body text, outgoing HREF links, embedded-resource URLs
// ("logged links" sources), copyright notice, and counts of input fields,
// images and iframes.
//
// It is a tolerant tokenizer, not a conforming DOM parser: phishing pages
// are frequently malformed, and all downstream consumers only need
// term-level content, so recovering gracefully matters more than tree
// fidelity.
//
// Parse is one pass over the source with pooled working memory. A tag's
// attributes are recorded, as written, in one small slice reused from
// tag to tag; the four names Parse reads (href, src, action, type) are
// looked up case-folded from the back, so the last duplicate wins as it
// would in a map, and no per-tag map exists. Text and title accumulate
// in the parser's byte buffers and are entity-decoded and whitespace-
// collapsed in place.
//
// Page lifetime. A Parser's Parse leaves the elements where the scan
// built them: the Document's Title, Text and Copyright are views of the
// parser's buffers, and its link lists are the parser's own arrays,
// holding substrings of the source. Such a Document lives as long as
// the parse — until the parser parses again or is Reset — and no longer
// than the source; whoever keeps a part of it past that copies the
// part. Its holder may rewrite the link lists in place
// (webpage.FromDoc resolves links there). The package-level Parse is
// that parse plus one copy-out into storage of the Document's own: its
// title and text once each, and its three link lists as parts of one
// array. Such a Document may reference the source (link values are
// substrings of it) and its own Text (Copyright is part of it), never
// a parser's buffers.
package htmlx

import (
	"bytes"
	"strings"
	"sync"
	"unicode"
	"unicode/utf8"
	"unsafe"
)

// Document holds the extracted elements of one HTML document.
type Document struct {
	// Title is the text between <title> tags.
	Title string `json:"title"`
	// Text is the rendered text: character data outside of script/style,
	// within (or, for malformed pages, outside) the body.
	Text string `json:"text"`
	// HREFLinks are the values of <a href> attributes, in order.
	HREFLinks []string `json:"href_links,omitempty"`
	// ResourceLinks are URLs of embedded content the browser would load:
	// img/script/iframe/embed/source src, link href, form action.
	ResourceLinks []string `json:"resource_links,omitempty"`
	// Copyright is the copyright notice found in Text, if any.
	Copyright string `json:"copyright,omitempty"`
	// InputCount is the number of <input> and <textarea> elements.
	InputCount int `json:"input_count"`
	// ImageCount is the number of <img> elements.
	ImageCount int `json:"image_count"`
	// IFrameCount is the number of <iframe> elements.
	IFrameCount int `json:"iframe_count"`
	// IFrameSrcs are the src URLs of iframes (subset of ResourceLinks),
	// kept separately because the paper folds iframe content into the
	// page's own sources.
	IFrameSrcs []string `json:"iframe_srcs,omitempty"`
}

// lowerTag appends the lower-case form of an ASCII tag name to dst, or
// returns nil for a name longer than any tag Parse acts on.
func lowerTag(dst []byte, name string) []byte {
	if len(name) > cap(dst) {
		return nil
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		dst = append(dst, c)
	}
	return dst
}

// attr is one attribute of the tag being scanned, name as written.
type attr struct{ name, val string }

// Parser is the working memory of a parse, kept from page to page. Its
// zero value is ready to use; a Parser is not safe for concurrent use.
type Parser struct {
	text, title       []byte
	attrs             []attr
	href, res, iframe []string
}

var parserPool = sync.Pool{New: func() any { return new(Parser) }}

// maxPooledBytes bounds the storage a parser may keep for later pages:
// one page of many megabytes must not pin its buffers in a pool that
// serves every later small page.
const maxPooledBytes = 1 << 20

// Reset ends the Document of p's last Parse and empties p. The
// attribute and link scratch hold substrings of the source, which must
// not stay reachable from a kept parser. Reset reports whether p is
// small enough to keep for another page: false when its storage grew
// past maxPooledBytes, and a pooling caller then drops it.
func (p *Parser) Reset() bool {
	p.text, p.title = p.text[:0], p.title[:0]
	clear(p.attrs)
	clear(p.href)
	clear(p.res)
	clear(p.iframe)
	p.href, p.res, p.iframe = p.href[:0], p.res[:0], p.iframe[:0]
	const attrSize, stringSize = int(unsafe.Sizeof(attr{})), int(unsafe.Sizeof(""))
	size := cap(p.text) + cap(p.title) + cap(p.attrs)*attrSize + (cap(p.href)+cap(p.res)+cap(p.iframe))*stringSize
	return size <= maxPooledBytes
}

// Parse scans src and extracts the document elements into storage of
// the Document's own (see the package comment).
func Parse(src string) Document {
	p := parserPool.Get().(*Parser)
	doc := own(p.Parse(src))
	if p.Reset() {
		parserPool.Put(p)
	}
	return doc
}

// own copies doc out of a parser's storage.
func own(doc Document) Document {
	text := strings.Clone(doc.Text)
	if doc.Copyright != "" {
		// Copyright is a part of the collapsed Text (extractCopyright
		// builds a string of its own only for uncollapsed text) that
		// begins with the earliest marker, so its first occurrence is
		// that part.
		at := strings.Index(doc.Text, doc.Copyright)
		doc.Copyright = text[at : at+len(doc.Copyright)]
	}
	doc.Title, doc.Text = strings.Clone(doc.Title), text
	// One array for the three link lists, each capacity-limited to its
	// own part; an empty list stays nil.
	if total := len(doc.HREFLinks) + len(doc.ResourceLinks) + len(doc.IFrameSrcs); total > 0 {
		all := make([]string, 0, total)
		cut := func(l []string) []string {
			if len(l) == 0 {
				return nil
			}
			start := len(all)
			all = append(all, l...)
			return all[start:len(all):len(all)]
		}
		doc.HREFLinks, doc.ResourceLinks, doc.IFrameSrcs = cut(doc.HREFLinks), cut(doc.ResourceLinks), cut(doc.IFrameSrcs)
	}
	return doc
}

// Parse scans src and extracts the document elements, leaving them in
// p: the Document is valid until p's next Parse or Reset, and only as
// long as src (the page lifetime of the package comment). Once p's
// buffers have grown to the page, it allocates nothing.
func (p *Parser) Parse(src string) Document {
	p.Reset()
	var (
		doc     Document
		inTitle bool
		// skipUntil is the closing tag name that ends a skipped element;
		// tagBuf holds the current tag's lower-case name ("noscript" and
		// "textarea" are the longest Parse acts on).
		skipBuf, tagBuf [8]byte
		skipUntil       = skipBuf[:0]
	)
	i := 0
	n := len(src)
	for i < n {
		lt := strings.IndexByte(src[i:], '<')
		if lt < 0 {
			p.chars(src[i:], inTitle, len(skipUntil) > 0)
			break
		}
		p.chars(src[i:i+lt], inTitle, len(skipUntil) > 0)
		i += lt
		name, selfClose, closing, next := p.scanTag(src, i)
		if name == "" {
			// Stray '<': treat as text.
			p.chars("<", inTitle, len(skipUntil) > 0)
			i++
			continue
		}
		i = next
		tag := lowerTag(tagBuf[:0], name)
		if closing {
			switch string(tag) {
			case "title":
				inTitle = false
			case string(skipUntil):
				skipUntil = skipBuf[:0]
			}
			// Closing block elements break words.
			p.text = append(p.text, ' ')
			continue
		}
		if len(skipUntil) > 0 {
			continue
		}
		switch string(tag) {
		case "title":
			if !selfClose {
				inTitle = true
			}
		case "script", "style", "noscript":
			if !selfClose {
				skipUntil = append(skipBuf[:0], tag...)
			}
			if s := p.attr("src"); s != "" {
				p.res = append(p.res, s)
			}
		case "a", "area":
			if href := p.attr("href"); href != "" && !strings.HasPrefix(href, "javascript:") && !strings.HasPrefix(href, "#") {
				p.href = append(p.href, href)
			}
		case "img":
			doc.ImageCount++
			if s := p.attr("src"); s != "" {
				p.res = append(p.res, s)
			}
		case "iframe", "frame":
			doc.IFrameCount++
			if s := p.attr("src"); s != "" {
				p.res = append(p.res, s)
				p.iframe = append(p.iframe, s)
			}
		case "embed", "source", "audio", "video", "track":
			if s := p.attr("src"); s != "" {
				p.res = append(p.res, s)
			}
		case "link":
			if h := p.attr("href"); h != "" {
				p.res = append(p.res, h)
			}
		case "form":
			if a := p.attr("action"); a != "" {
				p.res = append(p.res, a)
			}
		case "input":
			typ := p.attr("type")
			if !lowerEquals(typ, "hidden") && !lowerEquals(typ, "submit") && !lowerEquals(typ, "button") && !lowerEquals(typ, "image") {
				doc.InputCount++
			}
		case "textarea", "select":
			doc.InputCount++
		case "br", "p", "div", "td", "tr", "li", "h1", "h2", "h3", "h4", "h5", "h6":
			p.text = append(p.text, ' ')
		}
	}
	doc.Title = view(collapseSpace(p.title))
	doc.Text = view(collapseSpace(decodeEntities(p.text)))
	doc.Copyright = extractCopyright(doc.Text)
	doc.HREFLinks, doc.ResourceLinks, doc.IFrameSrcs = capped(p.href), capped(p.res), capped(p.iframe)
	return doc
}

// view returns b as a string without copying it: the string reads
// whatever b's bytes hold, so it is only valid while they are not
// rewritten.
func view(b []byte) string { return unsafe.String(unsafe.SliceData(b), len(b)) }

// capped returns l without spare capacity, so that an append to it
// cannot write the parser's array; an empty list is nil.
func capped(l []string) []string {
	if len(l) == 0 {
		return nil
	}
	return l[:len(l):len(l)]
}

// chars appends character data to the title or the text, unless it sits
// inside a skipped element.
func (p *Parser) chars(s string, inTitle, skipping bool) {
	switch {
	case skipping:
	case inTitle:
		p.title = append(p.title, s...)
	default:
		p.text = append(p.text, s...)
	}
}

// attr returns the value of the last attribute of the current tag whose
// lower-cased name is name, or "".
func (p *Parser) attr(name string) string {
	for i := len(p.attrs) - 1; i >= 0; i-- {
		if lowerEquals(p.attrs[i].name, name) {
			return p.attrs[i].val
		}
	}
	return ""
}

// lowerEquals reports strings.ToLower(s) == lower for a lower-case
// lower, without building the lower-cased string.
func lowerEquals(s, lower string) bool { return lowerPrefix(s, lower) == len(s) }

// lowerPrefix returns how many bytes at the start of s spell lower
// (itself lower case) once lower-cased rune by rune, or -1 when s does
// not begin with it.
func lowerPrefix(s, lower string) int {
	n := 0
	for _, want := range lower {
		c, size := utf8.DecodeRuneInString(s[n:])
		if size == 0 || unicode.ToLower(c) != want {
			return -1
		}
		n += size
	}
	return n
}

// scanTag parses the tag beginning at src[i] == '<' and records its
// attributes in p.attrs. It returns the tag name as written ("" for a
// stray '<', "!" for comments and declarations), whether the tag is
// self-closing, whether it is a closing tag, and the index just past
// the '>'.
func (p *Parser) scanTag(src string, i int) (name string, selfClose, closing bool, next int) {
	clear(p.attrs)
	p.attrs = p.attrs[:0]
	n := len(src)
	j := i + 1
	if j >= n {
		return "", false, false, i + 1
	}
	if src[j] == '!' || src[j] == '?' {
		// Comment, doctype or processing instruction: skip to '>'
		// (handling <!-- --> comments properly).
		if strings.HasPrefix(src[j:], "!--") {
			if end := strings.Index(src[j+3:], "-->"); end >= 0 {
				return "!", true, false, j + 3 + end + 3
			}
			return "!", true, false, n
		}
		if end := strings.IndexByte(src[j:], '>'); end >= 0 {
			return "!", true, false, j + end + 1
		}
		return "!", true, false, n
	}
	if src[j] == '/' {
		closing = true
		j++
	}
	start := j
	for j < n && isNameChar(src[j]) {
		j++
	}
	if j == start {
		return "", false, false, i + 1
	}
	name = src[start:j]
	// Scan attributes until '>'.
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
		a := attr{name: src[aStart:j]}
		// Skip whitespace before '='.
		for j < n && (src[j] == ' ' || src[j] == '\t') {
			j++
		}
		if j < n && src[j] == '=' {
			j++
			for j < n && (src[j] == ' ' || src[j] == '\t') {
				j++
			}
			if j < n && (src[j] == '"' || src[j] == '\'') {
				quote := src[j]
				j++
				vStart := j
				for j < n && src[j] != quote {
					j++
				}
				a.val = src[vStart:j]
				if j < n {
					j++
				}
			} else {
				vStart := j
				for j < n && src[j] != ' ' && src[j] != '\t' && src[j] != '\n' && src[j] != '\r' && src[j] != '>' {
					j++
				}
				a.val = src[vStart:j]
			}
		}
		if a.name != "" {
			p.attrs = append(p.attrs, a)
		}
	}
	if j < n && src[j] == '>' {
		j++
	}
	if j > i+1 && j-2 >= 0 && j-2 < n && src[j-2] == '/' {
		selfClose = true
	}
	return name, selfClose, closing, j
}

func isNameChar(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' || c == '-' || c == '_' || c == ':'
}

// entities are the character references Parse decodes, name → text.
// Every replacement is shorter than its "&name;".
var entities = [...][2]string{
	{"amp", "&"}, {"lt", "<"}, {"gt", ">"}, {"quot", `"`}, {"apos", "'"}, {"nbsp", " "},
	{"copy", "©"}, {"#169", "©"}, {"reg", "®"}, {"eacute", "é"}, {"egrave", "è"}, {"agrave", "à"},
	{"ccedil", "ç"}, {"uuml", "ü"}, {"ouml", "ö"}, {"auml", "ä"}, {"ntilde", "ñ"},
}

// maxEntityName is the longest name in entities.
const maxEntityName = len("eacute")

// decodeEntities replaces the references of entities in place, left to
// right without rescanning ("&amp;lt;" becomes "&lt;"); the write
// position never passes the read position.
func decodeEntities(b []byte) []byte {
	r := bytes.IndexByte(b, '&')
	if r < 0 {
		return b
	}
	w := r
scan:
	for r < len(b) {
		if b[r] == '&' {
			window := b[r+1 : min(len(b), r+maxEntityName+2)]
			if semi := bytes.IndexByte(window, ';'); semi > 0 {
				for _, e := range entities {
					if string(window[:semi]) == e[0] {
						w += copy(b[w:], e[1])
						r += semi + 2
						continue scan
					}
				}
			}
		}
		b[w] = b[r]
		w++
		r++
	}
	return b[:w]
}

// collapseSpace rewrites b in place as strings.Join(strings.Fields(b),
// " "): runs of unicode.IsSpace runes become one space, leading and
// trailing ones vanish, and bytes that are not valid UTF-8 are kept as
// they are. A run of ASCII bytes that are not spaces moves with one
// copy; only bytes from 0x80 up are decoded as runes.
func collapseSpace(b []byte) []byte {
	w := 0
	pending := false // a space is owed before the next field byte
	for r := 0; r < len(b); {
		end := r
		if c := b[r]; c < utf8.RuneSelf {
			if asciiSpace[c] {
				pending = w > 0
				r++
				continue
			}
			end++
			for end < len(b) && b[end] < utf8.RuneSelf && !asciiSpace[b[end]] {
				end++
			}
		} else {
			c, size := utf8.DecodeRune(b[r:])
			end += size
			if unicode.IsSpace(c) {
				pending = w > 0
				r = end
				continue
			}
		}
		if pending {
			b[w] = ' '
			w++
			pending = false
		}
		w += copy(b[w:], b[r:end])
		r = end
	}
	return b[:w]
}

// asciiSpace marks the ASCII bytes unicode.IsSpace accepts.
var asciiSpace = [utf8.RuneSelf]bool{'\t': true, '\n': true, '\v': true, '\f': true, '\r': true, ' ': true}

// extractCopyright returns the sentence-ish span around a copyright marker
// (©, "copyright", "(c)") in text, or "" when none is present. The paper
// uses the copyright notice as one of the five keyterm sources for target
// identification.
//
// The earliest marker is found on text itself, comparing rune by rune
// under unicode.ToLower: lower-casing a copy changes byte lengths (Ⱥ
// grows, İ and the Kelvin sign shrink), so an offset into the copy does
// not index the original.
func extractCopyright(text string) string {
	idx := findCopyrightMarker(text)
	if idx < 0 {
		return ""
	}
	// Take up to 12 whitespace-separated tokens starting at the marker,
	// trimmed at a sentence boundary if one appears after the first.
	span := text[idx:]
	end := 0
	for rest, n := span, 0; n < 12 && rest != ""; n++ {
		field := rest
		if stop := strings.IndexFunc(rest, unicode.IsSpace); stop >= 0 {
			field = rest[:stop]
		}
		end = len(span) - len(rest) + len(field)
		if n > 0 && strings.HasSuffix(field, ".") {
			break
		}
		rest = strings.TrimLeftFunc(rest[len(field):], unicode.IsSpace)
	}
	notice := span[:end]
	// Parse hands in collapsed text, where the tokens are already joined
	// by single spaces and the notice is a substring.
	if !strings.Contains(notice, "  ") && strings.IndexFunc(notice, func(r rune) bool { return r != ' ' && unicode.IsSpace(r) }) < 0 {
		return notice
	}
	return strings.Join(strings.Fields(notice), " ")
}

// findCopyrightMarker returns the offset of the earliest "©",
// "copyright" or "(c)" in text, any case, or -1. A marker can only
// begin at one of four bytes — no other rune lower-cases to 'c', '(' or
// '©' — so the scan is bytewise and the rune-wise comparison runs only
// behind those.
func findCopyrightMarker(text string) int {
	for i := 0; i < len(text); i++ {
		switch text[i] {
		case 'c', 'C':
			if lowerPrefix(text[i+1:], "opyright") >= 0 {
				return i
			}
		case '(':
			if lowerPrefix(text[i+1:], "c)") >= 0 {
				return i
			}
		case "©"[0]:
			if strings.HasPrefix(text[i:], "©") {
				return i
			}
		}
	}
	return -1
}
