package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"unicode/utf8"
	"unsafe"
)

// bufPool recycles the buffers request bodies are read into and
// responses are encoded into. Reading the whole body first means the
// decoder works on bytes already in hand instead of regrowing a buffer
// of its own per request; marshaling into a buffer first (instead of
// streaming into the ResponseWriter) reuses the encoder's working
// memory and lets the response carry a Content-Length.
var bufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// maxPooledBuf caps the buffer capacity returned to bufPool: one giant
// request body or batch response must not pin megabytes in the pool
// forever.
const maxPooledBuf = 1 << 20

func getBuf() *bytes.Buffer {
	buf := bufPool.Get().(*bytes.Buffer)
	buf.Reset()
	return buf
}

// putBuf returns buf to the pool unless it grew past maxPooledBuf; it
// reports whether the buffer was kept.
func putBuf(buf *bytes.Buffer) bool {
	if buf.Cap() > maxPooledBuf {
		return false
	}
	bufPool.Put(buf)
	return true
}

// decode reads the request body — at most DefaultMaxBodyBytes of it —
// into a pooled buffer and parses it into v, replying with 413 when the
// body is over the limit and with 400 when it is not one well-formed
// JSON document of v's shape. The body is read before it is parsed, so an
// oversized body is a 413 whatever its bytes are; one that declares so
// is refused unread. net/http ends a body at its declared length, so
// only a chunked body is read through http.MaxBytesReader.
//
// A single-page score document's html may be a view of the buffer
// (decodeDoc), so a PageRequest or V2ScoreRequest keeps it, and the
// handler's release gives it back once the response is written. Any
// other v owns what it holds, and the buffer is back in the pool
// already.
func (s *Server) decode(w http.ResponseWriter, r *http.Request, v any) bool {
	buf := getBuf()
	var err error
	switch n := r.ContentLength; {
	case n > DefaultMaxBodyBytes:
		err = &http.MaxBytesError{Limit: DefaultMaxBodyBytes}
	case n < 0:
		_, err = buf.ReadFrom(http.MaxBytesReader(w, r.Body, DefaultMaxBodyBytes))
	default:
		// ReadFrom wants MinRead spare bytes to see EOF without growing.
		buf.Grow(int(n) + bytes.MinRead)
		_, err = buf.ReadFrom(r.Body)
	}
	if err == nil {
		err = decodeDoc(buf.Bytes(), v)
	}
	if err == nil {
		switch req := v.(type) {
		case *PageRequest:
			req.body = buf
		case *V2ScoreRequest:
			req.body = buf
		default:
			putBuf(buf)
		}
		return true
	}
	defer putBuf(buf)
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		s.fail(w, http.StatusRequestEntityTooLarge,
			fmt.Errorf("request body exceeds %d bytes", DefaultMaxBodyBytes))
		return false
	}
	s.fail(w, http.StatusBadRequest, fmt.Errorf("decoding request: %w", err))
	return false
}

// errTrailingData rejects a body or stream line holding more than one
// JSON document: a garbled or concatenated request that would otherwise
// be silently truncated.
var errTrailingData = errors.New("trailing data after JSON document")

// decodeDoc parses b, one JSON document and nothing after it, into v;
// it is the request-document decoder of every endpoint and of each
// /v2/score/stream line. Unknown fields are errors.
//
// Single-page score documents in canonical form are decoded by
// scanScoreDoc; everything else, every malformed document included,
// goes through encoding/json, so all error texts are encoding/json's.
// Every score document json.Marshal writes is canonical
// (TestMarshalledRequestsTakeFastPath), so only hand-written or
// malformed documents reach the fallback. The strings stored in v never
// alias b, with one exception: the html of a document scanScoreDoc took
// is unescaped in place in b and is a view of it, valid only while the
// caller neither reuses nor rewrites b.
func decodeDoc(b []byte, v any) error {
	switch req := v.(type) {
	case *V2ScoreRequest:
		if scanScoreDoc(b, &req.PageRequest, &req.ScoreOptions) {
			return nil
		}
	case *PageRequest:
		if scanScoreDoc(b, req, nil) {
			return nil
		}
	}
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if err := dec.Decode(new(json.RawMessage)); err != io.EOF {
		return errTrailingData
	}
	return nil
}

// scanScoreDoc decodes b into page and opts if and only if b is a score
// document in canonical form, and reports whether it did. Canonical
// means: one object and only whitespace after it; keys exactly as the
// struct tags spell them, without escapes, each at most once (option
// keys only when opts is non-nil); html, starting_url, landing_url,
// explain and cache_control strings, redirection_chain an array of
// strings, skip_target a boolean, deadline_ms and top_features integers
// without fraction or exponent; strings valid UTF-8 with well-formed
// escapes and no surrogate escapes. For such a document the result is
// what encoding/json stores. For anything else — snapshot, null, a key
// in another case, malformed JSON — neither page, opts nor b is written
// and the caller falls back to encoding/json, which decides what the
// input means.
//
// The html is not copied: once the whole document has passed, it is
// unescaped in place, in b — an escape is never shorter than its value
// — and page.HTML is a view of those bytes. Every other string is
// decoded into one allocation they share (own).
func scanScoreDoc(b []byte, page *PageRequest, opts *ScoreOptions) bool {
	// Kept as written, stored once the whole document has passed.
	s := docScanner{b: b, options: opts != nil}
	o := ScoreOptions{}
	if s.options {
		o = *opts
	}
	var html []byte
	var strs [4][]byte       // starting_url, landing_url, explain, cache_control
	chain, chainLen := 0, -1 // where the chain's entries start, how many (-1: none)
	if !s.take('{') {
		return false
	}
	for more := !s.take('}'); more; {
		key, ok := s.rawString()
		if !ok || !s.take(':') {
			return false
		}
		switch string(key) {
		case "html":
			ok = s.once(0) && s.raw(&html)
		case "starting_url":
			ok = s.once(1) && s.raw(&strs[0])
		case "landing_url":
			ok = s.once(2) && s.raw(&strs[1])
		case "redirection_chain":
			ok = s.once(3) && s.strings(&chain, &chainLen)
		case "explain":
			ok = s.option(4) && s.raw(&strs[2])
		case "cache_control":
			ok = s.option(5) && s.raw(&strs[3])
		case "skip_target":
			ok = s.option(6) && s.bool(&o.SkipTarget)
		case "deadline_ms":
			ok = s.option(7) && s.int(&o.DeadlineMS)
		case "top_features":
			var n int64
			ok = s.option(8) && s.int(&n) && int64(int(n)) == n
			o.TopFeatures = int(n)
		default:
			ok = false
		}
		if !ok {
			return false
		}
		// Whatever follows a value must be a separator, so "truex",
		// "1.5" and "1e3" end here.
		if more = s.take(','); !more && !s.take('}') {
			return false
		}
	}
	if s.space(); s.i != len(b) {
		return false
	}
	s.own(strs, [4]*string{&page.StartingURL, &page.LandingURL, &o.Explain, &o.CacheControl}, &page.RedirectionChain, chain, chainLen)
	if s.seen&(1<<0) != 0 {
		page.HTML = view(unescape(html[:0], html))
	}
	if s.options {
		*opts = o
	}
	return true
}

// own stores a passed document's strings: into dst[k] the value of
// raws[k] (nil: absent), into *chain — never nil, its array refilled
// when large enough, as encoding/json does — the n entries at offset at
// (n < 0: absent). The values share one allocation of their own, and a
// string written exactly as an earlier one is that one's string.
func (s *docScanner) own(raws [4][]byte, dst [4]*string, chain *[]string, at, n int) {
	// first returns the first of raws[:k] written as raw, -1 if none is.
	first := func(raw []byte, k int) int {
		for j, r := range raws[:k] {
			if r != nil && bytes.Equal(r, raw) {
				return j
			}
		}
		return -1
	}
	size := 0 // values are never longer than the bytes as written
	for k, raw := range raws {
		if first(raw, k) < 0 {
			size += len(raw)
		}
	}
	s.i = at
	for range max(n, 0) {
		if raw, _ := s.rawString(); first(raw, len(raws)) < 0 {
			size += len(raw)
		}
		s.take(',')
	}
	own := make([]byte, 0, size)
	value := func(raw []byte, k int) string {
		if j := first(raw, k); j >= 0 {
			return *dst[j]
		}
		from := len(own)
		own = unescape(own, raw) // within capacity: no value moves
		return view(own[from:])
	}
	for k, raw := range raws {
		if raw != nil {
			*dst[k] = value(raw, k)
		}
	}
	if n < 0 {
		return
	}
	list := (*chain)[:0]
	if list == nil || cap(list) < n {
		list = make([]string, 0, n)
	}
	s.i = at
	for range n {
		raw, _ := s.rawString()
		list = append(list, value(raw, len(raws)))
		s.take(',')
	}
	*chain = list
}

// docScanner is a cursor over a document. Its methods consume what
// they name, after any whitespace, and report false — wherever that
// leaves the cursor — for anything that is not canonical.
type docScanner struct {
	b       []byte
	i       int
	seen    uint // one bit per key already met
	options bool // whether the option keys belong to the document
}

func (s *docScanner) space() {
	for s.i < len(s.b) && (s.b[s.i] == ' ' || s.b[s.i] == '\n' || s.b[s.i] == '\t' || s.b[s.i] == '\r') {
		s.i++
	}
}

func (s *docScanner) take(c byte) bool {
	s.space()
	if s.i == len(s.b) || s.b[s.i] != c {
		return false
	}
	s.i++
	return true
}

// once reports whether key k is met for the first time.
func (s *docScanner) once(k uint) bool {
	first := s.seen&(1<<k) == 0
	s.seen |= 1 << k
	return first
}

func (s *docScanner) option(k uint) bool { return s.options && s.once(k) }

// rawString consumes a JSON string and returns the bytes between its
// quotes. It refuses a control character, invalid UTF-8, a malformed
// escape and a \u escape of a surrogate half (which encoding/json pairs
// up or replaces).
func (s *docScanner) rawString() (raw []byte, ok bool) {
	if !s.take('"') {
		return nil, false
	}
	b := s.b
	for i := s.i; i < len(b); {
		switch c := b[i]; {
		case c >= ' ' && c != '"' && c != '\\' && c < utf8.RuneSelf:
			i++
		case c == '"':
			raw, s.i = b[s.i:i], i+1
			return raw, true
		case c == '\\' && i+1 < len(b) && b[i+1] == 'u':
			if r := hex4(b[i+2:]); r < 0 || (r >= 0xD800 && r < 0xE000) {
				return nil, false
			}
			i += 6
		case c == '\\' && i+1 < len(b) && strings.IndexByte(escapeChars, b[i+1]) >= 0:
			i += 2
		case c >= utf8.RuneSelf:
			r, size := utf8.DecodeRune(b[i:])
			if r == utf8.RuneError && size == 1 {
				return nil, false
			}
			i += size
		default:
			return nil, false
		}
	}
	return nil, false
}

// escapeChars[k] after a backslash stands for escapeValues[k].
const escapeChars, escapeValues = `"\/bfnrt`, "\"\\/\b\f\n\r\t"

// hex4 decodes the four hex digits b starts with, -1 if it does not.
func hex4(b []byte) rune {
	if len(b) < 4 {
		return -1
	}
	var r rune
	for _, c := range b[:4] {
		switch {
		case c >= '0' && c <= '9':
			c -= '0'
		case c|0x20 >= 'a' && c|0x20 <= 'f':
			c = (c | 0x20) - 'a' + 10
		default:
			return -1
		}
		r = r<<4 | rune(c)
	}
	return r
}

// unescape appends the value of a string rawString accepted to dst and
// returns the result. dst may be raw[:0]: an escape is never shorter
// than its value, so writing never overtakes reading.
func unescape(dst, raw []byte) []byte {
	for {
		esc := bytes.IndexByte(raw, '\\')
		if esc < 0 {
			return append(dst, raw...)
		}
		dst = append(dst, raw[:esc]...)
		if c := raw[esc+1]; c == 'u' {
			dst = utf8.AppendRune(dst, hex4(raw[esc+2:]))
			raw = raw[esc+6:]
		} else {
			dst = append(dst, escapeValues[strings.IndexByte(escapeChars, c)])
			raw = raw[esc+2:]
		}
	}
}

// view returns b as a string without copying it. The string is only as
// constant as b: nothing may write b while the string is in use.
func view(b []byte) string { return unsafe.String(unsafe.SliceData(b), len(b)) }

// raw consumes a string and leaves its bytes, escapes and all, in dst.
func (s *docScanner) raw(dst *[]byte) (ok bool) {
	*dst, ok = s.rawString()
	return ok
}

// strings consumes an array of strings and reports the offset of its
// first entry and how many it holds, for own to decode.
func (s *docScanner) strings(at, n *int) bool {
	if !s.take('[') {
		return false
	}
	*at, *n = s.i, 0
	for more := !s.take(']'); more; *n++ {
		if _, ok := s.rawString(); !ok {
			return false
		}
		if more = s.take(','); !more && !s.take(']') {
			return false
		}
	}
	return true
}

func (s *docScanner) bool(dst *bool) bool {
	s.space()
	switch rest := s.b[s.i:]; {
	case bytes.HasPrefix(rest, []byte("true")):
		*dst, s.i = true, s.i+len("true")
	case bytes.HasPrefix(rest, []byte("false")):
		*dst, s.i = false, s.i+len("false")
	default:
		return false
	}
	return true
}

// int consumes a JSON integer: an optional minus, then "0" or digits
// without a leading zero — at most 18, so that it fits int64.
func (s *docScanner) int(dst *int64) bool {
	s.space()
	b, i := s.b, s.i
	neg := i < len(b) && b[i] == '-'
	if neg {
		i++
	}
	first, v := i, int64(0)
	for ; i < len(b) && b[i] >= '0' && b[i] <= '9'; i++ {
		v = v*10 + int64(b[i]-'0')
	}
	if digits := i - first; digits == 0 || digits > 18 || (digits > 1 && b[first] == '0') {
		return false
	}
	if neg {
		v = -v
	}
	*dst, s.i = v, i
	return true
}
