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

// decode reads the request body — at most MaxBodyBytes of it — into a
// pooled buffer and parses it into v, replying with 413 when the body
// is over the limit and with 400 when it is not one well-formed JSON
// document of v's shape. The body is read before it is parsed, so an
// oversized body is a 413 whatever its bytes are.
//
// A single-page score document's html may be a view of the buffer
// (decodeDoc), so a PageRequest or V2ScoreRequest keeps it, and the
// handler's release gives it back once the response is written. Any
// other v owns what it holds, and the buffer is back in the pool
// already.
func (s *Server) decode(w http.ResponseWriter, r *http.Request, v any) bool {
	buf := getBuf()
	if n := r.ContentLength; n > 0 && n <= s.cfg.MaxBodyBytes {
		// ReadFrom wants MinRead spare bytes to see EOF without growing.
		buf.Grow(int(n) + bytes.MinRead)
	}
	_, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
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
			fmt.Errorf("request body exceeds %d bytes", s.cfg.MaxBodyBytes))
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
// allocated once, at its unescaped length.
func scanScoreDoc(b []byte, page *PageRequest, opts *ScoreOptions) bool {
	// Decoded into copies, stored once the whole document has passed.
	s := docScanner{b: b, options: opts != nil}
	p, o := *page, ScoreOptions{}
	if s.options {
		o = *opts
	}
	var html []byte // as written, until the document has passed
	if !s.take('{') {
		return false
	}
	for more := !s.take('}'); more; {
		key, _, ok := s.rawString()
		if !ok || !s.take(':') {
			return false
		}
		switch string(key) {
		case "html":
			ok = s.once(0) && s.raw(&html)
		case "starting_url":
			ok = s.once(1) && s.string(&p.StartingURL)
		case "landing_url":
			ok = s.once(2) && s.string(&p.LandingURL)
		case "redirection_chain":
			ok = s.once(3) && s.strings(&p.RedirectionChain)
		case "explain":
			ok = s.option(4) && s.string(&o.Explain)
		case "cache_control":
			ok = s.option(5) && s.string(&o.CacheControl)
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
	if s.seen&(1<<0) != 0 { // the html key was met
		p.HTML = view(unescape(html[:0], html))
	}
	*page = p
	if s.options {
		*opts = o
	}
	return true
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
// quotes and the length they unescape to. It refuses a control
// character, invalid UTF-8, a malformed escape and a \u escape of a
// surrogate half (which encoding/json pairs up or replaces).
func (s *docScanner) rawString() (raw []byte, n int, ok bool) {
	if !s.take('"') {
		return nil, 0, false
	}
	b := s.b
	for i := s.i; i < len(b); {
		switch c := b[i]; {
		case c >= ' ' && c != '"' && c != '\\' && c < utf8.RuneSelf:
			n++
			i++
		case c == '"':
			raw, s.i = b[s.i:i], i+1
			return raw, n, true
		case c == '\\' && i+1 < len(b) && b[i+1] == 'u':
			r := hex4(b[i+2:])
			if r < 0 || (r >= 0xD800 && r < 0xE000) {
				return nil, 0, false
			}
			n += utf8.RuneLen(r)
			i += 6
		case c == '\\' && i+1 < len(b) && strings.IndexByte(escapeChars, b[i+1]) >= 0:
			n++
			i += 2
		case c >= utf8.RuneSelf:
			r, size := utf8.DecodeRune(b[i:])
			if r == utf8.RuneError && size == 1 {
				return nil, 0, false
			}
			n += size
			i += size
		default:
			return nil, 0, false
		}
	}
	return nil, 0, false
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

// unquote returns the value of a string rawString accepted, in one
// allocation of n bytes.
func unquote(raw []byte, n int) string {
	if n == len(raw) {
		return string(raw) // no escapes: an escape is longer than its value
	}
	// The new bytes are the string's alone, and never written again.
	return view(unescape(make([]byte, 0, n), raw))
}

func (s *docScanner) string(dst *string) bool {
	raw, n, ok := s.rawString()
	if ok {
		*dst = unquote(raw, n)
	}
	return ok
}

// raw consumes a string and leaves its bytes, escapes and all, in dst.
func (s *docScanner) raw(dst *[]byte) bool {
	raw, _, ok := s.rawString()
	*dst = raw
	return ok
}

// strings consumes an array of strings. It walks the array twice: once
// to validate and count, so that the slice is allocated at its exact
// size (and is non-nil even when empty, as encoding/json leaves it).
func (s *docScanner) strings(dst *[]string) bool {
	if !s.take('[') {
		return false
	}
	first, count := s.i, 0
	for more := !s.take(']'); more; count++ {
		if _, _, ok := s.rawString(); !ok {
			return false
		}
		if more = s.take(','); !more && !s.take(']') {
			return false
		}
	}
	end := s.i
	list := make([]string, count)
	s.i = first
	for k := range list {
		s.string(&list[k])
		s.take(',')
	}
	*dst, s.i = list, end
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
