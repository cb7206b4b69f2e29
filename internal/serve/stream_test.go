package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"knowphish/internal/coalesce"
)

// streamBody builds an NDJSON request body of n distinct raw-HTML pages.
func streamBody(n int) *bytes.Buffer {
	var buf bytes.Buffer
	for i := 0; i < n; i++ {
		line, _ := json.Marshal(V2ScoreRequest{PageRequest: PageRequest{
			HTML:       fmt.Sprintf(`<title>Site %d</title><body>welcome to page %d <a href="http://peer%d.test/">peer</a></body>`, i, i, i),
			LandingURL: fmt.Sprintf("http://site%d.test/page", i),
		}})
		buf.Write(line)
		buf.WriteByte('\n')
	}
	return &buf
}

func TestScoreStreamDeliversEveryItem(t *testing.T) {
	s := newServer(t, nil)
	const n = 12
	req := httptest.NewRequest(http.MethodPost, "/v2/score/stream", streamBody(n))
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", rec.Code, rec.Body.String())
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("content type %q", ct)
	}
	seen := map[int]bool{}
	sc := bufio.NewScanner(rec.Body)
	for sc.Scan() {
		var res V2StreamResult
		if err := json.Unmarshal(sc.Bytes(), &res); err != nil {
			t.Fatalf("bad result line %q: %v", sc.Text(), err)
		}
		if res.Error != "" {
			t.Fatalf("item %d failed: %s", res.Index, res.Error)
		}
		if seen[res.Index] {
			t.Fatalf("item %d delivered twice", res.Index)
		}
		seen[res.Index] = true
		if res.V2ScoreResponse == nil || res.Score < 0 || res.Score > 1 || res.Label == "" {
			t.Fatalf("malformed verdict line: %+v", res)
		}
		if res.LandingURL != fmt.Sprintf("http://site%d.test/page", res.Index) {
			t.Fatalf("item %d carries landing url %q", res.Index, res.LandingURL)
		}
	}
	if len(seen) != n {
		t.Fatalf("stream delivered %d of %d items", len(seen), n)
	}
	if m := s.Metrics(); m.StreamedItems != n {
		t.Errorf("streamed_items = %d, want %d", m.StreamedItems, n)
	}
}

func TestScoreStreamPerItemErrors(t *testing.T) {
	s := newServer(t, nil)
	body := strings.NewReader(
		`{"html":"<p>fine</p>","landing_url":"http://ok.test/"}` + "\n" +
			`{"html":` + "\n" + // malformed JSON
			`{"html":"<p>no url</p>"}` + "\n" + // unresolvable page
			`{"html":"<p>also fine</p>","landing_url":"http://ok2.test/","explain":"bogus"}` + "\n") // bad option
	req := httptest.NewRequest(http.MethodPost, "/v2/score/stream", body)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	byIdx := map[int]V2StreamResult{}
	sc := bufio.NewScanner(rec.Body)
	for sc.Scan() {
		var res V2StreamResult
		if err := json.Unmarshal(sc.Bytes(), &res); err != nil {
			t.Fatal(err)
		}
		byIdx[res.Index] = res
	}
	if len(byIdx) != 4 {
		t.Fatalf("got %d result lines, want 4", len(byIdx))
	}
	if byIdx[0].Error != "" || byIdx[0].V2ScoreResponse == nil {
		t.Errorf("good item 0 failed: %+v", byIdx[0])
	}
	for _, i := range []int{1, 2, 3} {
		if byIdx[i].Error == "" {
			t.Errorf("bad item %d produced no error", i)
		}
		if byIdx[i].V2ScoreResponse != nil {
			t.Errorf("bad item %d carries a verdict", i)
		}
	}
}

// TestStreamLineTrailingDataIsItemError: a line is one document, held to
// the rule /v2/score holds a body to. Two concatenated documents and
// some garbage used to answer with a verdict for the first document and
// drop the rest without a word.
func TestStreamLineTrailingDataIsItemError(t *testing.T) {
	s := newServer(t, nil)
	const line = `{"html":"<p>a</p>","landing_url":"http://a.test/"}{"html":"<p>b</p>","landing_url":"http://b.test/"} garbage`

	var single errorResponse
	req := httptest.NewRequest(http.MethodPost, "/v2/score", strings.NewReader(line))
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if err := json.Unmarshal(rec.Body.Bytes(), &single); err != nil {
		t.Fatal(err)
	}
	if rec.Code != http.StatusBadRequest || single.Error != "decoding request: trailing data after JSON document" {
		t.Fatalf("/v2/score: status %d, error %q", rec.Code, single.Error)
	}

	body := line + "\n" + `{"html":"<p>c</p>","landing_url":"http://c.test/"}` + "\n"
	req = httptest.NewRequest(http.MethodPost, "/v2/score/stream", strings.NewReader(body))
	rec = httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", rec.Code, rec.Body.String())
	}
	byIdx := map[int]V2StreamResult{}
	sc := bufio.NewScanner(rec.Body)
	for sc.Scan() {
		var res V2StreamResult
		if err := json.Unmarshal(sc.Bytes(), &res); err != nil {
			t.Fatal(err)
		}
		byIdx[res.Index] = res
	}
	if len(byIdx) != 2 {
		t.Fatalf("got %d result lines, want 2", len(byIdx))
	}
	if got := byIdx[0]; got.Error != "decoding item: trailing data after JSON document" || got.V2ScoreResponse != nil {
		t.Errorf("concatenated line answered %+v, want the trailing-data item error and no verdict", got)
	}
	if got := byIdx[1]; got.Error != "" || got.V2ScoreResponse == nil || got.LandingURL != "http://c.test/" {
		t.Errorf("the line after it answered %+v", got)
	}
}

func TestScoreStreamOverLimitRejected(t *testing.T) {
	s := newServer(t, nil)
	req := httptest.NewRequest(http.MethodPost, "/v2/score/stream", streamBody(DefaultMaxBatch+1))
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("status = %d, want 413", rec.Code)
	}
	if m := s.Metrics(); m.BatchRejected != 1 {
		t.Errorf("batch_rejected = %d, want 1", m.BatchRejected)
	}
	if m := s.Metrics(); m.PagesScored != 0 {
		t.Errorf("rejected stream scored %d pages", m.PagesScored)
	}
}

func TestScoreStreamEmpty(t *testing.T) {
	s := newServer(t, nil)
	req := httptest.NewRequest(http.MethodPost, "/v2/score/stream", strings.NewReader("\n\n"))
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusBadRequest {
		t.Errorf("status = %d, want 400", rec.Code)
	}
}

// TestStreamFlushesThroughInstrumentation pins the transport contract:
// each verdict line must reach the client while the server is still
// scoring later items. This requires the instrumentation wrapper to
// forward Flush to the real writer — a plain interface-embedding
// statusRecorder hides http.Flusher and silently degrades streaming to
// one buffered batch (found by review: flusher was always nil in
// production while httptest recorders masked it).
func TestStreamFlushesThroughInstrumentation(t *testing.T) {
	var rec statusRecorder
	if _, ok := any(&rec).(interface{ Flush() }); !ok {
		t.Fatal("statusRecorder does not forward Flush")
	}

	const n = 200
	s := newServer(t, func(cfg *Config) {
		cfg.Workers = 1
		cfg.Coalescer = coalesce.New(coalesce.Config{MemoEntries: -1})
	})
	ts := httptest.NewServer(s)
	defer ts.Close()
	resp, err := http.Post(ts.URL+"/v2/score/stream", "application/x-ndjson", heavyStreamBody(n))
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	defer resp.Body.Close()
	// The first line (~400 bytes, far under any transport buffer) must
	// arrive while most of the 200 heavy items are still unscored —
	// only an explicit per-item flush delivers it.
	if _, err := bufio.NewReader(resp.Body).ReadBytes('\n'); err != nil {
		t.Fatalf("reading first stream line: %v", err)
	}
	if scored := s.Metrics().PagesScored; scored >= n {
		t.Fatalf("first line arrived only after all %d items were scored (no per-item flush)", scored)
	}
}

// heavyStreamBody builds an NDJSON body of n link-dense pages, each
// costing the pipeline a substantial sub-millisecond analysis — enough
// aggregate work that a disconnect demonstrably lands mid-stream.
func heavyStreamBody(n int) *bytes.Buffer {
	var page strings.Builder
	page.WriteString("<title>Portal</title><body>")
	for j := 0; j < 100; j++ {
		fmt.Fprintf(&page, `<a href="http://peer%d.example/path/%d">partner link %d</a> assorted page words here `, j, j, j)
	}
	page.WriteString("</body>")
	var buf bytes.Buffer
	for i := 0; i < n; i++ {
		line, _ := json.Marshal(V2ScoreRequest{PageRequest: PageRequest{
			HTML:       page.String(),
			LandingURL: fmt.Sprintf("http://heavy%d.test/page", i),
		}})
		buf.Write(line)
		buf.WriteByte('\n')
	}
	return &buf
}

// TestScoreStreamStopsOnClientDisconnect is the satellite end-to-end
// proof: a client that walks away mid-stream stops the server's
// remaining scoring work. A one-worker server receives a long stream
// over a real TCP connection; the client reads one verdict and slams
// the connection shut; the server must abandon most of the stream
// instead of grinding through all of it.
func TestScoreStreamStopsOnClientDisconnect(t *testing.T) {
	const n = 600
	s := newServer(t, func(cfg *Config) {
		cfg.Workers = 1                                                // serialize scoring so the stream takes a while
		cfg.Coalescer = coalesce.New(coalesce.Config{MemoEntries: -1}) // every item is distinct work
	})
	ts := httptest.NewServer(s)
	defer ts.Close()

	resp, err := http.Post(ts.URL+"/v2/score/stream", "application/x-ndjson", heavyStreamBody(n))
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	// Read exactly one result line, then drop the connection.
	br := bufio.NewReader(resp.Body)
	if _, err := br.ReadBytes('\n'); err != nil {
		t.Fatalf("reading first stream line: %v", err)
	}
	resp.Body.Close()

	// The handler notices the dead connection at the next item boundary
	// and stops; wait for the cancellation to be recorded, then for
	// scoring progress to stop.
	deadline := time.Now().Add(10 * time.Second)
	for s.Metrics().Cancelled == 0 {
		if time.Now().After(deadline) {
			t.Fatal("server never recorded the disconnect")
		}
		time.Sleep(5 * time.Millisecond)
	}
	var last int64 = -1
	for {
		m := s.Metrics()
		if m.PagesScored == last {
			break
		}
		last = m.PagesScored
		time.Sleep(50 * time.Millisecond)
		if time.Now().After(deadline) {
			t.Fatal("scoring never settled")
		}
	}
	if scored := s.Metrics().PagesScored; scored >= n {
		t.Fatalf("server scored all %d items after the client disconnected", scored)
	} else {
		t.Logf("scored %d of %d items before the disconnect took effect", scored, n)
	}
}

// TestScoreV2DeadlineExceeded pins the 504 path: a server-wide default
// deadline that is already expired when scoring starts turns every
// scoring request into a bounded-latency failure instead of a full
// pipeline run.
func TestScoreV2DeadlineExceeded(t *testing.T) {
	c, _ := fixtures(t)
	s := newServer(t, func(cfg *Config) { cfg.DefaultDeadline = time.Nanosecond })
	var resp errorResponse
	code := call(t, s, http.MethodPost, "/v2/score",
		V2ScoreRequest{PageRequest: PageRequest{Snapshot: c.PhishTest.Examples[0].Snapshot}}, &resp)
	if code != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504", code)
	}
	if resp.Error == "" {
		t.Error("504 without a JSON error body")
	}
	if m := s.Metrics(); m.PagesScored != 0 {
		t.Errorf("expired deadline still scored %d pages", m.PagesScored)
	}

	// The stream folds the same condition into per-item errors.
	req := httptest.NewRequest(http.MethodPost, "/v2/score/stream", streamBody(3))
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("stream status = %d", rec.Code)
	}
	lines := 0
	sc := bufio.NewScanner(rec.Body)
	for sc.Scan() {
		var res V2StreamResult
		if err := json.Unmarshal(sc.Bytes(), &res); err != nil {
			t.Fatal(err)
		}
		if res.Error == "" {
			t.Errorf("item %d: expected a deadline error line", res.Index)
		}
		lines++
	}
	if lines != 3 {
		t.Errorf("got %d error lines, want 3", lines)
	}
}
