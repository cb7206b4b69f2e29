package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"unsafe"
)

// TestBoundedCtxCancelRule pins when boundedCtx runs nothing: a context
// cancelled before the call returns its cause without running fn,
// whether a worker slot is free or every slot is held (a select between
// a free slot and a done context would pick either, so each case runs
// many times), and a call cancelled while it waits for a slot returns
// once its context is done. Only a call that waits asks its context for
// the done channel, and no slot stays taken by a call that did not run.
func TestBoundedCtxCancelRule(t *testing.T) {
	s := newServer(t, func(c *Config) { c.Workers = 1 })
	cause := errors.New("client gone")
	ctx, cancel := context.WithCancelCause(context.Background())
	cancel(cause)
	for _, held := range []bool{false, true} {
		if held {
			s.scoreSem <- struct{}{}
		}
		for range 200 {
			ran := false
			if err := s.boundedCtx(ctx, prioInteractive, func() { ran = true }); err != cause || ran {
				t.Fatalf("slot held %v: a cancelled call returned %v and ran = %v; want its cause, not run", held, err, ran)
			}
		}
		if held {
			<-s.scoreSem
		}
		if n := len(s.scoreSem); n != 0 {
			t.Fatalf("slot held %v: cancelled calls left %d slots taken", held, n)
		}
	}

	spy := newDoneSpy()
	ran := false
	if err := s.boundedCtx(spy, prioInteractive, func() { ran = true }); err != nil || !ran || len(spy.asked) != 0 {
		t.Fatalf("a live call on a free slot returned %v, ran = %v, asked for the done channel %d times", err, ran, len(spy.asked))
	}
	s.scoreSem <- struct{}{}
	done := make(chan error, 1)
	go func() {
		done <- s.boundedCtx(spy, prioInteractive, func() { t.Error("a call cancelled while waiting ran") })
	}()
	<-spy.asked // the call waits for the held slot
	spy.cancel(cause)
	if err := <-done; err != cause {
		t.Errorf("a call cancelled while waiting returned %v, want its cause", err)
	}
	<-s.scoreSem
}

// doneSpy is a cancellable context that reports each request for its
// done channel on asked.
type doneSpy struct {
	context.Context
	cancel context.CancelCauseFunc
	asked  chan struct{}
}

func newDoneSpy() *doneSpy {
	ctx, cancel := context.WithCancelCause(context.Background())
	return &doneSpy{Context: ctx, cancel: cancel, asked: make(chan struct{}, 1)}
}

func (c *doneSpy) Done() <-chan struct{} {
	select {
	case c.asked <- struct{}{}:
	default:
	}
	return c.Context.Done()
}

// carryReq is one request of carryMix.
type carryReq struct {
	name, path  string
	body        []byte
	ifNoneMatch string
}

// carryAnswer is what a carryReq is answered, timings zeroed.
type carryAnswer struct {
	status     int
	etag, body string
}

// carryMix is a mix of single-page requests, each of which leaves
// something of its own in the pooled call it is served from: evidence,
// a memo hit's lent target result, a partial verdict, a decoded request
// refused with 400, a bare 304, a cold positive's computed target, a
// v1 document, a target result. Every request but the cold ones is a
// memo hit on a server that has scored legit and positive once
// (carryWarm), so its answer does not depend on what ran before it.
func carryMix(t *testing.T, probe *Server) (mix []carryReq, legit, positive []byte) {
	t.Helper()
	legit, positive = scoreBody(t), positiveBody(t, probe, "")
	with := func(body []byte, set func(*V2ScoreRequest)) []byte {
		var req V2ScoreRequest
		if err := json.Unmarshal(body, &req); err != nil {
			t.Fatal(err)
		}
		set(&req)
		b, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	carryWarm(t, probe, legit, positive)
	etag := carryServe(probe, carryReq{path: "/v2/score", body: legit}).etag
	if etag == "" {
		t.Fatal("a /v2/score hit carries no ETag")
	}
	mix = []carryReq{
		{name: "explain top", path: "/v2/score", body: with(legit, func(r *V2ScoreRequest) { r.Explain = "top" })},
		{name: "legitimate hit", path: "/v2/score", body: legit},
		{name: "positive hit", path: "/v2/score", body: positive},
		{name: "skip_target", path: "/v2/score", body: with(positive, func(r *V2ScoreRequest) { r.SkipTarget = true })},
		{name: "bad option", path: "/v2/score", body: with(positive, func(r *V2ScoreRequest) { r.CacheControl = "bogus" })},
		{name: "no url", path: "/v2/score", body: []byte(`{"html":"<p>x</p>","redirection_chain":["http://a.test/"]}`)},
		{name: "revalidation", path: "/v2/score", body: legit, ifNoneMatch: etag},
		{name: "cold positive", path: "/v2/score", body: with(positive, func(r *V2ScoreRequest) { r.CacheControl = "no-memo" })},
		{name: "v1 positive hit", path: "/v1/score", body: positive},
		{name: "v2 target", path: "/v2/target", body: positive},
		{name: "v1 target", path: "/v1/target", body: legit},
	}
	return mix, legit, positive
}

// carryWarm scores both pages once on s, which fills its memo.
func carryWarm(t *testing.T, s *Server, pages ...[]byte) {
	t.Helper()
	for _, body := range pages {
		if a := carryServe(s, carryReq{path: "/v2/score", body: body}); a.status != http.StatusOK {
			t.Fatalf("warming: status %d: %s", a.status, a.body)
		}
	}
}

// carryServe sends req to s and returns its answer with the timings and
// elapsed_us of the document zeroed.
func carryServe(s *Server, req carryReq) carryAnswer {
	r := httptest.NewRequest(http.MethodPost, req.path, bytes.NewReader(req.body))
	if req.ifNoneMatch != "" {
		r.Header.Set("If-None-Match", req.ifNoneMatch)
	}
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, r)
	body := rec.Body.Bytes()
	var doc map[string]json.RawMessage
	if json.Unmarshal(body, &doc) == nil {
		delete(doc, "elapsed_us")
		if _, ok := doc["timings"]; ok {
			doc["timings"] = json.RawMessage(`{}`)
		}
		body, _ = json.Marshal(doc)
	}
	return carryAnswer{rec.Code, rec.Header().Get("ETag"), string(body)}
}

// carryReference answers every request of mix on a server of its own,
// warmed with pages and sent nothing else.
func carryReference(t *testing.T, mix []carryReq, pages ...[]byte) []carryAnswer {
	t.Helper()
	want := make([]carryAnswer, len(mix))
	for i, req := range mix {
		fresh := newServer(t, nil)
		carryWarm(t, fresh, pages...)
		want[i] = carryServe(fresh, req)
	}
	return want
}

// TestPooledCallCarriesNothingOver interleaves carryMix on one server,
// each request after a different one in each round, and holds every
// answer byte-equal to the same request's on a fresh server: nothing a
// request leaves in its pooled call reaches the next one served from it.
func TestPooledCallCarriesNothingOver(t *testing.T) {
	s := newServer(t, nil)
	mix, legit, positive := carryMix(t, s)
	want := carryReference(t, mix, legit, positive)
	for round := range 3 {
		for k := range mix {
			i := (k*(round+1) + round) % len(mix)
			if got := carryServe(s, mix[i]); got != want[i] {
				t.Errorf("round %d, %s: got %d %q %s\nwant %d %q %s", round, mix[i].name,
					got.status, got.etag, got.body, want[i].status, want[i].etag, want[i].body)
			}
		}
	}
}

// TestPooledCallCarriesNothingOverConcurrent is the concurrent form, for
// go test -race: four clients send carryMix, each in its own order, to
// one server.
func TestPooledCallCarriesNothingOverConcurrent(t *testing.T) {
	s := newServer(t, nil)
	mix, legit, positive := carryMix(t, s)
	want := carryReference(t, mix, legit, positive)
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for client := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := range 4 {
				for k := range mix {
					i := (k + client*3 + round) % len(mix)
					if got := carryServe(s, mix[i]); got != want[i] {
						errs <- fmt.Errorf("client %d, %s: got %d %q %s\nwant %d %q %s", client, mix[i].name,
							got.status, got.etag, got.body, want[i].status, want[i].etag, want[i].body)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestScanScoreDocSharesURLs pins how a document's URLs are stored:
// their values in one allocation that is not the body, a chain entry
// written exactly as either URL sharing that URL's string, and the
// chain filled into the array the destination holds.
func TestScanScoreDocSharesURLs(t *testing.T) {
	doc := []byte(`{"starting_url":"http://a.test/","landing_url":"http:\/\/b.test\/","html":"x",` +
		`"redirection_chain":["http://a.test/","http://c.test/","http:\/\/b.test\/","http://b.test/"]}`)
	array := make([]string, 1, 8)
	page := PageRequest{RedirectionChain: array}
	if !scanScoreDoc(doc, &page, nil) {
		t.Fatal("scanner declined a canonical document")
	}
	if want := []string{"http://a.test/", "http://c.test/", "http://b.test/", "http://b.test/"}; page.StartingURL != want[0] ||
		page.LandingURL != want[2] || fmt.Sprint(page.RedirectionChain) != fmt.Sprint(want) {
		t.Fatalf("decoded %q, %q, %q", page.StartingURL, page.LandingURL, page.RedirectionChain)
	}
	if &page.RedirectionChain[0] != &array[0] {
		t.Error("the chain was not filled into the destination's array")
	}
	data := func(s string) uintptr { return uintptr(unsafe.Pointer(unsafe.StringData(s))) }
	chain := page.RedirectionChain
	if data(chain[0]) != data(page.StartingURL) || data(chain[2]) != data(page.LandingURL) {
		t.Error("chain entries written as a URL do not share its string")
	}
	if data(chain[3]) == data(page.LandingURL) {
		t.Error("a chain entry written otherwise than the URL shares its string")
	}
	// One allocation, laid out in decoding order, none of it the body.
	lo, hi := data(page.StartingURL), data(chain[3])+uintptr(len(chain[3]))
	if hi-lo != uintptr(len("http://a.test/http://b.test/http://c.test/http://b.test/")) {
		t.Errorf("the URLs span %d bytes, not one allocation of their values", hi-lo)
	}
	for _, u := range []string{page.StartingURL, page.LandingURL, chain[1], chain[3]} {
		if within(u, doc) {
			t.Errorf("%q is a view of the body", u)
		}
	}
}
