package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// The workload names are fixed: later issues cite them.
const (
	coldPhish  = "cold_phish"
	coldLegit  = "cold_legit"
	warmReplay = "warm_replay"
	feedIngest = "feed_ingest"
)

const (
	// refSeconds is the -seconds budget at which a round has the sizes
	// below. Round sizes, not round durations, are fixed: the same seed
	// then submits the same pages to parent and change, and the
	// per-request and retained-heap metrics repeat.
	refSeconds = 25.0
	// One discarded round grows the heap to the workload's size, which
	// costs it 7 000-60 000 page faults (it ran 25-35 % slow in sizing);
	// five measured rounds follow in memory the process already holds.
	warmupRounds   = 1
	measuredRounds = 5
	// checkEvery-th responses are compared with the reference pipeline.
	checkEvery = 32
	// hotPages fits the 4 096-entry verdict cache and the memo tables.
	hotPages = 512
	// feedBatch URLs go into one POST /v1/feed.
	feedBatch = 64
	// verdictsPage is the page size the feed_ingest reader asks for, once
	// per readEvery URLs persisted.
	verdictsPage = 100
	readEvery    = 16
	// traceInputs of a round are replayed by -trace, at refSeconds.
	traceInputs = 1000
)

// workload is one set of inputs the benchmark runs.
type workload struct {
	name string
	// id separates the workloads' page RNG streams under one -seed.
	id int64
	// size is the operations of one round at refSeconds.
	size int
}

var workloads = []workload{
	// Every request a detector positive with unique content: target +
	// search do ~75 % of the work and no cache can help.
	{coldPhish, 0, 2500},
	// Unique legitimate pages over the six languages: target
	// identification almost never runs; parsing, analysis, features and
	// HTTP+JSON are the work.
	{coldLegit, 1, 12000},
	// A hot set replayed: pipeline stages do nothing; decode, FromHTML,
	// hashing, cache lookups and encode are the work.
	{warmReplay, 2, 40000},
	// The same layers writing beside reading: URLs crawled, scored
	// through the shared coalescer and appended to the on-disk store
	// while a second connection pages the verdicts back.
	{feedIngest, 3, 2500},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// scaled is a reference count at the run's budget, at least 1.
func scaled(ref int, seconds float64) int {
	n := int(float64(ref) * seconds / refSeconds)
	if n < 1 {
		n = 1
	}
	return n
}

// ---------------------------------------------------------------------
// Inputs.

// inputs are what one round submits, all made before its clock starts.
type inputs struct {
	pages []page  // distinct by content hash
	order []int   // operation i submits pages[order[i]]
	fetch siteSet // feed_ingest: the crawl source of every page
}

func (in *inputs) at(i int) page { return in.pages[in.order[i]] }

// roundRNG derives the page RNG of one round from -seed. Nothing else
// in a run is random.
func roundRNG(seed int64, w workload, round int) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + w.id*1009 + int64(round)))
}

// distinct draws until it has n pages no two of which share a content
// hash (brand-page revisits are the usual duplicate). With a crawl
// source it also refuses pages whose site would shadow an earlier URL.
func distinct(n int, fetch siteSet, draw func(i int) (page, bool)) ([]page, error) {
	seen := make(map[[sha256.Size]byte]struct{}, n)
	pages := make([]page, 0, n)
	for i := 0; len(pages) < n; i++ {
		if i > 20*n+1000 {
			return nil, fmt.Errorf("generator yielded %d distinct pages in %d draws, want %d", len(pages), i, n)
		}
		p, ok := draw(i)
		if !ok {
			continue
		}
		if _, dup := seen[p.hash]; dup {
			continue
		}
		if fetch != nil && !fetch.add(p.site) {
			continue
		}
		seen[p.hash] = struct{}{}
		pages = append(pages, p)
	}
	return pages, nil
}

func identity(n int) []int {
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	return order
}

// generate makes one round's inputs: n operations of workload w.
func generate(s *sut, w workload, rng *rand.Rand, n int) (*inputs, error) {
	phish := func(int) (page, bool) { return s.newPage(s.phishSite(rng)) }
	legit := func(i int) (page, bool) { return s.newPage(s.legitSite(rng, i)) }
	in := &inputs{}
	var err error
	switch w.name {
	case coldPhish:
		in.pages, err = distinct(n, nil, phish)
		in.order = identity(n)
	case coldLegit:
		in.pages, err = distinct(n, nil, legit)
		in.order = identity(n)
	case warmReplay:
		// A budget too small to replay 512 pages eight times each
		// shrinks the hot set rather than spend the run filling it.
		hot := hotPages
		if n/8 < hot {
			hot = n/8 + 1
		}
		// Half phish, half legit.
		in.pages, err = distinct(hot, nil, func(i int) (page, bool) {
			if i%2 == 0 {
				return phish(i)
			}
			return legit(i / 2)
		})
		in.order = make([]int, n)
		for i := range in.order {
			in.order[i] = rng.Intn(hot)
		}
	case feedIngest:
		in.fetch = siteSet{}
		// 70 % phish by draw index, not by coin: a phishing URL allocates
		// five times what a legitimate one does, and a drawn share moved
		// alloc_kb_per_req by 1 % from seed to seed.
		in.pages, err = distinct(n, in.fetch, func(i int) (page, bool) {
			if i%10 < 7 {
				return phish(i)
			}
			return legit(i)
		})
		in.order = identity(n)
	default:
		err = fmt.Errorf("unknown workload %q", w.name)
	}
	return in, err
}

// ---------------------------------------------------------------------
// One round.

// round is what one round of a workload measured.
type round struct {
	ops  int           // verdicts completed, or URLs persisted
	wall time.Duration // first request sent to last operation complete
	// lat is client-observed: per /v2/score request, or on feed_ingest
	// per URL from the POST that submitted it to its verdict's scored_at.
	lat []time.Duration
	// readLat times the full /v2/verdicts pages read beside the ingest.
	readLat []time.Duration

	cpu       time.Duration // process user+sys over the round
	allocated uint64        // TotalAlloc delta
	gcCycles  uint32        // NumGC delta
	faults    int64         // minor page faults
	retained  int64         // live heap after the round and a GC, minus before the instance

	attempted, failed int
	breaches          []string // what failed, for the report
	unique            int      // distinct pages by content hash

	ctr, before   counters // the program's counters after / before the clocked part
	queueDepthMax int      // feed_ingest: highest depth a /v1/feed ack reported
}

func (r *round) fail(n int, format string, args ...any) {
	r.failed += n
	if len(r.breaches) < 8 {
		r.breaches = append(r.breaches, fmt.Sprintf(format, args...))
	}
}

// usage is the process-wide resource reading taken around a round.
type usage struct {
	cpu    time.Duration
	alloc  uint64
	gc     uint32
	heap   uint64
	faults int64
}

func readUsage() usage {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	cpu := time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	return usage{cpu: cpu, alloc: ms.TotalAlloc, gc: ms.NumGC, heap: ms.HeapAlloc, faults: ru.Minflt}
}

// liveHeap is the bytes of reachable heap objects. It collects twice:
// what sync.Pools held survives one collection in their victim caches,
// as does an object with a finalizer (2-3 MB after a feed round, a tenth
// of the reading and different every round); the second frees both.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	return readUsage().heap
}

// allocsOf reports the heap objects and bytes f allocates, on a
// goroutine that is alone in the process.
func allocsOf(f func()) (mallocs, bytes uint64) {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	f()
	runtime.ReadMemStats(&b)
	return b.Mallocs - a.Mallocs, b.TotalAlloc - a.TotalAlloc
}

// runner runs rounds against one booted system.
type runner struct {
	s      *sut
	conns  int    // closed-loop callers: min(nproc, 4)
	outDir string // where a feed round's store lives
}

// newClient returns a client holding at most conns keep-alive
// connections, and the function that closes them.
func newClient(conns int) (*http.Client, func()) {
	tr := &http.Transport{MaxIdleConnsPerHost: conns, MaxConnsPerHost: conns}
	return &http.Client{Transport: tr}, tr.CloseIdleConnections
}

// do sends one request and reads the whole reply.
func do(c *http.Client, method, url string, body []byte) (int, []byte, error) {
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	resp, err := c.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// run executes one round of w on a fresh instance (empty caches).
func (rn *runner) run(w workload, in *inputs) (*round, error) {
	var fs *feedSpec
	if w.name == feedIngest {
		fs = &feedSpec{fetcher: in.fetch, queue: len(in.order), dir: rn.outDir}
	}
	// The round's own per-request state is allocated before the first
	// heap reading, so that it is in both readings and what remains is
	// what the program retains, whatever the round's size.
	n := len(in.order)
	r := &round{unique: len(in.pages), lat: make([]time.Duration, 0, n)}
	if fs != nil {
		r.readLat = make([]time.Duration, 0, n/readEvery+1)
	}
	// The heap before the instance exists, inputs already made: what
	// the round's caches retain is read against it.
	heap0 := liveHeap()
	inst, err := rn.s.newInstance(fs)
	if err != nil {
		return nil, err
	}
	defer inst.close()
	client, closeConns := newClient(rn.conns)
	defer closeConns()

	if w.name == warmReplay {
		// One untimed pass fills the caches with the hot set.
		for _, p := range in.pages {
			if code, _, err := do(client, http.MethodPost, inst.url+"/v2/score", p.body); err != nil || code != http.StatusOK {
				return nil, fmt.Errorf("filling the hot set: status %d: %v", code, err)
			}
		}
	}
	r.before = inst.counters()
	runtime.GC()
	u0 := readUsage()
	var replies [][]byte
	var posted map[string]time.Time
	if fs != nil {
		posted = rn.driveFeed(r, inst, client, in)
	} else {
		replies = rn.driveScore(r, inst, client, in)
	}
	u1 := readUsage()
	r.cpu, r.allocated, r.gcCycles, r.faults = u1.cpu-u0.cpu, u1.alloc-u0.alloc, u1.gc-u0.gc, u1.faults-u0.faults
	r.ctr = inst.counters()

	// Output checks, outside the timed path.
	if fs != nil {
		checkFeed(r, inst, client, posted)
	} else {
		rn.checkScore(r, w, in, replies)
	}
	replies, posted = nil, nil
	r.retained = int64(liveHeap()) - int64(heap0)
	// The inputs were live at the first reading and must be at the
	// second, or their size is subtracted from what the program retains.
	runtime.KeepAlive(in)
	return r, nil
}

// driveScore is the closed loop of the HTTP workloads: conns callers,
// each sending its next request when the previous reply has arrived.
// It returns the raw replies (nil where the request failed).
func (rn *runner) driveScore(r *round, inst *instance, client *http.Client, in *inputs) [][]byte {
	n := len(in.order)
	replies := make([][]byte, n)
	codes := make([]int, n)
	r.lat = r.lat[:n]
	var next atomic.Int64
	var wg sync.WaitGroup
	url := inst.url + "/v2/score"
	t0 := time.Now()
	for c := 0; c < rn.conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				ts := time.Now()
				code, body, err := do(client, http.MethodPost, url, in.at(i).body)
				r.lat[i] = time.Since(ts)
				if err == nil {
					codes[i], replies[i] = code, body
				}
			}
		}()
	}
	wg.Wait()
	r.wall = time.Since(t0)
	r.attempted = n
	for i, code := range codes {
		if code == http.StatusOK {
			r.ops++
		} else {
			// A shed 503, an error status or a broken connection.
			r.fail(1, "request %d: status %d", i, code)
			replies[i] = nil
		}
	}
	return replies
}

// Output bounds against webgen ground truth.
const (
	minRecall   = 0.95
	maxFPRate   = 0.02
	minHitRatio = 0.95
)

// checkScore decodes every reply and holds the round to its workload's
// output contract.
func (rn *runner) checkScore(r *round, w workload, in *inputs, replies [][]byte) {
	// Recall is the detector's (detector_phish): every cold_phish request
	// must reach target identification. The false-positive rate is the
	// final label's, after identification has overturned what it can.
	var phishPages, phishCalled, legitPages, legitCalled int
	refs := map[int]verdict{} // by page: a replayed page is scored by the reference once
	for i, body := range replies {
		if body == nil {
			continue
		}
		v, err := decodeVerdict(body)
		if err != nil {
			r.fail(1, "request %d: undecodable reply: %v", i, err)
			continue
		}
		p := in.at(i)
		if p.phish {
			phishPages++
			if v.detPhish {
				phishCalled++
			}
		} else {
			legitPages++
			if v.label == "phishing" {
				legitCalled++
			}
		}
		if i%checkEvery == 0 {
			want, done := refs[in.order[i]]
			var err error
			if !done {
				want, err = rn.s.reference(p)
				refs[in.order[i]] = want
			}
			switch {
			case err != nil:
				r.fail(1, "request %d: reference pipeline: %v", i, err)
			case v.score != want.score || v.label != want.label || v.topTarget != want.topTarget:
				r.fail(1, "request %d: got score %v label %s target %q, reference %v %s %q",
					i, v.score, v.label, v.topTarget, want.score, want.label, want.topTarget)
			}
		}
		if w.name != warmReplay && (v.cached || !v.recomputed) {
			r.fail(1, "request %d: a cold page was served from a cache", i)
		}
	}
	hits := r.ctr.cacheHits - r.before.cacheHits
	misses := r.ctr.cacheMisses - r.before.cacheMisses
	switch w.name {
	case coldPhish:
		if recall := ratio(float64(phishCalled), float64(phishPages)); recall < minRecall {
			r.fail(1, "detector recall %d/%d below %.2f", phishCalled, phishPages, minRecall)
		}
	case coldLegit:
		if fpr := ratio(float64(legitCalled), float64(legitPages)); fpr > maxFPRate {
			r.fail(1, "false positives %d/%d above %.2f", legitCalled, legitPages, maxFPRate)
		}
	case warmReplay:
		if hr := ratio(float64(hits), float64(hits+misses)); hr < minHitRatio {
			r.fail(1, "verdict-cache hit ratio %.3f below %.2f", hr, minHitRatio)
		}
	}
	if w.name != warmReplay && hits != 0 {
		r.fail(1, "%d verdict-cache hits on a cold round", hits)
	}
}

// driveFeed posts the round's URLs to /v1/feed in batches on one
// connection while the second reads /v2/verdicts pages beside the
// ingest; the clock stops when the scheduler reports everything
// persisted. It returns when each URL's batch was posted.
//
// The reader asks for its k-th page once k*readEvery URLs are
// persisted. Reading back-to-back instead made the number of reads (and
// with ~2 MB allocated per 100-record page, alloc_kb_per_req) follow the
// scheduler: 316-412 reads a run in sizing.
func (rn *runner) driveFeed(r *round, inst *instance, client *http.Client, in *inputs) map[string]time.Time {
	n := len(in.order)
	var batches [][]string
	for i := 0; i < n; i += feedBatch {
		batch := make([]string, 0, feedBatch)
		for j := i; j < n && j < i+feedBatch; j++ {
			batch = append(batch, in.at(j).start)
		}
		batches = append(batches, batch)
	}
	bodies := make([][]byte, len(batches))
	for i, b := range batches {
		bodies[i] = encodeFeedBatch(b)
	}

	var stop atomic.Bool
	var reads, readFails int
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // the reader
		defer wg.Done()
		cursor := ""
		for k := 1; ; k++ {
			for inst.persisted() < k*readEvery {
				if stop.Load() {
					return
				}
				time.Sleep(time.Millisecond) // a read is due every ~17 ms
			}
			url := fmt.Sprintf("%s/v2/verdicts?limit=%d", inst.url, verdictsPage)
			if cursor != "" {
				url += "&cursor=" + cursor
			}
			ts := time.Now()
			code, body, err := do(client, http.MethodGet, url, nil)
			took := time.Since(ts)
			reads++
			var recs []feedRecord
			if err == nil && code == http.StatusOK {
				recs, cursor, err = decodeVerdictsPage(body)
			}
			if err != nil || code != http.StatusOK {
				readFails++
				cursor = ""
				continue
			}
			// Only full pages are timed: a page of the first few
			// records, or the short last page of a walk, is another
			// operation than reading 100 verdicts.
			if len(recs) == verdictsPage {
				r.readLat = append(r.readLat, took)
			}
		}
	}()

	posted := make(map[string]time.Time, n)
	accepted := 0
	t0 := time.Now()
	for i, body := range bodies {
		ts := time.Now()
		for _, u := range batches[i] {
			posted[u] = ts
		}
		code, reply, err := do(client, http.MethodPost, inst.url+"/v1/feed", body)
		if err != nil || code != http.StatusOK {
			r.fail(len(batches[i]), "feed batch %d: status %d: %v", i, code, err)
			continue
		}
		acc, rej, depth, err := decodeFeedAck(reply)
		if err != nil || rej != 0 {
			r.fail(1+rej, "feed batch %d: %d rejected: %v", i, rej, err)
		}
		accepted += acc
		if depth > r.queueDepthMax {
			r.queueDepthMax = depth
		}
	}
	if !inst.waitPersisted(time.Now().Add(2 * time.Minute)) {
		r.fail(1, "feed did not drain within two minutes")
	}
	r.wall = time.Since(t0)
	stop.Store(true)
	wg.Wait()

	r.ops = accepted
	r.attempted = n + reads
	if readFails > 0 {
		r.fail(readFails, "%d of %d /v2/verdicts pages failed", readFails, reads)
	}
	return posted
}

// checkFeed holds the ledger (submitted = processed = store records,
// nothing failed), then walks the whole store over the API for each
// URL's scored_at: posted-to-scored is the latency a feed's user sees.
func checkFeed(r *round, inst *instance, client *http.Client, posted map[string]time.Time) {
	c, submitted := r.ctr, len(posted)
	if c.feedFailed != 0 {
		r.fail(int(c.feedFailed), "feed failed_total %d", c.feedFailed)
	}
	if int(c.feedProcessed) != submitted || int(c.storeAppends) != submitted || c.storeRecords != submitted {
		r.fail(1, "submitted %d, processed %d, store appends %d, store records %d",
			submitted, c.feedProcessed, c.storeAppends, c.storeRecords)
	}
	cursor := ""
	for {
		url := inst.url + "/v2/verdicts?limit=1000"
		if cursor != "" {
			url += "&cursor=" + cursor
		}
		code, body, err := do(client, http.MethodGet, url, nil)
		if err != nil || code != http.StatusOK {
			r.fail(1, "walking the store: status %d: %v", code, err)
			return
		}
		var recs []feedRecord
		if recs, cursor, err = decodeVerdictsPage(body); err != nil {
			r.fail(1, "walking the store: %v", err)
			return
		}
		for _, rec := range recs {
			at, ok := posted[rec.url]
			if !ok || rec.failure != "" {
				r.fail(1, "store record for %s: submitted=%v error=%q", rec.url, ok, rec.failure)
				continue
			}
			delete(posted, rec.url)
			r.lat = append(r.lat, rec.scoredAt.Sub(at))
		}
		if cursor == "" {
			break
		}
	}
	if len(posted) > 0 {
		r.fail(len(posted), "%d submitted URLs have no verdict in the store", len(posted))
	}
}
