// Package search is the simulated search engine used by target
// identification (Section V-B) and by the Cantina baseline. It maintains a
// TF-IDF-scored inverted index over the *legitimate* synthetic web —
// phishing pages are never indexed, implementing the paper's assumption
// that "a search engine would not return a phishing site as a top hit"
// (new phishs are not yet indexed; old ones are already blacklisted).
//
// A query's working memory (score accumulators, touched-document and
// per-RDN lists) is a queryScratch pooled per engine; it is sized to the
// index, undoes exactly what a query touched and holds no strings, so it
// is never dropped. The results are the caller's: AppendQuery appends
// them to a buffer the caller owns — target identification keeps a
// page's two or three result sets in its own per-page scratch that way —
// and Query is AppendQuery into a fresh slice.
package search

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"slices"
	"sync"
)

// Doc is one indexed page.
type Doc struct {
	// URL is the page address.
	URL string `json:"url"`
	// RDN is the page's registered domain, what queries return.
	RDN string `json:"rdn"`
	// MLD is the main level domain of RDN.
	MLD string `json:"mld"`
	// Terms are the page's index terms (already term-extracted).
	Terms []string `json:"terms"`
}

// Result is one search hit.
type Result struct {
	RDN   string  `json:"rdn"`
	MLD   string  `json:"mld"`
	URL   string  `json:"url"`
	Score float64 `json:"score"`
}

// Engine is an in-memory inverted index. Add and Query may be used
// concurrently. An Engine must not be copied after first use.
type Engine struct {
	mu       sync.RWMutex
	docs     []Doc
	rdnOf    []int32          // doc id → rdnIDs[doc.RDN]: the column ranking reads instead of docs
	termIDs  map[string]int32 // term → small int, in first-seen order
	postings [][]posting      // term id → (doc, tf/len), ascending doc id
	rdnIDs   map[string]int32 // RDN → small int, in first-seen order
	rdnDoc   []int32          // RDN id → its first document, the one Domain names it by
	added    []int32          // Add's scratch: the term ids of the document being added
	scratch  sync.Pool        // *queryScratch
}

type posting struct {
	doc int32
	w   float64 // term frequency over document length
}

// NewEngine returns an empty index.
func NewEngine() *Engine {
	e := &Engine{termIDs: make(map[string]int32), rdnIDs: make(map[string]int32)}
	e.scratch.New = func() any { return new(queryScratch) }
	return e
}

// Add indexes a document. Empty-term documents are ignored.
//
// A term is counted in its own posting, the last of its list once the
// document has used the term, so no per-document table is built; a run
// of equal terms (the order legitimate-page documents list them in)
// costs one lookup. The counts become frequencies once every term is in.
func (e *Engine) Add(d Doc) {
	if len(d.Terms) == 0 {
		return
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	id := int32(len(e.docs))
	rdn, ok := e.rdnIDs[d.RDN]
	if !ok {
		rdn = int32(len(e.rdnIDs))
		e.rdnIDs[d.RDN] = rdn
		e.rdnDoc = append(e.rdnDoc, id)
	}
	e.docs = append(e.docs, d)
	e.rdnOf = append(e.rdnOf, rdn)
	e.added = e.added[:0]
	for i := 0; i < len(d.Terms); {
		t, j := d.Terms[i], i+1
		for j < len(d.Terms) && d.Terms[j] == t {
			j++
		}
		c := float64(j - i)
		i = j
		tid, ok := e.termIDs[t]
		if !ok {
			tid = int32(len(e.postings))
			e.termIDs[t] = tid
			e.postings = append(e.postings, nil)
		}
		ps := e.postings[tid]
		if last := len(ps) - 1; last >= 0 && ps[last].doc == id {
			ps[last].w += c
		} else {
			e.postings[tid] = append(ps, posting{doc: id, w: c})
			e.added = append(e.added, tid)
		}
	}
	n := float64(len(d.Terms))
	for _, tid := range e.added {
		ps := e.postings[tid]
		ps[len(ps)-1].w /= n
	}
}

// posts returns term's postings, nil for a term no document has.
func (e *Engine) posts(term string) []posting {
	if tid, ok := e.termIDs[term]; ok {
		return e.postings[tid]
	}
	return nil
}

// Len returns the number of indexed documents.
func (e *Engine) Len() int {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return len(e.docs)
}

// DomainID returns the small int the index knows rdn by, and false for
// an RDN no document has. Ids are dense, count from 0 in the order
// their RDNs were first added and never change, so an id stays valid
// for the engine's life.
func (e *Engine) DomainID(rdn string) (int32, bool) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	id, ok := e.rdnIDs[rdn]
	return id, ok
}

// Domain returns the RDN and MLD of domain id as the first document
// added under that RDN spells them: the index's own strings, so a
// caller that keeps them keeps nothing new alive. It panics for an id
// DomainID did not return.
func (e *Engine) Domain(id int32) (rdn, mld string) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	d := &e.docs[e.rdnDoc[id]]
	return d.RDN, d.MLD
}

// Domains calls f with the RDN and MLD of each of ids, in order, as
// Domain spells them, under one read lock: the decode of a memoized
// target result names up to 30 domains on every hit. f must not call
// the engine.
func (e *Engine) Domains(ids []int32, f func(i int, rdn, mld string)) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	for i, id := range ids {
		d := &e.docs[e.rdnDoc[id]]
		f(i, d.RDN, d.MLD)
	}
}

// IDF returns the inverse document frequency of term against the index
// (log(1 + N/df)); terms absent from the corpus get the maximum weight
// log(1 + N). The Cantina baseline derives its TF-IDF signatures from
// these statistics.
func (e *Engine) IDF(term string) float64 {
	e.mu.RLock()
	defer e.mu.RUnlock()
	n := float64(len(e.docs))
	if n == 0 {
		return 0
	}
	df := float64(len(e.posts(term)))
	if df == 0 {
		df = 1
	}
	return math.Log(1 + n/df)
}

// queryScratch is the working memory of one query, pooled per engine.
// Between queries acc and best are all zero and docs and rdns are
// empty: a query undoes exactly what it touched, so reuse costs
// O(touched), not O(index).
type queryScratch struct {
	acc  []float64 // doc id → accumulated score
	docs []int32   // doc ids with acc != 0
	best []int32   // RDN id → 1 + its best doc (0: none yet)
	rdns []int32   // RDN ids with best != 0; then the candidates, their best docs
}

// after reports whether doc a ranks after doc b: lower score, then
// greater RDN, then later insertion.
func (s *queryScratch) after(e *Engine, a, b int32) bool {
	if s.acc[a] != s.acc[b] {
		return s.acc[a] < s.acc[b]
	}
	if e.rdnOf[a] != e.rdnOf[b] {
		return e.docs[a].RDN > e.docs[b].RDN
	}
	return a > b
}

// siftDown restores heap h, whose root ranks after all below it, once
// h[i] has been replaced.
func (s *queryScratch) siftDown(e *Engine, h []int32, i int) {
	for {
		c := 2*i + 1
		if c >= len(h) {
			return
		}
		if c+1 < len(h) && s.after(e, h[c+1], h[c]) {
			c++
		}
		if !s.after(e, h[c], h[i]) {
			return
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}

// Query scores documents against the distinct query terms with TF-IDF
// and returns the k best, one per RDN (a real engine returns distinct
// sites at the top): an RDN is represented by its best document. The
// order is total, so equal inputs give equal results: score descending,
// then RDN ascending, then insertion order. A score sums its terms'
// weights in query order, which makes it bit-reproducible. It is
// AppendQuery into a new slice of exactly the result count: warm, that
// slice is the only allocation, and a query nothing matches returns nil.
func (e *Engine) Query(queryTerms []string, k int) []Result {
	return e.AppendQuery(nil, queryTerms, k)
}

// AppendQuery appends Query's results to dst and returns the extended
// slice. Warm, it allocates only to grow dst: into a buffer with room
// for k more results it allocates nothing.
func (e *Engine) AppendQuery(dst []Result, queryTerms []string, k int) []Result {
	if k <= 0 || len(queryTerms) == 0 {
		return dst
	}
	e.mu.RLock()
	defer e.mu.RUnlock()
	n := float64(len(e.docs))
	if n == 0 {
		return dst
	}
	// Sized under the read lock: no Add can outgrow it before release.
	s := e.scratch.Get().(*queryScratch)
	if len(s.acc) < len(e.docs) {
		s.acc = make([]float64, len(e.docs))
	}
	if len(s.best) < len(e.rdnIDs) {
		s.best = make([]int32, len(e.rdnIDs))
	}

	for i, qt := range queryTerms {
		// A repeated term counts once. Queries are a handful of terms, so
		// looking back over them beats keeping a set.
		if slices.Contains(queryTerms[:i], qt) {
			continue
		}
		posts := e.posts(qt)
		if len(posts) == 0 {
			continue
		}
		idf := math.Log(1 + n/float64(len(posts)))
		for _, p := range posts {
			if s.acc[p.doc] == 0 { // weights are positive: zero means untouched
				s.docs = append(s.docs, p.doc)
			}
			// The conversion rounds the product before the sum, so no
			// platform fuses the two into one differently-rounded step.
			s.acc[p.doc] += float64(p.w * idf)
		}
	}
	for _, d := range s.docs {
		r := e.rdnOf[d]
		if b := s.best[r]; b == 0 {
			s.best[r] = d + 1
			s.rdns = append(s.rdns, r)
		} else if s.after(e, b-1, d) {
			s.best[r] = d + 1
		}
	}
	// One candidate per RDN, its best document; then the k best of them,
	// selected in a heap over h and popped last-ranked first.
	cand := s.rdns
	for i, r := range cand {
		cand[i], s.best[r] = s.best[r]-1, 0
	}
	k = min(k, len(cand))
	h := cand[:k]
	for i := k/2 - 1; i >= 0; i-- {
		s.siftDown(e, h, i)
	}
	for _, d := range cand[k:] {
		if s.after(e, h[0], d) {
			h[0] = d
			s.siftDown(e, h, 0)
		}
	}
	first := len(dst)
	dst = slices.Grow(dst, k)[:first+k]
	for i := k - 1; i >= 0; i-- {
		doc := &e.docs[h[0]]
		dst[first+i] = Result{RDN: doc.RDN, MLD: doc.MLD, URL: doc.URL, Score: s.acc[h[0]]}
		h[0] = h[i]
		s.siftDown(e, h[:i], 0)
	}

	for _, d := range s.docs {
		s.acc[d] = 0
	}
	s.docs, s.rdns = s.docs[:0], s.rdns[:0]
	e.scratch.Put(s)
	return dst
}

// Docs returns a copy of every indexed document in insertion order.
func (e *Engine) Docs() []Doc {
	e.mu.RLock()
	defer e.mu.RUnlock()
	out := make([]Doc, len(e.docs))
	copy(out, e.docs)
	return out
}

// engineFile is the JSON persistence envelope of an index.
type engineFile struct {
	Docs []Doc `json:"docs"`
}

// Save persists the index as JSON so a serving process can load the
// legitimate-web index a corpus build produced. Documents are written in
// insertion order; Load rebuilds an identical index.
func (e *Engine) Save(w io.Writer) error {
	env := engineFile{Docs: e.Docs()}
	if err := json.NewEncoder(w).Encode(env); err != nil {
		return fmt.Errorf("search: saving index: %w", err)
	}
	return nil
}

// Load restores an index saved with Save.
func Load(r io.Reader) (*Engine, error) {
	var env engineFile
	if err := json.NewDecoder(r).Decode(&env); err != nil {
		return nil, fmt.Errorf("search: loading index: %w", err)
	}
	e := NewEngine()
	for _, d := range env.Docs {
		e.Add(d)
	}
	return e, nil
}

// ContainsRDN reports whether rdn appears in results.
func ContainsRDN(results []Result, rdn string) bool {
	if rdn == "" {
		return false
	}
	for _, r := range results {
		if r.RDN == rdn {
			return true
		}
	}
	return false
}
