// Package knowphish is a Go reproduction of "Know Your Phish: Novel
// Techniques for Detecting Phishing Sites and their Targets" (Marchal,
// Saari, Singh, Asokan — ICDCS 2016).
//
// The paper's two systems live in internal packages:
//
//   - a phishing detector (internal/core): 212 hand-designed,
//     language-independent features over the data sources a browser
//     observes, classified by gradient-boosted trees with a 0.7
//     discrimination threshold;
//   - a target identifier (internal/target) that extracts keyterms from a
//     page and uses a search engine to either confirm the page as
//     legitimate or name the brand a phishing page is mimicking;
//   - a core.Pipeline chaining both, using target identification to
//     discard detector false positives.
//
// This package holds no code: only this comment and the root tests,
// benchmarks and Examples, which call those packages directly. The
// Examples (quick start, target identification, language independence)
// are walkthroughs whose printed output go test checks; the client-side
// deployment's Example is in internal/core.
// The binaries under cmd/ drive the same packages; cmd/kpexperiments
// reproduces the paper's tables and figures. README.md describes the
// layout and the experiments.
package knowphish
