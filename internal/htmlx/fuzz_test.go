package htmlx

import (
	"testing"
)

// FuzzParse exercises the tokenizer with adversarial fragments. Under
// plain `go test` only the seed corpus runs; `go test -fuzz=FuzzParse`
// explores further.
func FuzzParse(f *testing.F) {
	for _, s := range parseSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		doc := Parse(src)
		if doc.ImageCount < 0 || doc.InputCount < 0 || doc.IFrameCount < 0 {
			t.Fatalf("negative counts: %+v", doc)
		}
		for _, l := range doc.HREFLinks {
			if l == "" {
				t.Fatal("empty href recorded")
			}
		}
		if len(doc.IFrameSrcs) > doc.IFrameCount {
			t.Fatalf("more iframe srcs (%d) than iframes (%d)", len(doc.IFrameSrcs), doc.IFrameCount)
		}
	})
}
