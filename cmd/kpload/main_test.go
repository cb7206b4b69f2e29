package main

import (
	"bytes"
	"errors"
	"flag"
	"slices"
	"strings"
	"testing"

	"knowphish/internal/app"
)

// TestRunFlags: kpload run's -h lists exactly the flags the load and
// overload smokes use.
func TestRunFlags(t *testing.T) {
	var out bytes.Buffer
	fs := flag.NewFlagSet("kpload run", flag.ContinueOnError)
	fs.SetOutput(&out)
	if _, err := parseRunFlags(fs, []string{"-h"}); !errors.Is(err, flag.ErrHelp) {
		t.Fatalf("run -h: %v, want flag.ErrHelp", err)
	}
	var got []string
	for _, line := range strings.Split(out.String(), "\n") {
		if name, ok := strings.CutPrefix(line, "  -"); ok {
			got = append(got, strings.Fields(name)[0])
		}
	}
	want := []string{"cache-mix", "duration", "endpoint", "expect-shed", "json", "qps", "scale", "seed",
		"self", "serve-workers", "slo", "slo-fast", "slo-holddown", "slo-slow", "target", "workers"}
	if !slices.Equal(got, want) {
		t.Fatalf("run -h flags:\n got %q\nwant %q", got, want)
	}
}

func TestRunRejects(t *testing.T) {
	if err := run([]string{"gen"}); err == nil || !strings.Contains(err.Error(), "unknown subcommand") {
		t.Fatalf("kpload gen: %v, want unknown subcommand", err)
	}
	for _, args := range [][]string{
		{"-target", "http://127.0.0.1:1", "-expect-shed", "-slo", "score:p99<5ms"},
		{"-self", "-expect-shed"},
		{},
		{"-self", "-target", "http://127.0.0.1:1"},
	} {
		fs := flag.NewFlagSet("kpload run", flag.ContinueOnError)
		fs.SetOutput(&bytes.Buffer{})
		if _, err := parseRunFlags(fs, args); err == nil {
			t.Errorf("run %q accepted", args)
		}
	}
}

// TestCorpusResolves: every URL kpload replays for a seed resolves in
// the world a kpserve with that seed builds — the check that genCorpus's
// +1 still restates dataset.Config's world-seed rule.
func TestCorpusResolves(t *testing.T) {
	for _, seed := range []int64{app.DefaultSeed, 7} {
		c, err := app.BuildCorpus(400, seed)
		if err != nil {
			t.Fatal(err)
		}
		urls := genCorpus(seed)
		if len(urls) == 0 {
			t.Fatalf("seed %d: empty corpus", seed)
		}
		for _, u := range urls {
			if _, ok := c.World.Fetch(u); !ok {
				t.Fatalf("seed %d: %s does not resolve in the server's world", seed, u)
			}
		}
	}
}
