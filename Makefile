# Developer entry points. CI (.github/workflows/ci.yml) runs the same
# commands; keep the two in sync.

GO ?= go

# The key-benchmark set (what the CI gate holds to a threshold and
# BENCH_PR.json records) is defined once, in scripts/bench_lib.sh; the
# bench-compare and bench-gate targets inherit it by not setting BENCH.
# Override per run with BENCH=<regexp>.

.PHONY: all build test race race-cover bench bench-smoke bench-compare bench-gate fuzz-smoke fuzz-long store-stress load-smoke overload-smoke cover fmt fmt-check vet staticcheck vulncheck serve alloc-check assembly-check leaf-check test-386 loc config-surface profile ci

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Covers the parallel corpus build: internal/dataset's determinism test
# builds at GOMAXPROCS 4.
race:
	$(GO) test -race ./...

# Race + coverage in one pass — what CI runs, so the suite executes
# once per push instead of once per concern.
race-cover:
	$(GO) test -race -covermode=atomic -coverprofile=coverage.out ./...
	$(GO) tool cover -func=coverage.out | tail -n 1

# Full benchmark run (slow). CI runs `bench-smoke` instead.
bench:
	$(GO) test -run='^$$' -bench=. ./...

bench-smoke:
	$(GO) test -run='^$$' -bench=. -benchtime=1x ./...

# Short fuzz pass over every surface that takes attacker- or operator-
# chosen bytes: the URL decomposition, the HTML scanner, the term kernel
# and webpage.Analyze, each against the implementation it replaced (kept
# verbatim in reference_test.go); the score-request scanner against
# encoding/json, its fallback; the search kernel
# against its map-and-sort reference on fuzzer-built corpora; target
# identification against the reference Identify on fuzzer-written
# title, text, copyright, URLs, link and screenshot; the
# presorted-column tree trainer against the sort-per-node trainer on
# fuzzer-built tie-heavy matrices; the content
# identity's preimage (distinct snapshots never share bytes or a key);
# the segmented store's index-snapshot
# decoder (arbitrary bytes, bare and under a valid CRC, plus an
# encode/decode round trip);
# its segment replay (arbitrary bytes, bare and behind whole frames,
# against a walk over the same bytes in memory) and its row-slab index
# against the pointer index it replaced (kept verbatim in
# index_reference_test.go), on fuzzer-written append, replay, reopen,
# compaction and supersede streams; the slab memo
# table against the container/list table it replaced, on fuzzer-written
# Get/Put/Flush streams; and the packed target entry, which must expand
# to the copy an unpacked entry keeps, on fuzzer-built results.
# Found inputs land in the package's testdata/fuzz and become
# permanent regression seeds. FUZZTIME is per target. FUZZMINIMIZETIME
# caps the time spent shrinking each new interesting input (go's default
# is 60s), so minimising one large input cannot eat a target's budget.
FUZZ_TARGETS = \
	FuzzParse:./internal/urlx \
	FuzzParse:./internal/htmlx \
	FuzzParseMatchesReference:./internal/htmlx \
	FuzzDistributionMatchesReference:./internal/terms \
	FuzzAnalyzeMatchesReference:./internal/webpage \
	FuzzPreimageInjective:./internal/webpage \
	FuzzQueryMatchesReference:./internal/search \
	FuzzIdentifyMatchesReference:./internal/target \
	FuzzTrainMatchesReference:./internal/ml \
	FuzzDecodeSnapshot:./internal/store \
	FuzzReplaySegment:./internal/store \
	FuzzIndexMatchesReference:./internal/store \
	FuzzDecodeDoc:./internal/serve \
	FuzzMemoTableMatchesReference:./internal/coalesce \
	FuzzTargetEntryRoundTrip:./internal/coalesce

FUZZTIME ?= 10s
FUZZMINIMIZETIME ?= 5s
fuzz-smoke:
	@set -e; for t in $(FUZZ_TARGETS); do \
		echo "fuzz $${t%%:*} $${t#*:} ($(FUZZTIME))"; \
		$(GO) test -run='^$$' -fuzz="^$${t%%:*}\$$" -fuzztime=$(FUZZTIME) -fuzzminimizetime=$(FUZZMINIMIZETIME) "$${t#*:}"; \
	done

# The nightly workflow's longer pass over the same surfaces.
fuzz-long:
	$(MAKE) fuzz-smoke FUZZTIME=60s

# Nightly storage soak: 100k appends with supersede churn and
# concurrent compaction, then a reopen-and-verify pass. Too slow for
# every PR; nightly.yml runs it. STORE_STRESS_N overrides the volume.
store-stress:
	STORE_STRESS=1 $(GO) test -count=1 -run TestStoreStress -timeout 30m ./internal/store

# Coverage profile for local inspection and CI artifacts. Reported, not
# gated: no threshold.
cover:
	$(GO) test -coverprofile=coverage.out -covermode=atomic ./...
	$(GO) tool cover -func=coverage.out | tail -n 1

fmt:
	gofmt -w .

fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "files need gofmt:" >&2; echo "$$out" >&2; exit 1; fi

vet:
	$(GO) vet ./...

# Static analysis beyond vet. Skips gracefully when the binary is
# missing so offline dev machines are not blocked.
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck -checks SA ./... ; \
	else \
		echo "staticcheck not installed; skipping (go install honnef.co/go/tools/cmd/staticcheck@latest)"; \
	fi

# Benchmark delta between a base ref (default HEAD~1, override with
# BASE=<ref>) and the working tree, in alternating rounds; see
# scripts/bench_compare.sh. Prints the delta table and writes
# BENCH_PR.json (both sides' medians, quartiles and rounds, the ratio
# and the host line), which CI uploads from every run. Every benchmark
# runs COUNT rounds (default 3); nothing is re-measured. Defaults to the
# key-benchmark set so local runs and the CI gate measure the same
# thing; BASE=HEAD measures the working tree against its own commit.
bench-compare:
	BENCH="$(BENCH)" ./scripts/bench_compare.sh $(BASE)

# bench-compare with the regression gate armed: a key benchmark arm
# past 7.5% in ns/op or allocs/op on its COUNT rounds gets a second look
# of 2 × COUNT fresh rounds, and the gate exits nonzero when those
# regress more than 15% versus the base ref. This is the perf job CI
# requires on every PR.
bench-gate:
	BENCH="$(BENCH)" GATE=1 ./scripts/bench_compare.sh $(BASE)

# Load smoke: kpload drives a complete in-process kpserve (-self) for a
# few seconds at a modest open-loop rate and writes LOAD_PR.json — the
# macro health check nightly.yml runs and archives next to
# BENCH_PR.json. A second leg replays score traffic with a warm cache
# mix so the coalescer's memo tables see realistic duplicate pressure.
# LOAD_QPS / LOAD_DURATION / LOAD_CACHE_MIX override the defaults.
LOAD_QPS ?= 100
LOAD_DURATION ?= 5s
LOAD_CACHE_MIX ?= 0.5
load-smoke:
	$(GO) run ./cmd/kpload run -self -scale 40 -qps $(LOAD_QPS) \
		-duration $(LOAD_DURATION) -workers 4 -json LOAD_PR.json
	$(GO) run ./cmd/kpload run -self -scale 40 -endpoint score \
		-cache-mix $(LOAD_CACHE_MIX) -qps $(LOAD_QPS) \
		-duration $(LOAD_DURATION) -workers 4 -json LOAD_WARM_PR.json

# Overload smoke: drive an in-process kpserve well past its sustainable
# rate (1 scoring worker, 64KiB pages, tight 5ms p99 objective on short
# engine windows so the episode fits in seconds) and assert the full
# overload story end to end: admission control sheds with 503 +
# Retry-After, every accepted request is accounted for (zero-loss
# ledger: scored + cache hits >= accepted), and the engine recovers to
# ok / shed level 0 once the load stops. -expect-shed makes a run that
# never sheds exit nonzero, so the guarantee is CI-enforced, not
# aspirational. Writes OVERLOAD_PR.json; nightly.yml runs and archives
# it.
overload-smoke:
	$(GO) run ./cmd/kpload run -self -endpoint score -serve-workers 1 \
		-slo "score:p99<5ms,avail>99" -slo-fast 5s \
		-qps 600 -workers 32 -duration 15s \
		-expect-shed -json OVERLOAD_PR.json

# Known-vulnerability scan over the module and its (empty) dependency
# graph — effectively a stdlib advisory check pinned to the toolchain.
# Skips gracefully when the binary is missing so offline dev machines
# are not blocked; CI installs it.
vulncheck:
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./... ; \
	else \
		echo "govulncheck not installed; skipping (go install golang.org/x/vuln/cmd/govulncheck@latest)"; \
	fi

# Self-contained demo server: trains on the synthetic world, serves on
# :8080. See README.md for curl examples.
serve:
	$(GO) run ./cmd/kpserve -addr :8080

# Allocation contracts in a non-race build: every test named *Alloc*
# in the module — 0 allocs on the warm scoring and memoized paths (a
# cache hit through the server's scoreSnap included), the content hash,
# memo lookups, admission check, trace lookup and SLO observation;
# fixed budgets on full extraction, index queries and target
# identification. These tests skip themselves under -race (the
# detector's own allocations would poison the counts), so the race
# suite alone would never run them — this target is what makes the
# zero-alloc claims CI-enforced. It runs over ./... so a new contract
# is enforced by being named, not by being listed here.
alloc-check:
	$(GO) test -count=1 -run Alloc ./...

# One process assembly: outside internal/app, serve.New's own default
# memo, tests and the frozen benchmark/ harness, nothing constructs a
# server, a feed scheduler, a stage memo or a verdict store — kpserve,
# `kpload run -self` and BenchmarkLoadEndToEnd all go through app.Start,
# and a second wiring cannot quietly regrow.
ASSEMBLY_CTORS = \b(serve\.New|feed\.New|coalesce\.New|store\.Open)\(
assembly-check:
	@out="$$(git grep -n -E '$(ASSEMBLY_CTORS)' -- '*.go' ':!*_test.go' \
		':!internal/app/' ':!benchmark/' \
		| grep -v '^internal/serve/server\.go:.*coalesce\.New(')"; \
	if [ -n "$$out" ]; then \
		echo "constructed outside internal/app:" >&2; echo "$$out" >&2; exit 1; fi

# The paper as a leaf library: the detector and target identifier's
# packages import nothing of this module but each other and the
# stdlib-only worker pool — no tracing, no store, no serving stack —
# and they build for the browser (GOOS=js GOARCH=wasm), the client-side
# deployment the paper argues for. internal/core's tests compile there
# too, so its Example_clientSide (train, export, load, score) builds for
# the browser.
LEAF_PKGS = urlx htmlx terms webpage features ml search target ocr ranking core
leaf-check:
	@deps="$$($(GO) list -deps $(addprefix ./internal/,$(LEAF_PKGS)) | grep '^knowphish')"; \
	out="$$(echo "$$deps" | grep -vxF "$$(printf '%s\n' $(addprefix knowphish/internal/,$(LEAF_PKGS) pool))")"; \
	if [ -n "$$out" ]; then \
		echo "outside the paper's leaf closure:" >&2; echo "$$out" >&2; exit 1; fi; \
	echo "leaf closure: $$(echo "$$deps" | wc -l) packages, paper code and pool only"
	GOOS=js GOARCH=wasm $(GO) build -o /dev/null ./internal/core ./internal/target
	GOOS=js GOARCH=wasm $(GO) test -c -o /dev/null ./internal/core

# The packages whose tests once failed on 32-bit (an int overflow in a
# test literal, a fuzz oracle that read a 4 GiB frame length as a
# negative int) build and pass under GOARCH=386, natively on amd64.
# The whole-module leg (ROADMAP 1(b)) still waits on the portable
# exp/log of 1(a) and on one line of benchmark/workloads.go.
test-386:
	GOARCH=386 $(GO) test ./internal/store ./internal/coalesce

# Size of the program: non-test Go lines and files in the working tree
# (tracked or untracked, not ignored, and present on disk, so an
# unstaged deletion or a new file counts before `git add`), outside the
# frozen benchmark/ harness. "Net-negative" and "N% fewer lines"
# criteria (ROADMAP item 9) are read off this command. It also prints
# the line counts of the two documents every change edits, README.md
# and the verify skill, so that CI shows them base → head (not gated).
LOC_DOCS = README.md .claude/skills/verify/SKILL.md
LOC_FILES = git ls-files -co --exclude-standard '*.go' | grep -v -e '_test\.go$$' -e '^benchmark/' \
	| while read -r f; do [ ! -f "$$f" ] || echo "$$f"; done
loc:
	@echo "non-test Go outside benchmark/: $$($(LOC_FILES) | xargs cat | wc -l) lines in $$($(LOC_FILES) | wc -l) files"
	@for f in $(LOC_DOCS); do echo "$$f: $$(wc -l < "$$f") lines"; done

# Size of the program's settable surface: exported fields of every
# *Config struct under internal/, per package, and the flag counts of
# `kpserve -h`, `kpload run -h` and `kptrain -h`. Printed
# next to `make loc` in CI, not gated; "fewer knobs" criteria are read
# off this command.
config-surface:
	@./scripts/config_surface.sh

# 10-second CPU profile of a running kpserve started with the pprof
# listener bound (kpserve -debug-addr :6060). Writes cpu.pprof; inspect
# with `$(GO) tool pprof cpu.pprof`. Override the listener address with
# DEBUG_ADDR=<host:port>.
DEBUG_ADDR ?= localhost:6060
profile:
	curl -fsS "http://$(DEBUG_ADDR)/debug/pprof/profile?seconds=10" -o cpu.pprof
	@echo "wrote cpu.pprof; inspect with: $(GO) tool pprof cpu.pprof"

ci: fmt-check vet staticcheck vulncheck assembly-check leaf-check test-386 build race-cover alloc-check bench-smoke fuzz-smoke
