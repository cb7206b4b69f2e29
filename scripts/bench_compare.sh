#!/bin/sh
# bench_compare.sh — the repository's one micro-benchmark measurement:
# run benchmarks on a base ref and on the working tree, print a
# base-vs-HEAD delta table (ns/op and allocs/op), write both sides'
# figures to BENCH_PR.json, and optionally gate: with GATE=1 the script
# exits nonzero when a key benchmark regresses beyond the threshold.
# CI runs it on every pull request with the gate armed, on pushes and
# nightly against HEAD~1, and uploads BENCH_PR.json from each run.
#
# Usage:
#   scripts/bench_compare.sh [base-ref]      # default: HEAD~1
#
# Environment:
#   BENCH      benchmark regexp       (default: the key-benchmark set)
#   COUNT      rounds per side        (default: 3; medians compared)
#   BENCHTIME  go test -benchtime     (default: 1s)
#   GATE       1 = fail on regression (default: 0, report only)
#
# Statistics: each side's test binary is built once, then run COUNT
# rounds, one run of every benchmark per side per round, the two sides
# alternating which goes first. Drift on a shared host (another tenant,
# thermal state) then falls on both sides alike instead of wholly on
# whichever ran second. The medians of the runs are compared
# (benchstat's robust central estimate; a single noisy run cannot fake
# or mask a regression). allocs/op gates alongside ns/op because an
# allocation regression is invisible in wall time until the GC bill
# arrives under production load.
#
# The gate takes a second look, not more rounds: a median of runs that
# fall into two speed modes flips between them however many rounds
# follow. Each top-level benchmark with a gated arm past RECHECK on the
# COUNT rounds gets 2 × COUNT fresh rounds of its own, and the arm fails
# only if their medians cross the threshold. BENCH_PR.json has every run.
set -eu

# KEY_BENCHES / KEY_GATE come from bench_lib.sh, the single source of
# the key-benchmark set.
. "$(dirname "$0")/bench_lib.sh"

BASE_REF=${1:-HEAD~1}
BENCH=${BENCH:-$KEY_BENCHES}
COUNT=${COUNT:-3}
BENCHTIME=${BENCHTIME:-1s}
GATE=${GATE:-0}
# Max tolerated regression of a gated arm (KEY_GATE), in percent.
THRESHOLD=15
# The second look's trigger: half the threshold, because 20 % more work
# in a gated arm (BenchmarkCoalescedScore's) read +10 % on five rounds.
RECHECK=7.5

ROOT=$(git rev-parse --show-toplevel)
cd "$ROOT"

# A run of uncommitted code is not stamped with its parent's hash.
COMMIT=$(git rev-parse HEAD)
git diff --quiet HEAD || COMMIT=$COMMIT-dirty
BASE_SHA=$(git rev-parse --short "$BASE_REF")

TMP=$(mktemp -d)
BASE_DIR="$TMP/base"
trap 'rm -rf "$TMP"' EXIT INT TERM

mkdir "$BASE_DIR"
git archive "$BASE_REF" | tar -x -C "$BASE_DIR"

# arm_stats reduces raw `go test -bench -benchmem` output to one line
# per benchmark: "name ns/op B/op allocs/op q1-ns/op q3-ns/op rounds",
# medians of the runs and ns/op quartiles by nearest rank. Units are
# located by marker field, so benchmarks reporting extra metrics
# (urls/op, p99-ns/op) parse the same as plain ones. Benchmarks from a
# base ref predating -benchmem in this script report B/op and allocs/op
# as "na".
arm_stats() {
    awk '
        # median sorts vals[name, 1..n] ascending into srt and returns
        # the middle value ("na" for none).
        function median(vals, name, n,    i, j, tmp) {
            if (n == 0) return "na"
            for (i = 1; i <= n; i++) srt[i] = vals[name, i] + 0
            for (i = 2; i <= n; i++) {
                tmp = srt[i]
                for (j = i - 1; j >= 1 && srt[j] > tmp; j--) srt[j + 1] = srt[j]
                srt[j + 1] = tmp
            }
            if (n % 2 == 1) return srt[(n + 1) / 2]
            return (srt[n / 2] + srt[n / 2 + 1]) / 2
        }
        /^Benchmark/ {
            name = $1
            for (i = 2; i < NF; i++) {
                if ($(i + 1) == "ns/op" && i == 3) ns[name, ++nns[name]] = $i
                if ($(i + 1) == "B/op") bp[name, ++nbp[name]] = $i
                if ($(i + 1) == "allocs/op") al[name, ++nal[name]] = $i
            }
        }
        END {
            for (b in nns) {
                n = nns[b]
                mbp = median(bp, b, nbp[b] + 0)
                mal = median(al, b, nal[b] + 0)
                # ns/op last: srt then holds its runs for the quartiles.
                mns = median(ns, b, n)
                printf "%s %s %s %s %s %s %d\n", b, mns, mbp, mal, \
                    srt[int((n + 3) / 4)], srt[int((3 * n + 3) / 4)], n
            }
        }'
}

build_bench() {
    # $1 = package dir, $2 = test binary to write.
    (cd "$1" && go test -c -o "$2" .)
}

bench_once() {
    # $1 = package dir, $2 = test binary, $3 = benchmark regexp; appends
    # one run to $4.
    (cd "$1" && "$2" -test.run '^$' -test.bench "$3" -test.benchmem \
        -test.benchtime "$BENCHTIME" -test.count 1 -test.timeout 10m) >> "$4"
}

round() {
    # $1 = round number, $2 = benchmark regexp, $3 = output suffix ("" or
    # ".re", the second look). Odd rounds run base first, even rounds
    # HEAD first.
    if [ $(($1 % 2)) -eq 1 ]; then
        bench_once "$BASE_DIR" "$TMP/base.test" "$2" "$TMP/base$3.out"
        bench_once "$ROOT" "$TMP/head.test" "$2" "$TMP/head$3.out"
    else
        bench_once "$ROOT" "$TMP/head.test" "$2" "$TMP/head$3.out"
        bench_once "$BASE_DIR" "$TMP/base.test" "$2" "$TMP/base$3.out"
    fi
}

# compare joins both sides' medians of $TMP/{base,head}$1.out into
# $TMP/joined$1.txt, one line per arm: name, base ns/op, base
# allocs/op, head ns/op, head allocs/op.
compare() {
    arm_stats < "$TMP/base$1.out" | cut -d' ' -f1,2,4 | sort > "$TMP/base$1.txt"
    arm_stats < "$TMP/head$1.out" | cut -d' ' -f1,2,4 | sort > "$TMP/head$1.txt"
    join "$TMP/base$1.txt" "$TMP/head$1.txt" > "$TMP/joined$1.txt"
}

# judge reads compare's lines and prints a verdict per gated arm, one
# regressed past $2 percent prefixed with $1; it exits 1 if any did.
judge() {
    awk -v gate="$KEY_GATE" -v thr="$2" -v label="$1" '
        $1 !~ gate { next }
        {
            fail = 0
            nsd = ($2 > 0) ? ($4 - $2) / $2 * 100 : 0
            if (nsd > thr) {
                printf "%s: %s ns/op regressed %+.1f%% (%.0f -> %.0f, limit +%s%%)\n", \
                    label, $1, nsd, $2, $4, thr
                fail = 1
            }
            if ($3 != "na" && $5 != "na") {
                if ($3 + 0 > 0 && ($5 - $3) / $3 * 100 > thr) {
                    printf "%s: %s allocs/op regressed %+.1f%% (%s -> %s, limit +%s%%)\n", \
                        label, $1, ($5 - $3) / $3 * 100, $3, $5, thr
                    fail = 1
                } else if ($3 + 0 == 0 && $5 + 0 > 0) {
                    printf "%s: %s allocs/op regressed from 0 to %s\n", label, $1, $5
                    fail = 1
                }
            }
            if (fail) bad = 1
            else printf "gate ok:   %s (%.0f -> %.0f ns/op, %+.1f%%)\n", $1, $2, $4, nsd
        }
        END { exit bad ? 1 : 0 }'
}

echo "bench-compare: base=$BASE_REF ($BASE_SHA) vs HEAD ($COMMIT)"
echo "bench-compare: bench=$BENCH count=$COUNT benchtime=$BENCHTIME gate=$GATE threshold=${THRESHOLD}%"

build_bench "$BASE_DIR" "$TMP/base.test"
build_bench "$ROOT" "$TMP/head.test"
for f in base head base.re head.re; do : > "$TMP/$f.out"; done
n=1
while [ "$n" -le "$COUNT" ]; do
    round "$n" "$BENCH" ""
    n=$((n + 1))
done
compare ""

echo
printf '%-44s %13s %13s %8s %11s %11s %8s\n' \
    "benchmark" "base ns/op" "head ns/op" "delta" "base allocs" "head allocs" "delta"
awk '{
    nsd = ($2 > 0) ? ($4 - $2) / $2 * 100 : 0
    if ($3 == "na" || $5 == "na")      ald = "n/a"
    else if ($3 + 0 > 0)               ald = sprintf("%+7.1f%%", ($5 - $3) / $3 * 100)
    else if ($5 + 0 > 0)               ald = "  +inf%"
    else                               ald = "   0.0%"
    printf "%-44s %13.0f %13.0f %+7.1f%% %11s %11s %8s\n", $1, $2, $4, nsd, $3, $5, ald
}' "$TMP/joined.txt"

# Benchmarks present on only one side (added or removed by the change).
cut -d' ' -f1 "$TMP/base.txt" > "$TMP/base.names"
cut -d' ' -f1 "$TMP/head.txt" > "$TMP/head.names"
comm -23 "$TMP/base.names" "$TMP/head.names" | sed 's/^/only in base: /'
comm -13 "$TMP/base.names" "$TMP/head.names" | sed 's/^/only in head: /'

# The second look (see the header).
: > "$TMP/failed.names"
if [ "$GATE" = "1" ] && ! judge "first look" "$RECHECK" < "$TMP/joined.txt" > "$TMP/first.txt"; then
    echo
    grep '^first look' "$TMP/first.txt"
    sed -n 's/^first look: \([^ ]*\) .*/\1/p' "$TMP/first.txt" | sort -u > "$TMP/failed.names"
    tops=$(sed 's/\/.*//; s/-[0-9]*$//' "$TMP/failed.names" | sort -u | paste -sd'|' -)
    echo "bench-compare: second look, $((2 * COUNT)) fresh rounds of $tops"
    while [ "$n" -le $((3 * COUNT)) ]; do
        round "$n" "^($tops)\$" .re
        n=$((n + 1))
    done
fi
compare .re

# BENCH_PR.json: every benchmark either side ran, over all its runs,
# "null" for the side that did not. The host line is what go test
# printed for HEAD.
cat "$TMP/base.out" "$TMP/base.re.out" | arm_stats | sort > "$TMP/base.stats"
cat "$TMP/head.out" "$TMP/head.re.out" | arm_stats | sort > "$TMP/head.stats"
join -a 1 -a 2 -e na -o 0,1.2,1.3,1.4,1.5,1.6,1.7,2.2,2.3,2.4,2.5,2.6,2.7 \
    "$TMP/base.stats" "$TMP/head.stats" |
    awk -v commit="$COMMIT" -v base="$BASE_REF" -v basesha="$BASE_SHA" \
        -v gover="$(go env GOVERSION)" -v nproc="$(getconf _NPROCESSORS_ONLN)" \
        -v count="$COUNT" -v benchtime="$BENCHTIME" -v headout="$TMP/head.out" '
        function num(x) { return x == "na" ? "null" : sprintf("%.10g", x) }
        function side(f) {
            if ($(f + 5) == "na") return "null"
            return sprintf("{\"ns_per_op\": %s, \"b_per_op\": %s, \"allocs_per_op\": %s, \"ns_q1\": %s, \"ns_q3\": %s, \"rounds\": %d}", \
                num($f), num($(f + 1)), num($(f + 2)), num($(f + 3)), num($(f + 4)), $(f + 5))
        }
        BEGIN {
            while ((getline line < headout) > 0) {
                if (line ~ /^goos: /) os = substr(line, 7)
                if (line ~ /^goarch: /) arch = substr(line, 9)
                if (line ~ /^cpu: /) cpu = substr(line, 6)
            }
            printf "{\n  \"schema\": 2,\n"
            printf "  \"commit\": \"%s\",\n", commit
            printf "  \"base\": {\"ref\": \"%s\", \"commit\": \"%s\"},\n", base, basesha
            printf "  \"go\": \"%s\",\n", gover
            printf "  \"host\": \"%s/%s, %s, %d CPUs\",\n", os, arch, cpu, nproc
            printf "  \"count\": %d,\n  \"benchtime\": \"%s\",\n", count, benchtime
            printf "  \"benchmarks\": ["
        }
        {
            ratio = ($2 == "na" || $8 == "na" || $2 == 0) ? "null" : sprintf("%.4f", $8 / $2)
            printf "%s\n    {\"name\": \"%s\", \"ratio\": %s,\n     \"base\": %s,\n     \"head\": %s}", \
                (NR > 1 ? "," : ""), $1, ratio, side(2), side(8)
        }
        END { printf "\n  ]\n}\n" }' > BENCH_PR.json
echo "bench-compare: wrote BENCH_PR.json"

[ "$GATE" = "1" ] || exit 0

echo
FAILED=0

# A gate benchmark that existed on base but vanished from HEAD cannot
# be verified — treat removal as failure rather than silently passing.
if comm -23 "$TMP/base.names" "$TMP/head.names" | grep -E -- "$KEY_GATE" > "$TMP/removed.txt"; then
    sed 's/^/GATE FAIL (removed): /' "$TMP/removed.txt"
    FAILED=1
fi

# An arm passes on its first look, or on the medians of its fresh rounds.
grep '^gate ok' "$TMP/first.txt" || true
join "$TMP/failed.names" "$TMP/joined.re.txt" | judge "GATE FAIL" "$THRESHOLD" || FAILED=1

if [ "$FAILED" = "1" ]; then
    echo "bench-compare: GATE FAILED (regression over ${THRESHOLD}% in a key benchmark)"
    exit 1
fi
echo "bench-compare: gate passed"
