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
#   BENCH          benchmark regexp       (default: the key-benchmark set)
#   COUNT          rounds per side        (default: 3; medians compared)
#   BENCHTIME      go test -benchtime     (default: 1s)
#   GATE           1 = fail on regression (default: 0, report only)
#   GATE_BENCHES   regexp of benchmarks held to the threshold
#                  (default: the key-benchmark set)
#   GATE_THRESHOLD max tolerated regression in percent (default: 15)
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
# A median of three or five cannot resolve the threshold on a noisy
# arm, and more rounds do not narrow the spread of single runs; they
# narrow the median's. So an arm's median counts as resolved once
# (q3 − q1) / median / √rounds, about its standard error (for normal
# noise the quartile span over √n is 1.08 standard errors of the
# median), is within a quarter of the threshold on both sides: a
# change of the threshold's size then sits about four standard errors
# away. After the COUNT rounds, every benchmark with an unresolved gated
# arm gets further interleaved rounds, one at a time, up to 2 × COUNT.
# BENCH_PR.json carries every run, extra rounds included, so CI pays
# for one measurement, not a gate and a snapshot.
set -eu

# KEY_BENCHES / KEY_GATE come from bench_lib.sh, the single source of
# the key-benchmark set.
. "$(dirname "$0")/bench_lib.sh"

BASE_REF=${1:-HEAD~1}
BENCH=${BENCH:-$KEY_BENCHES}
COUNT=${COUNT:-3}
BENCHTIME=${BENCHTIME:-1s}
GATE=${GATE:-0}
GATE_BENCHES=${GATE_BENCHES:-$KEY_GATE}
GATE_THRESHOLD=${GATE_THRESHOLD:-15}

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
    # $1 = round number, $2 = benchmark regexp. Odd rounds run base
    # first, even rounds HEAD first.
    if [ $(($1 % 2)) -eq 1 ]; then
        bench_once "$BASE_DIR" "$TMP/base.test" "$2" "$TMP/base.out"
        bench_once "$ROOT" "$TMP/head.test" "$2" "$TMP/head.out"
    else
        bench_once "$ROOT" "$TMP/head.test" "$2" "$TMP/head.out"
        bench_once "$BASE_DIR" "$TMP/base.test" "$2" "$TMP/base.out"
    fi
}

# unresolved prints, as one alternation, the top-level benchmark of
# every gated arm whose median is not resolved on one side or both.
unresolved() {
    { arm_stats < "$TMP/base.out"; arm_stats < "$TMP/head.out"; } |
        awk -v gate="$GATE_BENCHES" -v thr="$GATE_THRESHOLD" '
        $1 ~ gate && $2 > 0 && ($6 - $5) / $2 * 100 / sqrt($7) > thr / 4 {
            top = $1
            sub(/\/.*/, "", top)
            sub(/-[0-9]+$/, "", top)
            wide[top] = 1
        }
        END {
            for (t in wide) out = out (out == "" ? "" : "|") t
            print out
        }'
}

echo "bench-compare: base=$BASE_REF ($BASE_SHA) vs HEAD ($COMMIT)"
echo "bench-compare: bench=$BENCH count=$COUNT benchtime=$BENCHTIME gate=$GATE threshold=${GATE_THRESHOLD}%"

build_bench "$BASE_DIR" "$TMP/base.test"
build_bench "$ROOT" "$TMP/head.test"
: > "$TMP/base.out"
: > "$TMP/head.out"
n=1
while [ "$n" -le "$COUNT" ]; do
    round "$n" "$BENCH"
    n=$((n + 1))
done
while [ "$n" -le $((2 * COUNT)) ]; do
    wide=$(unresolved)
    [ -n "$wide" ] || break
    echo "bench-compare: round $n, medians not resolved to a quarter of the ${GATE_THRESHOLD}% threshold: $wide"
    round "$n" "^($wide)\$"
    n=$((n + 1))
done
arm_stats < "$TMP/base.out" | sort > "$TMP/base.stats"
arm_stats < "$TMP/head.out" | sort > "$TMP/head.stats"
cut -d' ' -f1,2,4 "$TMP/base.stats" > "$TMP/base.txt"
cut -d' ' -f1,2,4 "$TMP/head.stats" > "$TMP/head.txt"

# join output fields: 1 name, 2 base ns/op, 3 base allocs/op,
# 4 head ns/op, 5 head allocs/op.
join "$TMP/base.txt" "$TMP/head.txt" > "$TMP/joined.txt"

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

# BENCH_PR.json: every benchmark either side ran, "null" for the side
# that did not. The host line is what go test printed for HEAD.
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
if comm -23 "$TMP/base.names" "$TMP/head.names" | grep -E -- "$GATE_BENCHES" > "$TMP/removed.txt"; then
    sed 's/^/GATE FAIL (removed): /' "$TMP/removed.txt"
    FAILED=1
fi

awk -v gate="$GATE_BENCHES" -v thr="$GATE_THRESHOLD" '
    $1 !~ gate { next }
    {
        fail = 0
        if ($2 > 0 && ($4 - $2) / $2 * 100 > thr) {
            printf "GATE FAIL: %s ns/op regressed %+.1f%% (%.0f -> %.0f, limit +%s%%)\n", \
                $1, ($4 - $2) / $2 * 100, $2, $4, thr
            fail = 1
        }
        if ($3 != "na" && $5 != "na") {
            if ($3 + 0 > 0 && ($5 - $3) / $3 * 100 > thr) {
                printf "GATE FAIL: %s allocs/op regressed %+.1f%% (%s -> %s, limit +%s%%)\n", \
                    $1, ($5 - $3) / $3 * 100, $3, $5, thr
                fail = 1
            } else if ($3 + 0 == 0 && $5 + 0 > 0) {
                printf "GATE FAIL: %s allocs/op regressed from 0 to %s\n", $1, $5
                fail = 1
            }
        }
        if (fail) bad = 1
        else printf "gate ok:   %s\n", $1
    }
    END { exit bad ? 1 : 0 }
' "$TMP/joined.txt" || FAILED=1

if [ "$FAILED" = "1" ]; then
    echo "bench-compare: GATE FAILED (regression over ${GATE_THRESHOLD}% in a key benchmark)"
    exit 1
fi
echo "bench-compare: gate passed"
