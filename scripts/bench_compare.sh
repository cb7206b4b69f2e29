#!/bin/sh
# bench_compare.sh — run benchmarks on a base ref and on the working
# tree, print a base-vs-HEAD delta table (ns/op and allocs/op), and
# optionally gate: with GATE=1 the script exits nonzero when a key
# benchmark regresses beyond the threshold. The CI perf job runs it on
# every pull request so hot-path regressions fail the PR instead of
# scrolling past in a log.
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
# whichever ran second. The medians of the COUNT runs are compared
# (benchstat's robust central estimate; a single noisy run cannot fake
# or mask a regression). allocs/op gates alongside ns/op because an
# allocation regression is invisible in wall time until the GC bill
# arrives under production load.
#
# A median of three or five cannot resolve the threshold on an arm whose
# own base runs spread as wide as the threshold. So after the COUNT
# rounds, every gated arm whose base ns/op quartiles span more than half
# the threshold of its median is "wide", and its whole benchmark gets
# further interleaved rounds, one at a time, until no arm is wide or the
# wide ones have had COUNT + 2 rounds. The cap bounds the wall time: at
# COUNT=5 on a shared 2-vCPU host, 14 of the 22 key benchmarks were
# wide, and a cap of 2 × COUNT made the gate take 1 031 s.
set -eu

# KEY_BENCHES / KEY_GATE come from bench_lib.sh, the single source of
# the key-benchmark set shared with bench_json.sh.
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

TMP=$(mktemp -d)
BASE_DIR="$TMP/base"
trap 'rm -rf "$TMP"' EXIT INT TERM

mkdir "$BASE_DIR"
git archive "$BASE_REF" | tar -x -C "$BASE_DIR"

# arm_stats reduces raw `go test -bench -benchmem` output to one line
# per benchmark: "name median-ns/op median-allocs/op q1-ns/op q3-ns/op",
# the quartiles by nearest rank. Units are located by marker field, so
# benchmarks reporting extra metrics (urls/op, p99-ns/op) parse the same
# as plain ones. Benchmarks from a base ref predating -benchmem in this
# script report allocs as "na".
arm_stats() {
    awk '
        # sortn copies vals[1..n] into srt, sorted ascending.
        function sortn(vals, n, srt,    i, j, tmp) {
            for (i = 1; i <= n; i++) srt[i] = vals[i] + 0
            for (i = 2; i <= n; i++) {
                tmp = srt[i]
                for (j = i - 1; j >= 1 && srt[j] > tmp; j--) srt[j + 1] = srt[j]
                srt[j + 1] = tmp
            }
        }
        function median(srt, n) {
            if (n == 0) return "na"
            if (n % 2 == 1) return srt[(n + 1) / 2]
            return (srt[n / 2] + srt[n / 2 + 1]) / 2
        }
        /^Benchmark/ {
            name = $1
            for (i = 2; i < NF; i++) {
                if ($(i + 1) == "ns/op" && i == 3) {
                    nns[name]++
                    ns[name, nns[name]] = $i
                }
                if ($(i + 1) == "allocs/op") {
                    nal[name]++
                    al[name, nal[name]] = $i
                }
            }
        }
        END {
            for (b in nns) {
                n = nns[b]
                for (i = 1; i <= n; i++) v[i] = ns[b, i]
                sortn(v, n, s)
                n2 = nal[b]
                for (i = 1; i <= n2; i++) w[i] = al[b, i]
                sortn(w, n2, t)
                printf "%s %s %s %s %s\n", b, median(s, n), median(t, n2), \
                    s[int((n + 3) / 4)], s[int((3 * n + 3) / 4)]
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

# wide_benches reads raw base output and prints, as one alternation, the
# top-level benchmark of every gated arm whose ns/op quartiles span more
# than half the threshold of its median.
wide_benches() {
    arm_stats | awk -v gate="$GATE_BENCHES" -v thr="$GATE_THRESHOLD" '
        $1 ~ gate && $2 > 0 && ($5 - $4) / $2 * 100 > thr / 2 {
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

echo "bench-compare: base=$BASE_REF ($(git rev-parse --short "$BASE_REF")) vs HEAD ($(git rev-parse --short HEAD))"
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
while [ "$n" -le $((COUNT + 2)) ]; do
    wide=$(wide_benches < "$TMP/base.out")
    [ -n "$wide" ] || break
    echo "bench-compare: round $n, base quartiles wider than half the ${GATE_THRESHOLD}% threshold: $wide"
    round "$n" "^($wide)\$"
    n=$((n + 1))
done
arm_stats < "$TMP/base.out" | cut -d' ' -f1-3 | sort > "$TMP/base.txt"
arm_stats < "$TMP/head.out" | cut -d' ' -f1-3 | sort > "$TMP/head.txt"

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
