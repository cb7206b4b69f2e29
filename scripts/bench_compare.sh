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

# median_stats reduces raw `go test -bench -benchmem` output to one
# line per benchmark: "name median-ns/op median-allocs/op". Units are
# located by marker field, so benchmarks reporting extra metrics
# (urls/op, p99-ns/op) parse the same as plain ones. Benchmarks from a
# base ref predating -benchmem in this script report allocs as "na".
median_stats() {
    awk '
        function median(vals, n,    i, j, tmp, srt) {
            if (n == 0) return "na"
            for (i = 1; i <= n; i++) srt[i] = vals[i] + 0
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
                m1 = median(v, n)
                n2 = nal[b]
                for (i = 1; i <= n2; i++) w[i] = al[b, i]
                m2 = median(w, n2)
                printf "%s %s %s\n", b, m1, m2
            }
        }'
}

build_bench() {
    # $1 = package dir, $2 = test binary to write.
    (cd "$1" && go test -c -o "$2" .)
}

bench_once() {
    # $1 = package dir, $2 = test binary; appends one run to $3.
    (cd "$1" && "$2" -test.run '^$' -test.bench "$BENCH" -test.benchmem \
        -test.benchtime "$BENCHTIME" -test.count 1 -test.timeout 10m) >> "$3"
}

echo "bench-compare: base=$BASE_REF ($(git rev-parse --short "$BASE_REF")) vs HEAD ($(git rev-parse --short HEAD))"
echo "bench-compare: bench=$BENCH count=$COUNT benchtime=$BENCHTIME gate=$GATE threshold=${GATE_THRESHOLD}%"

build_bench "$BASE_DIR" "$TMP/base.test"
build_bench "$ROOT" "$TMP/head.test"
: > "$TMP/base.out"
: > "$TMP/head.out"
round=1
while [ "$round" -le "$COUNT" ]; do
    if [ $((round % 2)) -eq 1 ]; then
        bench_once "$BASE_DIR" "$TMP/base.test" "$TMP/base.out"
        bench_once "$ROOT" "$TMP/head.test" "$TMP/head.out"
    else
        bench_once "$ROOT" "$TMP/head.test" "$TMP/head.out"
        bench_once "$BASE_DIR" "$TMP/base.test" "$TMP/base.out"
    fi
    round=$((round + 1))
done
median_stats < "$TMP/base.out" | sort > "$TMP/base.txt"
median_stats < "$TMP/head.out" | sort > "$TMP/head.txt"

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
