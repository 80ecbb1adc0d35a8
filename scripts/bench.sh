#!/usr/bin/env bash
# Runs the engine benchmarks and emits a JSON record per benchmark with
# ns/op, allocs, and custom metrics (peers-rebuilt/op, full-rebuilds/op,
# per-phase round nanos).
#
# Four modes: the default round mode covers the incremental round engine
# (BENCH_round.json); -queries covers the per-query flood kernel
# (BenchmarkEvaluate -> BENCH_query.json); -shards sweeps the round
# engine across shard counts and scales (BENCH_shards.json);
# -snap covers the checkpoint codec (BENCH_snap.json).
#
# Usage: scripts/bench.sh [options] [output.json]
#   -queries           benchmark the query-flood kernel instead of the
#                      round engine; output defaults to BENCH_query.json
#   -shards            sweep the round engine: the 10k-peer
#                      shards{1,2,4,8} curve plus the 100k-peer sharded
#                      round; output defaults to BENCH_shards.json. The
#                      1M-peer round stays behind ACE_BENCH_MILLION=1
#                      (export it to include the measurement)
#   -snap              benchmark the service-mode checkpoint codec:
#                      snapshot encode/decode throughput and on-disk
#                      size at 10k and 100k peers; output defaults to
#                      BENCH_snap.json
#   -cpuprofile FILE   capture a CPU profile of the benchmark run
#   -memprofile FILE   capture an allocation profile of the same run
#   -compare [BASE]    do not write output: run fresh and print a ns/op
#                      comparison against BASE (default: the committed
#                      JSON for the selected mode). The fresh side runs
#                      each benchmark BENCHCOUNT times (default 3) and
#                      takes the per-benchmark minimum; the baseline side
#                      folds repeated entries to their median. The gate
#                      then only fires when even the best fresh run is
#                      slower than typical committed performance — robust
#                      both to slow-window fresh runs and to a lucky-fast
#                      outlier baked into the baseline.
#   -fail PCT          with -compare: exit 1 if any benchmark's ns/op
#                      regressed more than PCT percent over the baseline
#                      (the CI instrumentation-overhead gate)
#   -failonly REGEX    restrict the -fail gate to benchmarks matching
#                      REGEX (awk ERE). The comparison still prints every
#                      benchmark; only matching ones can fail the run.
#                      Micro-benchmarks a few ns wide quantize to ±10%,
#                      so CI gates the end-to-end ones and keeps the rest
#                      informational.
#
#   BENCHTIME=2s scripts/bench.sh       # longer runs for stabler numbers
set -euo pipefail
cd "$(dirname "$0")/.."

MODE="round"
OUT=""
BENCHTIME="${BENCHTIME:-1s}"
PROFILE_FLAGS=()
COMPARE=""
BASE=""
FAIL=""
FAILRE=""

while [ $# -gt 0 ]; do
    case "$1" in
        -queries) MODE="queries"; shift ;;
        -shards) MODE="shards"; shift ;;
        -snap) MODE="snap"; shift ;;
        -cpuprofile) PROFILE_FLAGS+=(-cpuprofile "$2"); shift 2 ;;
        -memprofile) PROFILE_FLAGS+=(-memprofile "$2"); shift 2 ;;
        -compare)
            COMPARE=1
            if [ $# -gt 1 ] && [ "${2#-}" = "$2" ]; then
                BASE="$2"
                shift
            fi
            shift ;;
        -fail) FAIL="$2"; shift 2 ;;
        -failonly) FAILRE="$2"; shift 2 ;;
        -*) echo "bench.sh: unknown flag $1" >&2; exit 2 ;;
        *) OUT="$1"; shift ;;
    esac
done

DEFAULT="BENCH_round.json"
[ "$MODE" = "queries" ] && DEFAULT="BENCH_query.json"
[ "$MODE" = "shards" ] && DEFAULT="BENCH_shards.json"
[ "$MODE" = "snap" ] && DEFAULT="BENCH_snap.json"
[ -n "$OUT" ] || OUT="$DEFAULT"
[ -n "$BASE" ] || BASE="$DEFAULT"

# Repeat counts: compare runs default to 3 (the awk min-folds the fresh
# repeats); write runs default to 1 but honor BENCHCOUNT too — a
# baseline written with BENCHCOUNT=3 carries three entries per benchmark
# and the comparison folds them to their median.
if [ -n "$COMPARE" ]; then
    COUNT="${BENCHCOUNT:-3}"
else
    COUNT="${BENCHCOUNT:-1}"
fi

TMP="$(mktemp)"
TMPJSON="$(mktemp)"
trap 'rm -f "$TMP" "$TMPJSON"' EXIT

if [ "$MODE" = "queries" ]; then
    go test -run '^$' -bench 'BenchmarkEvaluate' \
        -benchmem -benchtime "$BENCHTIME" -count "$COUNT" \
        ${PROFILE_FLAGS[@]+"${PROFILE_FLAGS[@]}"} ./internal/gnutella/ | tee "$TMP"
elif [ "$MODE" = "snap" ]; then
    # The checkpoint codec: encode/decode wall time and MB/s at the two
    # reference scales, with the bytes/snapshot metric recording the
    # on-disk slot size (one checkpoint = one slot file).
    go test -run '^$' -bench 'BenchmarkEncode|BenchmarkDecode' \
        -benchmem -benchtime "$BENCHTIME" -count "$COUNT" \
        ${PROFILE_FLAGS[@]+"${PROFILE_FLAGS[@]}"} ./internal/snap/ | tee "$TMP"
elif [ "$MODE" = "shards" ]; then
    # The shard sweep: shard counts at 10k peers, the 100k-peer
    # target scale, and — when ACE_BENCH_MILLION=1 is exported — the
    # 1M-peer demonstration round. Note go's -bench treats a top-level |
    # as alternating whole slash-paths, so the subcase alternation must
    # be parenthesized to act as a second pattern level; it matches only
    # the scale-sweep subcases, leaving the round baseline untouched.
    go test -run '^$' -bench 'BenchmarkRoundChurn/(n10000|n100000)|BenchmarkRoundMillion' \
        -benchmem -benchtime "$BENCHTIME" -count "$COUNT" -timeout 60m \
        ${PROFILE_FLAGS[@]+"${PROFILE_FLAGS[@]}"} ./internal/core/ | tee "$TMP"
else
    # Profiles only make sense on one package; attach them to the
    # core-engine run, which is what the perf work targets. The
    # parenthesized second pattern level (go's -bench splits top-level |
    # into whole slash-path alternatives) keeps the sharded scale sweep
    # (n10000/*, n100000 — covered by -shards mode) out of the round
    # baseline while matching the n=1000 round cases. traced/flight are
    # the causal-tracer overhead rows (same fixture as incremental, with
    # full-capture and flight-recorder rings respectively); CI's -failonly
    # gate covers only incremental|full — the tracing-DISABLED path must
    # stay within the regression limit, while the enabled rows are
    # informational (tracing is an opt-in debugging mode).
    go test -run '^$' -bench 'BenchmarkRebuildTrees|BenchmarkRoundChurn/(incremental|full|traced|flight)' \
        -benchmem -benchtime "$BENCHTIME" -count "$COUNT" \
        ${PROFILE_FLAGS[@]+"${PROFILE_FLAGS[@]}"} ./internal/core/ | tee "$TMP"
    go test -run '^$' -bench 'BenchmarkDelayWarm' \
        -benchmem -benchtime "$BENCHTIME" -count "$COUNT" ./internal/physical/ | tee -a "$TMP"
fi

# Host record: single-core container numbers look wildly different from
# multi-core ones, so every emitted baseline carries the environment it
# was measured in instead of relying on a prose footnote.
NUMCPU="$(getconf _NPROCESSORS_ONLN 2>/dev/null || nproc)"
CPUMODEL="$( (sed -n 's/^model name[[:space:]]*: //p' /proc/cpuinfo 2>/dev/null || true) | head -n 1)"

{
    printf '{\n  "benchtime": "%s",\n  "go": "%s",\n  "cpu": "%s",\n  "numcpu": %s,\n  "gomaxprocs": %s,\n  "os": "%s",\n  "arch": "%s",\n  "benchmarks": [\n' \
        "$BENCHTIME" "$(go env GOVERSION)" "${CPUMODEL:-unknown}" "$NUMCPU" "${GOMAXPROCS:-$NUMCPU}" \
        "$(go env GOHOSTOS)" "$(go env GOHOSTARCH)"
    awk '
        /^Benchmark/ {
            name = $1; sub(/-[0-9]+$/, "", name)
            line = sprintf("    {\"name\": \"%s\", \"iterations\": %s", name, $2)
            for (i = 3; i < NF; i += 2)
                line = line sprintf(", \"%s\": %s", $(i + 1), $i)
            lines[n++] = line "}"
        }
        END {
            for (i = 0; i < n; i++)
                printf "%s%s\n", lines[i], (i < n - 1 ? "," : "")
        }
    ' "$TMP"
    printf '  ]\n}\n'
} > "$TMPJSON"

if [ -n "$COMPARE" ]; then
    [ -f "$BASE" ] || { echo "bench.sh: baseline $BASE not found" >&2; exit 1; }
    echo
    echo "vs $BASE:"
    awk -v fail="${FAIL:-0}" -v failre="${FAILRE:-.}" '
        function parse(line) {
            match(line, /"name": "[^"]*"/)
            name = substr(line, RSTART + 9, RLENGTH - 10)
            match(line, /"ns\/op": [0-9.e+-]+/)
            ns = substr(line, RSTART + 9, RLENGTH - 9) + 0
            # merge-ns/op (sharded rounds only) and rebuild-ns/op gate
            # alongside ns/op: a benchmark that holds its total but
            # regresses one phase is exactly the regression these
            # metrics exist to catch — the repair kernel lives entirely
            # inside rebuild-ns/op, and losing it shows nowhere else
            # this precisely.
            mns = -1
            if (match(line, /"merge-ns\/op": [0-9.e+-]+/))
                mns = substr(line, RSTART + 15, RLENGTH - 15) + 0
            rns = -1
            if (match(line, /"rebuild-ns\/op": [0-9.e+-]+/))
                rns = substr(line, RSTART + 17, RLENGTH - 17) + 0
        }
        # Asymmetric fold: the baseline folds repeated entries to their
        # median (typical committed performance — one lucky-fast write
        # run must not tighten the gate), the fresh side to its minimum
        # (a regression must show in even the best run — one slow-window
        # run must not fire it). Insertion sort keeps this mawk-clean.
        function median(vals, cnt,    i, j, t, m) {
            for (i = 2; i <= cnt; i++) {
                t = vals[i]
                for (j = i - 1; j >= 1 && vals[j] > t; j--)
                    vals[j + 1] = vals[j]
                vals[j + 1] = t
            }
            m = int((cnt + 1) / 2)
            if (cnt % 2)
                return vals[m]
            return (vals[m] + vals[m + 1]) / 2
        }
        # Merge and rebuild rows ride the same min/median/gate machinery
        # as ns/op rows under ":merge-ns/op"/":rebuild-ns/op"-suffixed
        # names, so a -failonly pattern matching the benchmark (or the
        # suffix itself) gates those metrics too.
        /"name"/ && FILENAME == ARGV[1] {
            parse($0)
            bvals[name, ++bcnt[name]] = ns
            if (mns >= 0) {
                mn = name ":merge-ns/op"
                bvals[mn, ++bcnt[mn]] = mns
            }
            if (rns >= 0) {
                rn = name ":rebuild-ns/op"
                bvals[rn, ++bcnt[rn]] = rns
            }
            next
        }
        /"name"/ {
            parse($0)
            if (!(name in ccnt)) order[k++] = name
            cvals[name, ++ccnt[name]] = ns
            if (mns >= 0) {
                mn = name ":merge-ns/op"
                if (!(mn in ccnt)) order[k++] = mn
                cvals[mn, ++ccnt[mn]] = mns
            }
            if (rns >= 0) {
                rn = name ":rebuild-ns/op"
                if (!(rn in ccnt)) order[k++] = rn
                cvals[rn, ++ccnt[rn]] = rns
            }
        }
        END {
            printf "%-55s %14s %14s %8s\n", "benchmark", "base ns/op", "new ns/op", "delta"
            bad = 0
            for (i = 0; i < k; i++) {
                n = order[i]
                curns = cvals[n, 1]
                for (j = 2; j <= ccnt[n]; j++)
                    if (cvals[n, j] < curns) curns = cvals[n, j]
                if (n in bcnt) {
                    delete tmp
                    for (j = 1; j <= bcnt[n]; j++) tmp[j] = bvals[n, j]
                    basens = median(tmp, bcnt[n])
                } else
                    basens = 0
                if (basens > 0) {
                    delta = (curns - basens) / basens * 100
                    printf "%-55s %14.0f %14.0f %+7.1f%%\n", n, basens, curns, delta
                    if (fail > 0 && delta > fail && n ~ failre) {
                        printf "FAIL: %s regressed %+.1f%% (limit %.1f%%)\n", n, delta, fail
                        bad = 1
                    }
                } else
                    printf "%-55s %14s %14.0f\n", n, "-", curns
            }
            exit bad
        }
    ' "$BASE" "$TMPJSON"
else
    mv "$TMPJSON" "$OUT"
    TMPJSON="$TMP" # already consumed; keep the trap happy
    echo "wrote $OUT"
fi
