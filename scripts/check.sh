#!/usr/bin/env bash
#
# Tier-1 verification: configure, build, and the whole ctest suite.
#
#   scripts/check.sh                 configure + build + ctest
#   scripts/check.sh --smoke <cli>   the end-to-end smoke only, against
#                                    an already built compdiff_cli
#                                    binary (this is what the
#                                    `obs_smoke` CTest test runs, so
#                                    plain `ctest` exercises it without
#                                    recursing into itself)
#
# The smoke drives the built front ends: telemetry export validated
# with the built-in JSON checker (`compdiff_cli --validate-json`),
# reduction bundles, the flag contract, the monitor and the sanitizer
# sweep. Interrupt/resume identity is scripts/crash_consistency.sh's
# job (the `crash_consistency.<mode>` CTest tests).

set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"

smoke() {
    local cli="$1"
    local tmp
    tmp="$(mktemp -d)"
    trap 'rm -rf "$tmp"' RETURN

    echo "== obs smoke: single-input diff with trace + metrics"
    # The built-in demo diverges, so the CLI exits 1 by design.
    "$cli" --quiet \
        --trace-out="$tmp/trace.json" \
        --metrics-out="$tmp/metrics.jsonl" \
        > "$tmp/diff.out" || test $? -eq 1
    "$cli" --validate-json="$tmp/trace.json"
    grep -q '"traceEvents"' "$tmp/trace.json"
    grep -q 'exec\.' "$tmp/trace.json"
    grep -q 'normalize' "$tmp/trace.json"
    grep -q 'compdiff.compare' "$tmp/trace.json"
    grep -q 'compile\.' "$tmp/trace.json"
    # Each JSONL line must itself be valid JSON.
    while IFS= read -r line; do
        [ -z "$line" ] && continue
        printf '%s' "$line" > "$tmp/line.json"
        "$cli" --validate-json="$tmp/line.json" > /dev/null
    done < "$tmp/metrics.jsonl"

    echo "== impls smoke: --impls=paper10 reproduces the default oracle"
    # Explicitly spelling the alias must behave exactly like the
    # default: the demo diverges (exit 1).
    "$cli" --quiet --impls=paper10 > "$tmp/paper10.out" && rc=0 || rc=$?
    test "$rc" -eq 1
    grep -q 'DIVERGENT across 10 implementations' "$tmp/paper10.out"

    echo "== impls smoke: --impls=gcc:-O0,ref cross-backend pair"
    # The demo's unstable guard needs an optimizing configuration to
    # misbehave; gcc-O0 and the reference interpreter agree (exit 0).
    "$cli" --quiet --impls=gcc:-O0,ref > "$tmp/ref.out"
    grep -q 'consistent across 2 implementations' "$tmp/ref.out"

    echo "== reduce smoke: campaign + minimized bug bundles"
    # Deterministic campaign target; --reduce minimizes every unique
    # divergence under a hard candidate budget (keeps CI wall time
    # bounded) and --reports-out bundles each one. Exit 1 = found
    # divergences, by design.
    "$cli" --quiet --target=pktdump --fuzz=2000 --reduce=200 \
        --reports-out="$tmp/reports" > "$tmp/reduce.out" || test $? -eq 1
    report="$(find "$tmp/reports" -name report.md | head -n 1)"
    test -n "$report"
    bundle="$(dirname "$report")"
    test -s "$bundle/program.mc"
    test -s "$bundle/input.bin"
    grep -q '^# Divergence report sig-' "$report"
    grep -q '^## Reproduce' "$report"
    # The minimized witness must still diverge when replayed.
    "$cli" --quiet "$bundle/program.mc" "$bundle/input.bin" \
        > "$tmp/replay.out" && rc=0 || rc=$?
    test "$rc" -eq 1
    grep -q 'DIVERGENT' "$tmp/replay.out"

    echo "== obs smoke: fuzz campaign with fuzzer_stats + plot_data"
    "$cli" --quiet --fuzz=400 \
        --stats-out="$tmp/fuzzer_stats" \
        --plot-out="$tmp/plot_data" \
        --trace-out="$tmp/fuzz_trace.json" \
        > "$tmp/fuzz.out" || test $? -eq 1
    "$cli" --validate-json="$tmp/fuzz_trace.json"
    grep -q '^execs_done' "$tmp/fuzzer_stats"
    grep -q '^compdiff_execs' "$tmp/fuzzer_stats"
    grep -q '^execs_impl_' "$tmp/fuzzer_stats"
    grep -q '^run_time' "$tmp/fuzzer_stats"
    grep -q '^# execs' "$tmp/plot_data"

    echo "== usage smoke: one flag contract for every front end"
    # All five binaries parse through the one flag table: --help
    # exits 0 with the usage line; an unknown flag, a malformed count
    # and an unknown --impls spec exit 2 with a first line naming the
    # flag, then the usage.
    for bin in compdiff_cli compdiff_sancheck compdiff_fleet \
               compdiff_monitor fuzz_packetdump; do
        exe="$(dirname "$cli")/$bin"
        "$exe" --help > "$tmp/help.out"
        grep -q "^usage: $bin" "$tmp/help.out"
        "$exe" --no-such-flag > "$tmp/usage.out" 2>&1 && rc=0 || rc=$?
        test "$rc" -eq 2
        head -n 1 "$tmp/usage.out" | grep -q 'unknown option --no-such-flag'
        grep -q "^usage: $bin" "$tmp/usage.out"
        "$exe" --jobs=abc > "$tmp/jobs.out" 2>&1 && rc=0 || rc=$?
        test "$rc" -eq 2
        head -n 1 "$tmp/jobs.out" | grep -q -- '--jobs'
        grep -q "^usage: $bin" "$tmp/jobs.out"
        # An unknown implementation spec is a usage error too.
        case "$bin" in
        compdiff_cli | compdiff_sancheck | compdiff_fleet)
            "$exe" --impls=bogus > "$tmp/impls.out" 2>&1 && rc=0 || rc=$?
            test "$rc" -eq 2
            head -n 1 "$tmp/impls.out" | grep -q -- '--impls'
            grep -q "^usage: $bin" "$tmp/impls.out"
            ;;
        esac
    done

    echo "== monitor smoke: aggregate a finished sharded session tree"
    monitor="$(dirname "$cli")/compdiff_monitor"
    "$cli" --quiet --target=pktdump --fuzz=1500 --shards=3 \
        --session="$tmp/mon/pkt" --checkpoint-every=200 \
        > "$tmp/mon.out" || test $? -eq 1
    "$monitor" "$tmp/mon" > "$tmp/mon_table.out"
    grep -q 'pkt' "$tmp/mon_table.out"
    grep -q 'complete' "$tmp/mon_table.out"
    grep -q 'total execs : 1500' "$tmp/mon_table.out"
    # The JSON document parses; the prom exposition has the right
    # line shapes and totals for every shard.
    "$monitor" --format=json "$tmp/mon" > "$tmp/mon.json"
    "$cli" --validate-json="$tmp/mon.json"
    "$monitor" --format=prom "$tmp/mon" > "$tmp/mon.prom"
    grep -q '^# TYPE compdiff_campaign_execs gauge' "$tmp/mon.prom"
    grep -Eq '^compdiff_campaign_execs\{session="pkt"\} 1500$' \
        "$tmp/mon.prom"
    for shard in 0 1 2; do
        grep -Eq "^compdiff_shard_health\{session=\"pkt\",shard=\"$shard\",state=\"complete\"\} 1$" \
            "$tmp/mon.prom"
        grep -Eq "^compdiff_shard_execs\{session=\"pkt\",shard=\"$shard\"\} 500$" \
            "$tmp/mon.prom"
    done
    # Byte-stable: repeat scans of a finished tree agree exactly.
    "$monitor" --stable "$tmp/mon" > "$tmp/mon_stable1.out"
    "$monitor" --stable "$tmp/mon" > "$tmp/mon_stable2.out"
    cmp "$tmp/mon_stable1.out" "$tmp/mon_stable2.out"
    # No sessions found is a distinct, scriptable failure (exit 1).
    mkdir -p "$tmp/mon_empty"
    "$monitor" "$tmp/mon_empty" > /dev/null 2>&1 && rc=0 || rc=$?
    test "$rc" -eq 1

    echo "== sancheck smoke: seeded sanitizer defects"
    # The flipped oracle (DESIGN.md §14): the fixed sweep over the
    # bundled sanlab target must surface exactly the four seeded
    # sanitizer defects (exit 1 = findings, by design).
    sancheck="$(dirname "$cli")/compdiff_sancheck"
    "$sancheck" --quiet > "$tmp/san_sweep.out" && rc=0 || rc=$?
    test "$rc" -eq 1
    grep -q 'findings : 3 FN, 1 FP' "$tmp/san_sweep.out"
    grep -q 'FN x1 FP x1' "$tmp/san_sweep.out" # the -O2 UBSan defect
    # A short campaign rediscovers them, reduces each unique finding,
    # and writes sig-<hex>/ bundles naming the certified UB site and
    # the silent sanitizer.
    "$sancheck" --quiet --fuzz=3000 --shards=2 \
        --session="$tmp/san_full" --reduce=300 \
        --reports-out="$tmp/san_reports" > "$tmp/san_full.out" \
        && rc=0 || rc=$?
    test "$rc" -eq 1
    for sig in 'san:clang-O1+msan:uninit-read:FN' \
               'san:clang-O2+ubsan:signed-overflow:FN' \
               'san:clang-O2+ubsan:signed-overflow:FP' \
               'san:clang-O1+asan:out-of-bounds:FN'; do
        grep -q "$sig" "$tmp/san_full.out"
    done
    msan_report="$(grep -l 'san:clang-O1+msan:uninit-read:FN' \
        "$tmp"/san_reports/sig-*/report.md | head -n 1)"
    test -n "$msan_report"
    grep -q 'certified UB site' "$msan_report"
    grep -q 'silent' "$msan_report"
    # The bundle's reproduce command still observes the finding
    # (exit 1) on the minimized pair.
    msan_bundle="$(dirname "$msan_report")"
    "$sancheck" --quiet --program="$msan_bundle/program.mc" \
        --input="$msan_bundle/input.bin" --impls=clang:-O1:msan \
        > "$tmp/san_replay.out" && rc=0 || rc=$?
    test "$rc" -eq 1
    grep -q 'uninit-read:FN' "$tmp/san_replay.out"
    # The monitor surfaces the sancheck columns for such sessions.
    "$monitor" --stable "$tmp/san_full" > "$tmp/san_mon.out"
    grep -q 'san_fn' "$tmp/san_mon.out"
    grep -q 'san findings : 3 FN, 1 FP' "$tmp/san_mon.out"
    "$monitor" --format=prom "$tmp/san_full" > "$tmp/san.prom"
    grep -Eq '^compdiff_campaign_san_fn\{session="san_full"\} 3$' \
        "$tmp/san.prom"
    grep -Eq '^compdiff_campaign_san_fp\{session="san_full"\} 1$' \
        "$tmp/san.prom"

    echo "== bench_compare unit: missing entries skip, gate enforces"
    if command -v python3 > /dev/null 2>&1; then
        bench_py="$repo_root/scripts/bench_compare.py"
        cat > "$tmp/bench_base.json" << 'EOF'
{"benchmarks": [
  {"name": "bm_shared", "items_per_second": 1000.0},
  {"name": "bm_baseline_only", "items_per_second": 500.0}
]}
EOF
        cat > "$tmp/bench_ok.json" << 'EOF'
{"benchmarks": [
  {"name": "bm_shared", "items_per_second": 990.0},
  {"name": "bm_new", "items_per_second": 10.0},
  {"name": "bm_unusable", "real_time": 0.0}
]}
EOF
        # Entries missing from the baseline (or unusable) are skipped
        # with a warning — never a KeyError — and do not fail --strict.
        python3 "$bench_py" --baseline "$tmp/bench_base.json" \
            --strict "$tmp/bench_ok.json" > "$tmp/bench_ok.out" 2>&1
        grep -q 'no baseline entry; skipped' "$tmp/bench_ok.out"
        grep -q 'bm_unusable.*no usable throughput' "$tmp/bench_ok.out"
        grep -q 'dropped from current run' "$tmp/bench_ok.out"
        cat > "$tmp/bench_bad.json" << 'EOF'
{"benchmarks": [{"name": "bm_shared", "items_per_second": 100.0}]}
EOF
        # A 90% drop: warn-only exits 0, --strict fails, a tolerance
        # wider than the drop passes again.
        python3 "$bench_py" --baseline "$tmp/bench_base.json" \
            "$tmp/bench_bad.json" > "$tmp/bench_warn.out"
        grep -q 'WARNING' "$tmp/bench_warn.out"
        python3 "$bench_py" --baseline "$tmp/bench_base.json" \
            --strict "$tmp/bench_bad.json" > /dev/null 2>&1 \
            && rc=0 || rc=$?
        test "$rc" -eq 1
        python3 "$bench_py" --baseline "$tmp/bench_base.json" \
            --strict --tolerance 95 "$tmp/bench_bad.json" > /dev/null
    else
        echo "   (python3 not found; skipped)"
    fi

    echo "== obs smoke: OK"
}

if [ "${1:-}" = "--smoke" ]; then
    smoke "$2"
    exit 0
fi

build_dir="${BUILD_DIR:-$repo_root/build}"

echo "== configure"
cmake -B "$build_dir" -S "$repo_root"
echo "== build"
cmake --build "$build_dir" -j "$(nproc)"
echo "== ctest"
(cd "$build_dir" && ctest --output-on-failure -j "$(nproc)")
echo "== all checks passed"
