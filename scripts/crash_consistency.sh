#!/usr/bin/env bash
#
# Crash-consistency harness: a campaign that is interrupted and then
# resumed must leave exactly the artifacts of an uninterrupted run.
#
#   scripts/crash_consistency.sh MODE BIN_DIR WORKDIR
#
#   MODE     session | sancheck | fleet | semdedup
#   BIN_DIR  directory of the built front ends (compdiff_cli,
#            compdiff_sancheck, compdiff_fleet, compdiff_monitor)
#   WORKDIR  recreated on start, removed on success, kept on failure
#            for post-mortem
#
# Every mode starts an uninterrupted reference campaign and a victim
# of the same campaign side by side, interrupts the victim
# (--halt-after, or kill -9 once a trigger fires), resumes it, and
# byte-compares the deterministic artifacts: journals, fuzzer_stats
# without its wall-clock lines, the `compdiff_monitor --stable`
# snapshot and, where the mode writes them, the report trees.
# tests/CMakeLists.txt registers each mode as the ctest test
# crash_consistency.<mode>.

set -Eeuo pipefail

if [ $# -ne 3 ]; then
    echo "usage: $0 session|sancheck|fleet|semdedup BIN_DIR WORKDIR" >&2
    exit 2
fi
mode="$1"
cli="$2/compdiff_cli"
sancheck="$2/compdiff_sancheck"
fleet="$2/compdiff_fleet"
monitor="$2/compdiff_monitor"
work="$3"
repo_root="$(cd "$(dirname "$0")/.." && pwd)"

fail() {
    echo "crash_consistency $mode: $*" >&2
    exit 1
}

# Background campaigns by name; `ended` reaps them, and whatever is
# still running when the harness exits is stopped.
declare -A pid=()

finish() {
    local rc=$? p
    for p in "${pid[@]}"; do
        kill "$p" 2> /dev/null || true
    done
    if [ "$rc" -eq 0 ]; then
        rm -rf "$work"
    elif [ -d "$work" ]; then
        echo "crash_consistency $mode: FAILED; evidence kept in $work" >&2
    fi
}
trap finish EXIT
trap 'echo "crash_consistency $mode: line $LINENO: $BASH_COMMAND" >&2' ERR

# start NAME CMD... : run CMD in the background, output in NAME.out.
start() {
    local name="$1"
    shift
    "$@" > "$work/$name.out" 2>&1 &
    pid[$name]=$!
}

# ended NAME CODE... : wait for NAME; its exit status must be a CODE.
ended() {
    local name="$1" rc
    shift
    wait "${pid[$name]}" 2> /dev/null && rc=0 || rc=$?
    unset "pid[$name]"
    [[ " $* " == *" $rc "* ]] ||
        fail "$name exited $rc, expected one of: $* (see $work/$name.out)"
}

# kill_when NAME journal FILE BYTES : kill -9 NAME once FILE holds
#                                     more than BYTES
# kill_when NAME lease SESSION      : kill -9 a fleet worker named by
#                                     a shard lease in SESSION
# Fails when NAME exits before the trigger fires: a victim that was
# never interrupted proves nothing.
kill_when() {
    local name="$1" trigger="$2" path="$3" victim="${pid[$1]}" target
    while kill -0 "$victim" 2> /dev/null; do
        case "$trigger" in
        journal)
            if [ -f "$path" ] && [ "$(wc -c < "$path")" -gt "$4" ] &&
                kill -9 "$victim" 2> /dev/null; then
                # Only a signal death shows the kill beat the exit.
                ended "$name" 137
                return 0
            fi
            ;;
        lease)
            for target in $(awk '/^pid/{print $3}' \
                "$path"/shard-*.lease 2> /dev/null || true); do
                kill -9 "$target" 2> /dev/null && return 0
            done
            ;;
        esac
        sleep 0.02
    done
    fail "$name exited before the $trigger trigger on $path fired"
}

# Comparing two missing files would pass as two empty streams, so
# every comparison first requires both sides to exist and be
# non-empty.
present() {
    local f
    for f in "$@"; do
        [ -s "$f" ] || fail "missing or empty: $f"
    done
}

journals_equal() {
    present "$1" "$2"
    cmp "$1" "$2" || fail "$2 differs from the reference"
}

stats_equal() {
    local volatile='^(run_time|execs_per_sec|session_restarts)'
    present "$1" "$2"
    diff <(grep -Ev "$volatile" "$1") <(grep -Ev "$volatile" "$2") ||
        fail "$2 differs from the reference"
}

# The session leaf names match in both trees, so labels line up.
monitor_stable_equal() {
    "$monitor" --stable "$1" > "$1.stable"
    "$monitor" --stable "$2" > "$2.stable"
    journals_equal "$1.stable" "$2.stable"
}

# same_results REF RUN LEAF FILE... : session RUN/LEAF matches
# REF/LEAF: every FILE byte-for-byte, fuzzer_stats, monitor snapshot.
same_results() {
    local ref="$1" run="$2" leaf="$3" f
    shift 3
    for f in "$@"; do
        journals_equal "$ref/$leaf/$f" "$run/$leaf/$f"
    done
    stats_equal "$ref/$leaf/fuzzer_stats" "$run/$leaf/fuzzer_stats"
    monitor_stable_equal "$ref" "$run"
}

session_mode() {
    local pkt=(--quiet --target=pktdump)

    # Halt at half budget; the resume also reduces what it found
    # under an LRU-bounded compile cache: witness replays hit the
    # resident original-program modules, reduction candidates miss
    # and force evictions.
    start ref "$cli" "${pkt[@]}" --fuzz=1000 --session="$work/ref/pkt"
    "$cli" "${pkt[@]}" --fuzz=1000 --session="$work/halt/pkt" \
        --halt-after=500 > "$work/halt.out"
    grep -q 'session halted' "$work/halt.out"
    test ! -f "$work/halt/pkt/fuzzer_stats" # halted: checkpoints only
    "$cli" "${pkt[@]}" --fuzz=1000 --session="$work/halt/pkt" --resume \
        --reduce=100 --cache-entries=11 \
        --metrics-out="$work/halt.metrics.jsonl" \
        > "$work/halt_resume.out" || test $? -eq 1
    ended ref 0 1
    # No monitor snapshot here: it shows the metrics histograms,
    # which only the resume exported.
    journals_equal "$work/ref/pkt/divergences.journal" \
        "$work/halt/pkt/divergences.journal"
    journals_equal "$work/ref/pkt/plot_data" "$work/halt/pkt/plot_data"
    stats_equal "$work/ref/pkt/fuzzer_stats" "$work/halt/pkt/fuzzer_stats"
    grep -q '^session_restarts *: 1' "$work/halt/pkt/fuzzer_stats"
    grep -q 'cache.hit' "$work/halt.metrics.jsonl"
    grep -q 'cache.miss' "$work/halt.metrics.jsonl"
    grep -q 'cache.evict' "$work/halt.metrics.jsonl"
    # Resuming with a different campaign must fail loudly.
    "$cli" "${pkt[@]}" --fuzz=2000 --session="$work/halt/pkt" --resume \
        > "$work/mismatch.out" 2>&1 && rc=0 || rc=$?
    test "$rc" -eq 2
    grep -q 'exact campaign configuration' "$work/mismatch.out"

    # kill -9 after the first checkpoint: the heartbeat still claims
    # "running" but the pid is gone, so the monitor reads the worker
    # as dead, and the last checkpoint still holds its execs.
    local long=("${pkt[@]}" --fuzz=4000 --checkpoint-every=500)
    start ref_kill "$cli" "${long[@]}" --session="$work/ref_kill/pkt"
    start kill "$cli" "${long[@]}" --session="$work/kill/pkt"
    kill_when kill journal "$work/kill/pkt/shard-0.journal" 1024
    "$monitor" "$work/kill" > "$work/kill_table.out"
    grep -q 'dead' "$work/kill_table.out"
    "$monitor" --format=prom "$work/kill" > "$work/kill.prom"
    grep -Eq '^compdiff_shard_health\{session="pkt",shard="0",state="dead"\} 1$' \
        "$work/kill.prom"
    grep -Eq '^compdiff_shard_execs\{session="pkt",shard="0"\} [1-9]' \
        "$work/kill.prom"
    "$cli" "${long[@]}" --session="$work/kill/pkt" --resume \
        > "$work/kill_resume.out" || test $? -eq 1
    ended ref_kill 0 1
    same_results "$work/ref_kill" "$work/kill" pkt \
        divergences.journal plot_data
}

sancheck_mode() {
    local msan_fn='san:clang-O1+msan:uninit-read:FN'

    # A short unsharded campaign already meets the MSan blind spot.
    start short "$sancheck" --quiet --fuzz=2000

    # Halt, then resume with a different job count.
    local small=(--quiet --fuzz=3000 --shards=2)
    start ref "$sancheck" "${small[@]}" --session="$work/ref/lab"
    "$sancheck" "${small[@]}" --session="$work/halt/lab" \
        --halt-after=750 > "$work/halt.out"
    grep -q 'session halted' "$work/halt.out"
    "$sancheck" "${small[@]}" --jobs=2 --session="$work/halt/lab" \
        --resume > "$work/halt_resume.out" || test $? -eq 1
    ended ref 0 1
    same_results "$work/ref" "$work/halt" lab \
        shard-0.events.jsonl shard-1.events.jsonl divergences.journal
    grep -q 'mode : sancheck' "$work/halt/lab/MANIFEST"

    # kill -9 mid-run; the resumed run still reports the MSan FN.
    local big=(--quiet --fuzz=30000 --shards=2)
    start ref_kill "$sancheck" "${big[@]}" --session="$work/ref_kill/lab"
    start kill "$sancheck" "${big[@]}" --session="$work/kill/lab"
    kill_when kill journal "$work/kill/lab/shard-0.journal" 1024
    "$sancheck" "${big[@]}" --session="$work/kill/lab" --resume \
        > "$work/kill_resume.out" && rc=0 || rc=$?
    test "$rc" -eq 1
    grep -q "$msan_fn" "$work/kill_resume.out"
    ended ref_kill 0 1
    same_results "$work/ref_kill" "$work/kill" lab \
        shard-0.events.jsonl shard-1.events.jsonl divergences.journal
    grep -q 'san findings :' "$work/kill.stable"
    "$monitor" --format=prom "$work/ref_kill" > "$work/ref_kill.prom"
    grep -Eq '^compdiff_campaign_san_fn\{session="lab"\} [1-9]' \
        "$work/ref_kill.prom"

    ended short 0 1
    grep -q "$msan_fn" "$work/short.out"
}

fleet_mode() {
    # A 3-worker fleet survives a SIGKILLed worker (pid taken from
    # its shard lease) and matches a single-process run.
    local pkt=(--quiet --target=pktdump --fuzz=4500 --shards=3
        --checkpoint-every=200)
    start ref "$cli" "${pkt[@]}" --session="$work/ref/pkt"
    start fleet "$fleet" "${pkt[@]}" --workers=3 --poll-every=0.02 \
        --session="$work/run/pkt"
    kill_when fleet lease "$work/run/pkt"
    ended fleet 0 1
    grep -q 'fleet_revive' "$work/run/pkt/fleet.jsonl"
    ended ref 0 1
    same_results "$work/ref" "$work/run" pkt divergences.journal
    # Outside --stable mode the monitor surfaces the fleet history.
    "$monitor" "$work/run" > "$work/monitor_live.out"
    grep -Eq 'fleet pkt : [0-9]+ spawns, [1-9][0-9]* revivals' \
        "$work/monitor_live.out"
}

semdedup_mode() {
    # tests/data/semdedup_smoke.mc carries two alpha-variant
    # bugRemPow2 witnesses behind probe-distinguished branches: the
    # campaign files two divergences, and after reduction both
    # canonicalize to one form, so triage writes exactly one
    # sig-<semantic-key> bundle with both witnesses under variants/.
    # gcc:-O2 keeps reduction from drifting to an uninit-read
    # divergence.
    local sem=(--quiet --impls=clang:-O2,clang:-O0,gcc:-O2 --fuzz=60000
        --reduce --checkpoint-every=500)
    local program="$repo_root/tests/data/semdedup_smoke.mc"
    start ref "$cli" "${sem[@]}" --session="$work/ref/smoke" \
        --reports-out="$work/ref-reports" "$program"
    start kill "$cli" "${sem[@]}" --session="$work/kill/smoke" \
        --reports-out="$work/kill-reports" "$program"
    kill_when kill journal "$work/kill/smoke/shard-0.journal" 4096
    "$cli" "${sem[@]}" --session="$work/kill/smoke" --resume \
        --reports-out="$work/kill-reports" "$program" \
        > "$work/kill_resume.out" || test $? -eq 1
    ended ref 0 1

    grep -Eq 'saved_diffs *: 2' "$work/ref/smoke/fuzzer_stats"
    test "$(ls -d "$work"/ref-reports/sig-* | wc -l)" -eq 1
    local bundle
    bundle="$(ls -d "$work"/ref-reports/sig-*)"
    test -f "$bundle/variants/v0/program.mc"
    test -f "$bundle/variants/v1/program.mc"
    grep -q '## Merged variants' "$bundle/report.md"
    grep -q 'first divergent instruction' "$bundle/report.md"
    "$monitor" --format=prom "$work/ref" > "$work/ref.prom"
    grep -Eq '^compdiff_campaign_uniq_sem\{session="smoke"\} 1$' \
        "$work/ref.prom"

    # The resumed report tree, merged bundle and variants/ included,
    # matches the uninterrupted one byte-for-byte.
    diff -r "$work/ref-reports" "$work/kill-reports" ||
        fail "report tree differs from the reference"
    same_results "$work/ref" "$work/kill" smoke divergences.journal
}

declare -F "${mode}_mode" > /dev/null || fail "unknown mode"
rm -rf "$work"
mkdir -p "$work"
"${mode}_mode"
echo "crash_consistency $mode: OK"
