#!/bin/sh
# Golden gate: each case (a bench binary at --quick, or a gpsm_run line)
# reproduces its capture in tests/golden/<case>/: stdout.txt verbatim,
# and a manifest of one `cksum` line per per-run document (run, series
# and trace; batches.jsonl carries wall-clock values and is left out).
# Every case runs mode ref, plus the modes its row lists; what each mode
# runs and checks is in run_mode and in tests/golden/README.md.
#
# usage: tests/golden.sh BUILD_DIR CASE    check one case
#        tests/golden.sh --regen BUILD_DIR [CASE...]
#                           rewrite the capture from mode ref (every
#                           case when none is named)
#        tests/golden.sh --list   print each case and its mode count
#
# Runs go to a per-PID directory under $TMPDIR, removed when the case
# passes and kept (its path printed) when it fails.
export LC_ALL=C
capture=$(cd "$(dirname "$0")" && pwd)/golden

# case, modes beyond ref (- for none), command relative to BUILD_DIR
table() {
    cat <<'TABLE'
table2_datasets            -  bench/table2_datasets --quick
fig01    j1,build1,build4,profile,replay-j1,replay-j4,replay-bare-j1,replay-bare-j4  bench/fig01_thp_speedup --quick
fig02                      -  bench/fig02_translation_overhead --quick
fig03    j1,replay-j1,replay-j4,replay-bare-j1,replay-bare-j4  bench/fig03_tlb_miss_rates --quick
fig04                      -  bench/fig04_access_profile --quick
fig05                      -  bench/fig05_per_structure_thp --quick
fig06                      -  bench/fig06_frag_walkthrough --quick
fig07                      -  bench/fig07_pressure_alloc_order --quick
fig07b                     -  bench/fig07b_pressure_sweep --quick
fig08                      -  bench/fig08_frag_alloc_order --quick
fig09    j1,bare,resume,replay-j1,replay-j4,replay-bare-j1,replay-bare-j4  bench/fig09_frag_sweep --quick
fig10    build1,build4,shard  bench/fig10_selective_thp --quick
fig11                      -  bench/fig11_selectivity_sweep --quick
headline_summary           -  bench/headline_summary --quick
misc_dbg_overhead          -  bench/misc_dbg_overhead --quick
misc_page_cache            -  bench/misc_page_cache --quick
ablation_promotion_policy  -  bench/ablation_promotion_policy --quick
ablation_giant_pages       -  bench/ablation_giant_pages --quick
ablation_push_vs_pull      -  bench/ablation_push_vs_pull --quick
ablation_tlb_geometry      -  bench/ablation_tlb_geometry --quick
ablation_numa_placement    -  bench/ablation_numa_placement --quick
ablation_out_of_core  j1,replay-j1,replay-j4,replay-bare-j1,replay-bare-j4  bench/ablation_out_of_core --quick
gpsm_run_ooc_bfs  -  tools/gpsm_run --app bfs --dataset kron --divisor 512 --oo-ratio 2
gpsm_run_ooc_pr_lru  -  tools/gpsm_run --app pr --dataset kron --divisor 512 --oo-ratio 2 --eviction lru
TABLE
}

if [ "$1" = --list ]; then
    table | while read -r name modes cmd; do
        echo "$name $(echo "ref,$modes" | tr , '\n' | grep -vcx -- -)"
    done
    exit 0
fi
regen=0
[ "$1" = --regen ] && regen=1 && shift
build=$1
shift
if [ -z "$build" ] || { [ $regen = 0 ] && [ $# -ne 1 ]; }; then
    echo "usage: $0 BUILD_DIR CASE | --regen BUILD_DIR [CASE...] | --list"
    exit 2
fi
[ $# -gt 0 ] || set -- $(table | cut -d' ' -f1)
report=$build/tools/gpsm_report

fail() {
    echo "FAIL: $case $mode: $*"
    status=1
}

# go ASSIGNMENT|- FLAGS...: run the case's command with FLAGS (and the
# environment assignment, if any) into $m.out and $m.err.
go() {
    assign=$1
    shift
    # shellcheck disable=SC2086 # $cmd is the command's argv
    ( [ "$assign" = - ] || export "$assign"
        exec "$build"/$cmd "$@" ) > "$m.out" 2> "$m.err" < /dev/null &&
        return
    fail "exited nonzero"
    cat "$m.err"
    return 1
}

# The per-run documents of metrics directory $1, one cksum line each.
manifest() {
    [ -d "$1" ] || return 0
    (cd "$1" && for doc in *; do
        [ -f "$doc" ] && [ "$doc" != batches.jsonl ] && cksum "$doc"
    done)
}

# same FILE WANT: FILE must equal the capture's WANT.
same() {
    cmp -s "$capture/$case/$2" "$1" && return
    fail "$2 differs from the capture"
    diff "$capture/$case/$2" "$1" | head -20
}

run_mode() {
    m=$work/$mode
    case $mode in
    ref) go - --jobs 4 --metrics-dir "$m.m" ;;
    j1) go - --jobs 1 --metrics-dir "$m.m" ;;
    bare) go - --jobs 4 ;;
    build?) go "GPSM_BUILD_JOBS=${mode#build}" --jobs 2 --metrics-dir "$m.m" ;;
    profile) go - --jobs 2 --profile --metrics-dir "$m.m" ;;
    replay-j?) go - --jobs "${mode#replay-j}" --replay --metrics-dir "$m.m" ;;
    replay-bare-j?) go - --jobs "${mode#replay-bare-j}" --replay ;;
    shard) # the shards' union must equal the whole run
        m=$work/whole
        go - --jobs 2 --journal "$m.gpsmj" && same "$m.out" stdout.txt
        for m in "$work/shard1" "$work/shard2"; do
            go - --jobs 2 --shard "${m##*shard}/2" \
                --journal "$work/shards.gpsmj"
        done
        "$report" diff "$work/whole.gpsmj" "$work/shards.gpsmj" \
            --fail-on-missing > "$work/shard.diff" ||
            fail "the shards' union differs from the whole run"
        return ;;
    resume) # the second run must resume the first one's journal
        for m in "$work/resume1" "$work/resume2"; do
            go - --jobs 2 --journal "$work/resume.gpsmj" &&
                same "$m.out" stdout.txt
        done
        grep -q "results resumed" "$m.err" || fail "resumed nothing"
        return ;;
    *) fail "unknown mode"; return ;;
    esac || return
    same "$m.out" stdout.txt
    case $mode in ref | j1 | build? | replay-j?)
        manifest "$m.m" > "$m.manifest"
        same "$m.manifest" manifest ;;
    esac
    case $mode in
    ref) "$report" summary "$m.m" > "$m.summary" ||
        fail "gpsm_report summary failed" ;;
    profile)
        for doc in "$m.m"/run_*.json; do
            grep -q '"profile"' "$doc" || fail "$doc has no profile"
        done
        "$report" diff "$work/ref.m" "$m.m" --fail-on-missing \
            > "$m.diff" || fail "gpsm_report diff against ref"
        "$report" summary "$m.m" | grep -q "Host phase breakdown" ||
            fail "summary shows no host phase breakdown" ;;
    replay-j1) grep -Eq "[1-9][0-9]* kernels skipped" "$m.err" ||
        fail "skipped no kernel" ;;
    replay-bare-j1) grep -Eq "[1-9][0-9]* cache outcomes reused" "$m.err" ||
        fail "reused no cache outcome" ;;
    esac
}

status=0
for case in "$@"; do
    mode=ref
    row=$(table | awk -v c="$case" '$1 == c')
    [ -n "$row" ] || { fail "no such case"; continue; }
    modes=$(echo "$row" | awk '{ print $2 }' | tr , ' ')
    cmd=$(echo "$row" | awk '{ $1 = $2 = ""; sub(/^ +/, ""); print }')
    work=${TMPDIR:-/tmp}/gpsm_golden.$case.$$
    rm -rf "$work"
    mkdir -p "$work"
    before=$status
    status=0
    if [ $regen = 1 ]; then
        m=$work/ref
        go - --jobs 4 --metrics-dir "$m.m" &&
            "$report" summary "$m.m" > /dev/null &&
            mkdir -p "$capture/$case" &&
            cp "$m.out" "$capture/$case/stdout.txt" &&
            manifest "$m.m" > "$capture/$case/manifest" &&
            echo "regenerated $case" || fail "not regenerated"
    else
        for mode in ref $modes; do
            [ "$mode" = - ] || run_mode
        done
    fi
    if [ $status = 0 ]; then
        rm -rf "$work"
    else
        echo "kept the runs of $case in $work"
    fi
    [ $before = 0 ] || status=1
done
exit $status
