#!/bin/sh
# Every front end rejects bad input: each row below must exit nonzero
# without crashing (exit status below 128, so no abort), print exactly
# one `fatal:` line and name the offending flag on stderr. A typo'd flag
# must never run the wrong experiment. A batch whose configs fail is
# handled, not fatal: it reports each failure and prints no `fatal:`.
#
# usage: tests/cli_bad_input.sh BUILD_DIR
# Rows: the flag the message must name, then the command line with its
# binary relative to BUILD_DIR.
build=$1
err=${TMPDIR:-/tmp}/gpsm_cli_bad_input.$$
status=0
while read -r flag cmd; do
    [ -n "$flag" ] || continue
    # shellcheck disable=SC2086 # the row's words are the argv
    "$build"/$cmd > /dev/null 2> "$err"
    rc=$?
    if [ "$rc" -eq 0 ] || [ "$rc" -ge 128 ]; then
        echo "FAIL (exit $rc): $cmd"
        status=1
    elif ! grep -q -- "$flag" "$err"; then
        echo "FAIL (no mention of $flag): $cmd"
        cat "$err"
        status=1
    elif [ "$(grep -c '^fatal:' "$err")" -ne 1 ]; then
        echo "FAIL (not exactly one fatal: line): $cmd"
        cat "$err"
        status=1
    fi
done <<'TABLE'
--jobs              bench/fig01_thp_speedup --jobs banana
--shard             bench/fig01_thp_speedup --shard 0/0
--shard             bench/fig01_thp_speedup --shard 3/2
--oo-ratio          bench/ablation_out_of_core --oo-ratio 2cows
--eviction          bench/ablation_out_of_core --eviction mru
--requests          bench/bench_serve --requests abc
--connections       bench/bench_serve --connections abc
--workers           bench/bench_serve --workers abc
--kills             bench/bench_serve --kills abc
--kill-interval-ms  bench/bench_serve --kill-interval-ms abc
--divisor           tools/gpsm_run --divisor 12cows
--timeout-seconds   tools/gpsm_run --timeout-seconds fast
--oo-ratio          tools/gpsm_run --oo-ratio banana
--oo-ratio          tools/gpsm_run --oo-ratio -1
--eviction          tools/gpsm_run --eviction fifo
--order             tools/gpsm_run --order bogus
--replay            tools/gpsm_run --replay
--eviction          tools/gpsm_serve --submit --eviction mru
--tolerance         tools/gpsm_report diff a b --tolerance abc
--tolerance         tools/gpsm_report diff a b --tolerance -0.1
--tolerance-metric  tools/gpsm_report diff a b --tolerance-metric kernel=x
TABLE
"$build"/tools/gpsm_run --app bfs,pr --dataset kron,nope --divisor 1024 \
    > /dev/null 2> "$err"
rc=$?
if [ "$rc" -ne 1 ] || grep -q '^fatal:' "$err" ||
    [ "$(grep -c "^FAILED \[exception\] .*nope" "$err")" -ne 2 ]; then
    echo "FAIL (exit $rc): a batch with a bad dataset must report two" \
        "FAILED [exception] lines and no fatal: line"
    cat "$err"
    status=1
fi
rm -f "$err"
exit $status
