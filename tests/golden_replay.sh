#!/bin/sh
# Replay determinism gate: record-and-replay must be invisible. Each
# sweep runs at --quick live and with --replay, at --jobs 1 and 4, and
# every run must match the live --jobs 1 run byte for byte: the stdout
# tables and every per-run document (only batches.jsonl, which carries
# wall-clock values, is skipped). The --jobs 1 replay log must show
# kernels were actually skipped, so the gate cannot rot into diffing
# live against live. (At --jobs 4, which configs replay depends on
# timing; only the output is pinned there.)
#
# --metrics-dir arms the telemetry sampler, which keeps a replay from
# reusing the recorded cache outcome, so the bare-* modes replay with
# telemetry off and diff their stdout alone (the tables' times include
# the cache's memory cycles). The bare --jobs 1 log must show at least
# one cache outcome reused.
#
# usage: tests/golden_replay.sh BUILD_DIR
build=$1
out=${TMPDIR:-/tmp}/gpsm_golden_replay.$$
rm -rf "$out"
mkdir -p "$out"
status=0
for bin in fig01_thp_speedup fig03_tlb_miss_rates fig09_frag_sweep \
    ablation_out_of_core; do
    for mode in live-j1 live-j4 replay-j1 replay-j4 bare-j1 bare-j4; do
        run=$out/$bin.$mode
        flags="--quick --jobs ${mode#*-j}"
        case $mode in
            bare-*) flags="$flags --replay" ;;
            replay-*) flags="$flags --replay --metrics-dir $run.m" ;;
            *) flags="$flags --metrics-dir $run.m" ;;
        esac
        # shellcheck disable=SC2086
        if ! "$build"/bench/"$bin" $flags > "$run.txt" 2> "$run.err"
        then
            echo "FAIL: $bin ($mode) exited nonzero"
            cat "$run.err"
            status=1
            continue
        fi
        [ "$mode" = live-j1 ] && continue
        ref=$out/$bin.live-j1
        diff "$ref.txt" "$run.txt" || status=1
        case $mode in bare-*) continue ;; esac
        diff -r -x batches.jsonl "$ref.m" "$run.m" || status=1
        "$build"/tools/gpsm_report diff "$ref.m" "$run.m" \
            --fail-on-missing > /dev/null || status=1
    done
    if ! grep -Eq "replay: [0-9]+ streams recorded, [1-9][0-9]* kernels skipped" \
        "$out/$bin.replay-j1.err"; then
        echo "FAIL: $bin --replay --jobs 1 skipped no kernel"
        status=1
    fi
    if ! grep -Eq "kernels skipped, [1-9][0-9]* cache outcomes reused" \
        "$out/$bin.bare-j1.err"; then
        echo "FAIL: $bin --replay --jobs 1 without telemetry reused no cache outcome"
        status=1
    fi
done
rm -rf "$out"
exit $status
