#!/bin/bash
# Run every bench binary, teeing combined output. Usage:
#   scripts/run_benches.sh [output_file] [bench flags...]
#
# The output file is the first argument when that argument does not
# start with '-' (default bench_output.txt); every other argument is
# forwarded unchanged to each bench binary. Every bench binary accepts
# the shared harness flags; micro_substrate and bench_serve run no
# experiments and ignore all of them except --quick.
#
# Robustness:
# - GPSM_BENCH_TIMEOUT (seconds) caps each bench's wall clock; an
#   overrun is killed and reported as TIMEOUT.
# - A failing or timed-out bench does not stop the suite: the rest
#   still run, a PASS/FAIL/TIMEOUT summary is printed, and the exit
#   code is nonzero if anything was not PASS.
# - Unless the flags name a --journal (or GPSM_NO_JOURNAL=1), results
#   are journaled next to the output file, so re-running after a kill
#   skips every experiment that already finished.
set -u

out=bench_output.txt
if [ $# -gt 0 ] && [ "${1#-}" = "$1" ]; then
    out=$1
    shift
fi
flags=("$@")

# Crash-safe resume by default: bench binaries skip journaled results.
case " $* " in
*" --journal "*) ;;
*)
    if [ "${GPSM_NO_JOURNAL:-0}" != 1 ]; then
        flags+=(--journal "${out%.txt}_journal.gpsmj")
    fi
    ;;
esac

# Per-bench wall-clock cap (seconds); empty disables.
bench_timeout=${GPSM_BENCH_TIMEOUT:-}

: > "$out"
status=0
names=()
verdicts=()
for b in build/bench/*; do
    [ -f "$b" ] && [ -x "$b" ] || continue
    echo "===== $b =====" >> "$out"
    cmd=("$b" ${flags[@]+"${flags[@]}"})
    if [ -n "$bench_timeout" ]; then
        # -k grants a grace period before SIGKILL backs up SIGTERM.
        cmd=(timeout -k 10 "$bench_timeout" "${cmd[@]}")
    fi
    "${cmd[@]}" >> "$out" 2>> "${out%.txt}_progress.log"
    rc=$?
    names+=("$(basename "$b")")
    if [ $rc -eq 0 ]; then
        verdicts+=("PASS")
    elif [ -n "$bench_timeout" ] && [ $rc -eq 124 ]; then
        verdicts+=("TIMEOUT after ${bench_timeout}s")
        echo "BENCH_TIMEOUT $b (${bench_timeout}s)" >> "$out"
        echo "BENCH_TIMEOUT $b (${bench_timeout}s)" >&2
        status=1
    else
        verdicts+=("FAIL (exit $rc)")
        echo "BENCH_FAILED $b (exit $rc)" >> "$out"
        echo "BENCH_FAILED $b (exit $rc)" >&2
        status=1
    fi
done

{
    echo "===== summary ====="
    for i in "${!names[@]}"; do
        printf '%-32s %s\n' "${names[$i]}" "${verdicts[$i]}"
    done
} | tee -a "$out" >&2

echo "ALL_BENCHES_DONE" >> "$out"
exit $status
