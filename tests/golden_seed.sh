#!/bin/sh
# Golden gate: fig01 and fig07b in their default single-node
# configuration must reproduce the capture in DATA_DIR byte for byte:
# the stdout tables and every per-run document (run, series and
# trace). Only batches.jsonl, which carries wall-clock values, is
# skipped. DATA_DIR/README.md says where the capture came from.
#
# usage: tests/golden_seed.sh BUILD_DIR DATA_DIR
build=$1
data=$2
out=${TMPDIR:-/tmp}/gpsm_golden_seed.$$
rm -rf "$out"
mkdir -p "$out"
status=0
for fig in fig01:fig01_thp_speedup fig07b:fig07b_pressure_sweep; do
    name=${fig%%:*}
    bin=${fig#*:}
    if ! "$build"/bench/"$bin" --quick --jobs 4 \
        --metrics-dir "$out/m-$name" > "$out/$name.txt" \
        2> "$out/$name.err"; then
        echo "FAIL: $bin exited nonzero"
        cat "$out/$name.err"
        status=1
        continue
    fi
    diff "$data/$name.txt" "$out/$name.txt" || status=1
    diff -r -x batches.jsonl "$data/m-$name" "$out/m-$name" || status=1
    "$build"/tools/gpsm_report diff "$data/m-$name" "$out/m-$name" \
        --fail-on-missing > /dev/null || status=1
done
rm -rf "$out"
exit $status
