#!/bin/sh
# Served results are the offline results, end to end over the real
# daemon. Two scenarios:
#
# 1. Sharded concurrent submit: two submit processes share one client
#    journal (exercising the per-append flock), and the union of their
#    results diffs byte-clean against the same batch run offline
#    through gpsm_run, in both directions, so nothing is lost and
#    nothing is invented.
# 2. Crash recovery: the daemon is SIGKILLed mid-batch and restarted on
#    the same journal; the submit client reconnects and the batch still
#    finishes byte-identical to offline. A resubmit against the
#    restarted daemon executes nothing: every result is served from
#    the journal.
#
# Sockets and journals live in a per-PID directory, so parallel runs
# cannot collide.
#
# usage: tests/serve_offline.sh BUILD_DIR
build=$1
serve=$build/tools/gpsm_serve
report=$build/tools/gpsm_report
dir=${TMPDIR:-/tmp}/gpsm_serve_offline.$$
# Kill whatever this script still has running in the background
# (daemons, submit clients), on success and on failure alike.
cleanup() {
    for pid in $(jobs -p); do
        kill -9 "$pid" 2> /dev/null
    done
    wait 2> /dev/null
    rm -rf "$dir"
}
trap cleanup EXIT
trap 'exit 1' INT TERM
rm -rf "$dir"
mkdir -p "$dir"
status=0

# Both directions of the journal diff, each --fail-on-missing.
diff_both() {
    "$report" diff "$1" "$2" --fail-on-missing || {
        echo "FAIL: $1 vs $2"
        status=1
    }
    "$report" diff "$2" "$1" --fail-on-missing || {
        echo "FAIL: $2 vs $1"
        status=1
    }
}

# 1. Sharded concurrent submit vs offline.
sock=$dir/shard.sock
batch="--app bfs,pr,cc --dataset kron,wiki --divisor 4096"
# shellcheck disable=SC2086 # $batch is the flag list
"$build"/tools/gpsm_run $batch --journal "$dir/offline.gpsmj" --quiet \
    > /dev/null || { echo "FAIL: offline gpsm_run"; exit 1; }
"$serve" --socket "$sock" --journal "$dir/daemon.gpsmj" --workers 2 &
dpid=$!
submits=""
for shard in 1 2; do
    # shellcheck disable=SC2086
    "$serve" --submit --socket "$sock" $batch --shard $shard/2 \
        --connections 4 --out-journal "$dir/client.gpsmj" \
        2> "$dir/s$shard.log" &
    submits="$submits $!"
done
shard=0
for pid in $submits; do
    shard=$((shard + 1))
    wait "$pid" || {
        echo "FAIL: shard $shard/2 submit"
        cat "$dir/s$shard.log"
        status=1
    }
done
diff_both "$dir/offline.gpsmj" "$dir/client.gpsmj"
"$serve" --drain --socket "$sock" || status=1
wait $dpid || { echo "FAIL: sharded daemon exit"; status=1; }

# 2. kill -9 mid-batch, restart on the same journal, resume.
sock=$dir/crash.sock
batch="--app bfs,pr,cc --dataset kron,wiki --divisor 2048"
# shellcheck disable=SC2086
"$build"/tools/gpsm_run $batch --journal "$dir/offline2.gpsmj" --quiet \
    > /dev/null || { echo "FAIL: offline gpsm_run"; exit 1; }
"$serve" --socket "$sock" --journal "$dir/crash.gpsmj" --workers 2 &
dpid=$!
# shellcheck disable=SC2086
"$serve" --submit --socket "$sock" $batch --connections 2 \
    --out-journal "$dir/crash_client.gpsmj" 2> "$dir/crash.log" &
spid=$!
sleep 0.8
kill -9 $dpid
wait $dpid 2> /dev/null
sleep 0.2
"$serve" --socket "$sock" --journal "$dir/crash.gpsmj" --workers 2 &
dpid=$!
wait $spid || {
    echo "FAIL: submit across the restart"
    cat "$dir/crash.log"
    status=1
}
diff_both "$dir/offline2.gpsmj" "$dir/crash_client.gpsmj"
# shellcheck disable=SC2086
"$serve" --submit --socket "$sock" $batch --connections 2 \
    --out-journal "$dir/crash_client2.gpsmj" 2> "$dir/resubmit.log" ||
    status=1
grep -q "6 served from cache" "$dir/resubmit.log" || {
    echo "FAIL: resubmit after restart executed work"
    cat "$dir/resubmit.log"
    status=1
}
"$report" diff "$dir/offline2.gpsmj" "$dir/crash_client2.gpsmj" \
    --fail-on-missing || {
    echo "FAIL: offline2 vs resubmit"
    status=1
}
"$serve" --drain --socket "$sock" || status=1
wait $dpid || { echo "FAIL: restarted daemon exit"; status=1; }
exit $status
