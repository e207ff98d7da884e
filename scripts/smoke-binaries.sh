#!/usr/bin/env bash
# End-to-end smoke test of the aquad and aquacli binaries on 127.0.0.1:
#   1. `aquacli -prob NaN` must exit non-zero with an error naming the
#      probability; the spec is validated before any socket opens, so this
#      step needs no daemon and no port;
#   2. the README topology (p00 | p01 | p02+s00 in three daemons) with
#      -wal-dir and -replicated-assign, driven by `aquacli -op bench -n 20`;
#   3. SIGINT every daemon, restart them on the same WAL directories: every
#      primary must log its recovery to CSN 10 and `aquacli -op get
#      -staleness 0` must read the last value back;
#   4. the same two steps against one `aquad -shards 1` process, which must
#      leave one WAL directory per replica.
# Usage: bash scripts/smoke-binaries.sh   (listens on ports 7100-7300)
set -euo pipefail
cd "$(dirname "$0")/.."
work="$(mktemp -d)"
pids=()
cleanup() {
	for p in "${pids[@]}"; do kill "$p" 2>/dev/null || true; done
	wait 2>/dev/null || true
	rm -rf "$work"
}
trap cleanup EXIT
go build -o "$work/aquad" ./cmd/aquad
go build -o "$work/aquacli" ./cmd/aquacli

fail() {
	echo "smoke: $*" >&2
	tail -n 20 "$work"/*.log >&2 || true
	exit 1
}

# daemon NAME ARGS... starts one aquad in the background, logging to NAME.log.
daemon() {
	local name=$1
	shift
	"$work/aquad" -clients c00 -lazy 300ms -replicated-assign -v "$@" >"$work/$name.log" 2>&1 &
	pids+=($!)
}

# stop_all sends SIGINT to every daemon and requires a clean exit.
stop_all() {
	kill -INT "${pids[@]}"
	for p in "${pids[@]}"; do wait "$p" || fail "daemon $p exited with $?"; done
	pids=()
}

# client CLUSTER ARGS... runs one aquacli as c00 and prints its output.
client() {
	local cluster=$1
	shift
	timeout 90 "$work/aquacli" -cluster "$cluster" -primaries p00,p01,p02 -clients c00 -id c00 \
		-listen 127.0.0.1:7300 -lazy 300ms "$@"
}

# bench_then_recover CLUSTER START: START launches the daemons; write 10
# versions of k, restart, and read the last one back at staleness 0.
bench_then_recover() {
	local cluster=$1 start=$2
	$start
	sleep 1
	client "$cluster" -op bench -n 20 >"$work/bench.out" || fail "aquacli -op bench failed"
	if grep -q 'request .* error' "$work/bench.out"; then fail "bench reported errors"; fi
	stop_all
	$start
	sleep 1
	client "$cluster" -op get -staleness 0 >"$work/get.out" || fail "aquacli -op get failed"
	grep -q '^get .*-> "18" ' "$work/get.out" || fail "read after restart: $(cat "$work/get.out")"
	for id in p00 p01 p02; do
		grep -q "^$id .*recovered to CSN 10 " "$work"/*.log || fail "$id did not recover to CSN 10"
	done
	stop_all
	rm -f "$work"/*.log
}

if "$work/aquacli" -prob NaN -op get 2>"$work/nan.err" >/dev/null; then
	fail "aquacli -prob NaN exited 0"
fi
grep -q 'probability' "$work/nan.err" || fail "aquacli -prob NaN: no probability error: $(cat "$work/nan.err")"
echo "smoke: aquacli rejects -prob NaN"

CLUSTER="p00=127.0.0.1:7100,p01=127.0.0.1:7101,p02=127.0.0.1:7200,s00=127.0.0.1:7201,c00=127.0.0.1:7300"
start_cluster() {
	daemon d0 -cluster "$CLUSTER" -primaries p00,p01,p02 -host p00 -listen 127.0.0.1:7100 -wal-dir "$work/wal"
	daemon d1 -cluster "$CLUSTER" -primaries p00,p01,p02 -host p01 -listen 127.0.0.1:7101 -wal-dir "$work/wal"
	daemon d2 -cluster "$CLUSTER" -primaries p00,p01,p02 -host p02,s00 -listen 127.0.0.1:7200 -wal-dir "$work/wal"
}
bench_then_recover "$CLUSTER" start_cluster
echo "smoke: -cluster mode: bench, restart and recovery ok"

# One shard keeps the plain IDs, all served from one address.
SHARD="p00=127.0.0.1:7100,p01=127.0.0.1:7100,p02=127.0.0.1:7100,s00=127.0.0.1:7100,c00=127.0.0.1:7300"
start_shard() {
	daemon sh -shards 1 -cluster "c00=127.0.0.1:7300" -listen 127.0.0.1:7100 -wal-dir "$work/shardwal"
}
bench_then_recover "$SHARD" start_shard
for id in p00 p01 p02 s00; do
	[ -d "$work/shardwal/$id" ] || fail "-shards 1 left no WAL directory for $id"
done
echo "smoke: -shards 1 mode: bench, restart, recovery and per-replica WAL directories ok"
