#!/usr/bin/env bash
# census.sh is the coverage census of the repository's drivers: it builds
# every program with coverage over pop/..., runs each the way its smoke
# runs it, merges the counters, and prints every function outside bench/
# that no driver reached. It prints and does not gate. Each function it
# prints should be deleted, moved into a _test.go file as an oracle, or kept
# as a named fallback whose reason is written down.
#
#   make census                 # or: bash scripts/census.sh
#
# The drivers:
#   popbench -exp all -scale small
#   the bench/ module's four workloads at -quick sizes, traced
#   popsolve on the committed infeasible lb fixture and on a small MILP
#   popserver single-process under maxmin (run twice on one -state-file,
#     so the second run restores it), under price (which refuses that
#     file) and under spacesharing, each with an explicit POST /v1/tick,
#     and a coordinator over two worker processes, one of which is
#     restarted empty and rebuilt by a full round
#   a coordinator behind -auth-token over one price worker, which is
#     restarted on its own -state-file
#   the four examples
#
# Binaries, counters and logs go under $CENSUS_DIR (default .census/).
# The servers listen on 127.0.0.1 ports 18280-18283 and 19281-19283.
set -euo pipefail
# Whatever exits early leaves no server behind on its port.
trap 'kill $(jobs -p) 2>/dev/null || true' EXIT
root=$(cd "$(dirname "$0")/.." && pwd)
cd "$root"
out=${CENSUS_DIR:-$root/.census}
rm -rf "$out"
mkdir -p "$out/bin" "$out/cov" "$out/log"

build() { # name dir-of-main-package
	go build -cover -coverpkg=pop/... -o "$out/bin/$1" "$2"
}
# run NAME CMD...: runs CMD with its counters under cov/NAME.
run() {
	local name=$1
	shift
	mkdir -p "$out/cov/$name"
	GOCOVERDIR="$out/cov/$name" "$@" >"$out/log/$name.txt" 2>&1
}

echo "census: building drivers with coverage" >&2
build popbench ./cmd/popbench
build popsolve ./cmd/popsolve
build popserver ./cmd/popserver
for e in examples/*/; do
	build "example-$(basename "$e")" "./$e"
done
(cd bench && GOFLAGS=-mod=mod go build -cover -coverpkg=pop/... -o "$out/bin/bench" .)

echo "census: popbench -exp all -scale small" >&2
run popbench "$out/bin/popbench" -exp all -scale small
echo "census: bench -quick -trace 1" >&2
run bench "$out/bin/bench" -quick -trace 1 -trace-out "$out/trace.json"
echo "census: popsolve" >&2
run popsolve-lp "$out/bin/popsolve" internal/lp/testdata/lb_cover_infeasible.mps
printf '%s\n' 'NAME KNAP' 'ROWS' ' N  COST' ' L  CAP' 'COLUMNS' \
	"    MARKER  'MARKER'  'INTORG'" \
	'    A  COST  -5  CAP  3' '    B  COST  -6  CAP  5' '    C  COST  -4  CAP  4' \
	"    MARKER  'MARKER'  'INTEND'" 'RHS' '    RHS  CAP  6' \
	'BOUNDS' ' UP BND  A  1' ' UP BND  B  1' ' UP BND  C  1' 'ENDATA' >"$out/knapsack.mps"
run popsolve-milp "$out/bin/popsolve" "$out/knapsack.mps"

# serve NAME PORT ARGS...: starts a popserver, submits jobs, removes one,
# changes one GPU type's capacity (a round whose sub-problems keep their
# members, so the LP engines rebuild each model in its old shape and
# lp.Model classifies the rebuild against the basis Reset kept), runs one
# round by hand, runs $hook if set, reads every allocation view, and stops it
# with SIGTERM so its counters are written. With $token set, every mutating
# request carries it as a bearer token.
serve() {
	local name=$1 port=$2
	shift 2
	mkdir -p "$out/cov/$name"
	GOCOVERDIR="$out/cov/$name" "$out/bin/popserver" -addr "127.0.0.1:$port" -round 100ms "$@" \
		>"$out/log/$name.txt" 2>&1 &
	local pid=$! auth=()
	[ -z "${token:-}" ] || auth=(-H "Authorization: Bearer $token")
	for _ in $(seq 1 50); do
		curl -fsS "http://127.0.0.1:$port/healthz" >/dev/null 2>&1 && break
		sleep 0.1
	done
	for id in 1 2 3 4 5 6; do
		curl -fsS "${auth[@]}" -X POST "http://127.0.0.1:$port/v1/jobs" -d "{\"id\":$id,\"throughput\":[1,2,$id]}" >/dev/null
	done
	sleep 0.5
	curl -fsS "${auth[@]}" -X DELETE "http://127.0.0.1:$port/v1/jobs/2" >/dev/null || true
	sleep 0.3
	curl -fsS "${auth[@]}" -X PUT "http://127.0.0.1:$port/v1/cluster" -d '{"gpus":[5,4,4]}' >/dev/null || true
	sleep 0.3
	curl -fsS "${auth[@]}" -X POST "http://127.0.0.1:$port/v1/tick" >/dev/null || true
	${hook:-}
	for path in /v1/allocation /v1/allocation/3 /v1/stats /metrics; do
		curl -fsS "http://127.0.0.1:$port$path" >/dev/null || true
	done
	kill -TERM "$pid"
	wait "$pid" || true
}

echo "census: popserver (maxmin, price, spacesharing, coordinator + 2 workers)" >&2
serve popserver-maxmin 18280 -k 2 -gpus 4,4,4 -state-file "$out/maxmin.state"
serve popserver-maxmin-restart 18280 -k 2 -gpus 4,4,4 -state-file "$out/maxmin.state"
serve popserver-price 18281 -k 2 -gpus 4,4,4 -policy price -state-file "$out/maxmin.state"
serve popserver-spacesharing 18283 -k 2 -gpus 4,4,4 -policy spacesharing
workers=()
# worker N NAME: starts worker N's process, its counters under cov/NAME.
worker() {
	mkdir -p "$out/cov/$2"
	GOCOVERDIR="$out/cov/$2" "$out/bin/popserver" worker \
		-shard-addr "127.0.0.1:1928$1" -policy maxmin -k 1 -gpus 2,2,2 \
		>"$out/log/$2.txt" 2>&1 &
	workers[$1 - 1]=$!
}
# restart_worker2 stops worker 2 and starts it again empty on its address,
# so its next round answers 409 and the coordinator rebuilds it with a full
# round.
restart_worker2() {
	kill -TERM "${workers[1]}"
	wait "${workers[1]}" || true
	worker 2 popserver-worker2-restart
	for _ in $(seq 1 50); do
		curl -fsS "http://127.0.0.1:19282/shard/v1/health" >/dev/null 2>&1 && break
		sleep 0.1
	done
	sleep 0.3
}
worker 1 popserver-worker1
worker 2 popserver-worker2
hook=restart_worker2 serve popserver-coordinator 18282 -gpus 4,4,4 -shard-deadline 5s \
	-workers http://127.0.0.1:19281,http://127.0.0.1:19282
kill -TERM "${workers[@]}"
wait "${workers[@]}" || true

# price_worker NAME starts a price worker behind a token on
# $out/price-worker.state, its counters under cov/NAME.
price_worker() {
	mkdir -p "$out/cov/$1"
	GOCOVERDIR="$out/cov/$1" "$out/bin/popserver" worker \
		-shard-addr 127.0.0.1:19283 -policy price -auth-token census \
		-state-file "$out/price-worker.state" >"$out/log/$1.txt" 2>&1 &
	price_pid=$!
}
# restart_price_worker stops the price worker, which saves its state file,
# and starts it again on that file, so it restores its warm state before the
# coordinator's next round.
restart_price_worker() {
	kill -TERM "$price_pid"
	wait "$price_pid" || true
	price_worker popserver-price-worker-restart
	for _ in $(seq 1 50); do
		curl -fsS "http://127.0.0.1:19283/shard/v1/health" >/dev/null 2>&1 && break
		sleep 0.1
	done
	sleep 0.3
}
echo "census: coordinator behind -auth-token over a price worker restarted on its state file" >&2
price_worker popserver-price-worker
token=census hook=restart_price_worker serve popserver-price-coordinator 18281 -gpus 4,4,4 \
	-shard-deadline 5s -auth-token census -policy price -workers http://127.0.0.1:19283
kill -TERM "$price_pid"
wait "$price_pid" || true

echo "census: examples" >&2
for e in examples/*/; do
	run "example-$(basename "$e")" "$out/bin/example-$(basename "$e")"
done

dirs=$(find "$out/cov" -mindepth 1 -maxdepth 1 -type d | sort | paste -sd, -)
go tool covdata func -i="$dirs" >"$out/func.txt"
echo "census: functions outside bench/ that no driver reached" >&2
awk '$NF == "0.0%" && $1 !~ /^pop\/bench\// { print $1, $2 }' "$out/func.txt"
go tool covdata percent -i="$dirs" -pkg "$(go list ./... | paste -sd, -)" >"$out/percent.txt"
echo "census: per-package statement coverage in $out/percent.txt" >&2
