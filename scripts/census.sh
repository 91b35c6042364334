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
#     file) and under spacesharing, and a coordinator over two worker
#     processes
#   the four examples
#
# Binaries, counters and logs go under $CENSUS_DIR (default .census/).
# The servers listen on 127.0.0.1 ports 18280-18283 and 19281-19282.
set -euo pipefail
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

# serve NAME PORT ARGS...: starts a popserver, submits jobs, reads every
# allocation view, and stops it with SIGTERM so its counters are written.
serve() {
	local name=$1 port=$2
	shift 2
	mkdir -p "$out/cov/$name"
	GOCOVERDIR="$out/cov/$name" "$out/bin/popserver" -addr "127.0.0.1:$port" -round 100ms "$@" \
		>"$out/log/$name.txt" 2>&1 &
	local pid=$!
	for _ in $(seq 1 50); do
		curl -fsS "http://127.0.0.1:$port/healthz" >/dev/null 2>&1 && break
		sleep 0.1
	done
	for id in 1 2 3 4 5 6; do
		curl -fsS -X POST "http://127.0.0.1:$port/v1/jobs" -d "{\"id\":$id,\"throughput\":[1,2,$id]}" >/dev/null
	done
	sleep 0.5
	curl -fsS -X DELETE "http://127.0.0.1:$port/v1/jobs/2" >/dev/null || true
	sleep 0.3
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
for w in 1 2; do
	mkdir -p "$out/cov/popserver-worker$w"
	GOCOVERDIR="$out/cov/popserver-worker$w" "$out/bin/popserver" worker \
		-shard-addr "127.0.0.1:1928$w" -policy maxmin -k 1 -gpus 2,2,2 \
		>"$out/log/popserver-worker$w.txt" 2>&1 &
	workers+=($!)
done
serve popserver-coordinator 18282 -gpus 4,4,4 -shard-deadline 5s \
	-workers http://127.0.0.1:19281,http://127.0.0.1:19282
kill -TERM "${workers[@]}"
wait "${workers[@]}" || true

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
