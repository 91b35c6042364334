GO ?= go

.PHONY: all build test test-short test-race vet lint yaml-check fmt-check bench-online bench-milp bench-price bench-serve bench bench-check ci

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

test-short:
	$(GO) test -short ./...

test-race:
	$(GO) test -race -short ./...

vet:
	$(GO) vet ./...

# lint runs vet, the workflow-file parse, and staticcheck when it is
# installed (CI installs it in a dedicated blocking job; locally it is
# optional).
lint: vet yaml-check
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (go install honnef.co/go/tools/cmd/staticcheck@2025.1)"; \
	fi

# yaml-check parses the CI workflow: an unquoted step name containing ": "
# once made the whole file invalid without anything noticing.
yaml-check:
	python3 -c 'import yaml; yaml.safe_load(open(".github/workflows/ci.yml"))'

fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# bench-online regenerates BENCH_online.json, the online engine perf
# trajectory (warm incremental vs cold full re-solve across a dirty-fraction
# sweep on cluster, capacity-jitter, lb, TE demand-churn, and space-sharing
# round sequences).
bench-online:
	$(GO) run ./cmd/onlinebench -reps 3 -o BENCH_online.json

# bench-milp regenerates BENCH_milp.json, the exact-MILP perf trajectory
# (persistent-model branch and bound vs the cold-per-node baseline on
# lb-shaped instances; the headline is the LP pivot ratio, held at ≥2x).
bench-milp:
	$(GO) run ./cmd/milpbench -reps 3 -o BENCH_milp.json

# bench-price regenerates BENCH_price.json, the price-discovery engine's
# quality-vs-latency trajectory (price vs warm LP POP vs the global solve on
# cluster and lb online rounds, plus price-only scale rows up to 1M
# clients).
bench-price:
	$(GO) run ./cmd/pricebench -reps 3 -o BENCH_price.json

# bench-serve regenerates BENCH_serve.json, the sharded serving trajectory:
# coordinator scatter/gather rounds over real shard-worker subprocesses at
# shard counts 1/2/4, 1M simulated clients under steady churn.
bench-serve:
	$(GO) run ./cmd/servebench -big -o BENCH_serve.json

# bench-check vets and tests the repository benchmark (bench/, a module of
# its own that the root ./... patterns never compile), so a change to the
# shard/price/online surface it builds against breaks here, not in the
# benchmark pipeline.
bench-check:
	$(GO) vet -C bench .
	$(GO) test -C bench .

# bench runs the paper-evaluation benchmark suite at Small scale.
bench:
	$(GO) test -run '^$$' -bench . -benchtime 1x .

ci: fmt-check vet build test-short
