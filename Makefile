GO ?= go

.PHONY: all build test test-short test-race vet lint yaml-check fmt-check examples bench bench-check ci

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

# examples runs the four example programs (each a second or less once
# built). examples/quickstart is the only program on the public pop.Solve,
# and nothing else executes it.
examples:
	@for e in examples/*/; do echo "== $$e"; $(GO) run ./$$e || exit 1; done

# bench-check vets and tests the repository benchmark (bench/, a module of
# its own that the root ./... patterns never compile), so a change to the
# shard/price/online surface it builds against breaks here, not in the
# benchmark pipeline.
bench-check:
	$(GO) vet -C bench .
	$(GO) test -C bench .

# bench runs the paper-evaluation benchmark suite at Small scale. (The
# repository benchmark that gates a PR is `bash bench/run.sh`; one layer is
# timed with `go test -bench` in its package.)
bench:
	$(GO) test -run '^$$' -bench . -benchtime 1x .

ci: fmt-check vet build test-short
