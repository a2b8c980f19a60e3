# Developer entry points. Everything here is plain go tooling — the module
# is stdlib-only and every target works offline.

GO ?= go

.PHONY: all build test race lint allocguard bench clean

all: build lint test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

lint:
	$(GO) run ./cmd/lintlocind ./...
	$(GO) run ./cmd/allocguard -check ./...

# allocguard regenerates the //lint:zeroalloc guard tests
# (allocguard_gen_test.go in each annotated package) after annotations
# change; `make lint` verifies they are current.
allocguard:
	$(GO) run ./cmd/allocguard ./...

# bench runs the repository benchmark (BENCHMARK.json): five closed-loop
# workloads, four gated end-to-end metrics each, results in bench/out/. Its
# in-run correctness checks fail the command. BENCH_0..4.json in the repo
# root are the history of the harness this replaced.
bench:
	$(GO) run ./bench

clean:
	$(GO) clean ./...
