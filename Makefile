# Developer entry points. Everything here is plain go tooling — the module
# is stdlib-only and every target works offline.

GO ?= go

.PHONY: all build test race lint examples bench clean

all: build lint test examples

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# lint gates what CI's Vet and Lint steps gate. go vet comes first: its
# copylocks pass is the one check that no lock is copied by value.
# lintlocind's reach check holds the rule DESIGN.md §7 states: a declaration
# in a non-test file exists because a binary outside examples/ reaches it, or
# because another package's tests need it and cannot get it any other way; an
# example only uses what such a binary keeps. A package nothing links is a
# package with no reachable declaration, so it is caught there too.
lint:
	$(GO) vet ./...
	$(GO) run ./cmd/lintlocind ./...

# examples runs every program under examples/ to the end; `go build ./...`
# only compiles them. A program is a directory with a main.go, which leaves
# out examples/testdata.
examples:
	for m in examples/*/main.go; do $(GO) run "./$${m%/main.go}" > /dev/null || exit 1; done

# bench runs the repository benchmark (BENCHMARK.json): five closed-loop
# workloads, four gated end-to-end metrics each, results in bench/out/. Its
# in-run correctness checks fail the command. BENCH_0..4.json in the repo
# root are the history of the harness this replaced.
bench:
	$(GO) run ./bench

clean:
	$(GO) clean ./...
