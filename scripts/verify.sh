#!/bin/sh
# Tier-1 verification: formatting, vet, build, the determinism linter,
# race-enabled tests, and a link check of every runnable example. CI and
# `make verify` run exactly this. Lint runs before the test suite so a
# determinism-invariant violation fails fast.
set -eu
cd "$(dirname "$0")/.."

echo "== gofmt -l"
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
	echo "gofmt: needs formatting:" >&2
	echo "$unformatted" >&2
	exit 1
fi

echo "== tracked files over 1 MB"
# A build output committed by accident (a 5.3 MB imcabench once was).
big=$(git ls-files -z | xargs -0 sh -c 'find "$@" -maxdepth 0 -type f -size +1024k -exec wc -c {} \; 2>/dev/null' sh)
if [ -n "$big" ]; then
	echo "tracked files over 1 MB (bytes, path):" >&2
	echo "$big" >&2
	exit 1
fi

echo "== go vet ./..."
go vet ./...

echo "== go build ./..."
go build ./...

echo "== imcalint ./..."
# Runs all six checks; an //imcalint:allow annotation with no finding
# under it fails the run too, so the accepted exceptions can only shrink.
go run ./cmd/imcalint ./...

echo "== go test -race ./..."
# The experiments package re-runs whole figures (including the 10k-tenant
# open-loop run) and outgrows go test's default 10m per-package budget
# under the race detector; give it room rather than trimming coverage.
go test -race -timeout 30m ./...

# The packages with real host-side concurrency (the parallel worker pool,
# the memcache TCP client, the memcached daemon) get an extra dedicated
# pass: -count=2 defeats the test cache and reshuffles goroutine
# interleavings, which is where their races actually live. The sim-side
# packages are single-threaded by construction (imcalint enforces it), so
# one race pass above is enough for them.
echo "== go test -race -count=2 (host-side concurrency)"
go test -race -count=2 ./internal/parallel ./internal/memcache ./cmd/memcached

echo "== build examples"
for d in examples/*/; do
	echo "   go build ./${d%/}"
	go build -o /dev/null "./${d%/}"
done

echo "verify: OK"
