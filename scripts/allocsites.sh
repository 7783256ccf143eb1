#!/bin/sh
# allocsites.sh — where one benchmark's allocations come from, by function.
#
# Runs the benchmarks matching BENCH in the package directory PKG (default
# ".", the root bench_test.go figures) for BENCHTIME (default 1x: one
# figure) with every allocation sampled (-memprofilerate 1) and prints the
# alloc_objects profile by function,
# flat and cumulative, top 40 of each. This is the count metric's layer
# attribution: the benchmark's traced pass gives cpu.*_pct per layer, which
# says where the time went but not which call sites allocate. Flat names
# the site (a closure shows as Outer.funcN, a frame constructor by name);
# cumulative names the layer it belongs to.
#
# Usage:
#   scripts/allocsites.sh BENCH [PKG [BENCHTIME]]  # BENCH: a -bench regex, e.g. Fig7
#   make allocsites BENCH=Fig7
#   make allocsites BENCH=ClientGet PKG=./internal/memcache BENCHTIME=20000x
#
# A benchmark of one small operation needs many iterations (BENCHTIME), or
# its set-up's allocations hide the operation's.
#
# The test binary and the profile go to a temporary directory; nothing is
# written into the repository.
set -eu
cd "$(dirname "$0")/.."

bench=${1:?usage: scripts/allocsites.sh BENCH [PKG [BENCHTIME]] (a -bench regex, e.g. Fig7; PKG defaults to ., BENCHTIME to 1x)}
pkg=${2:-.}
benchtime=${3:-1x}

out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT

go test -c -o "$out/pkg.test" "$pkg"
# A test binary runs in its package's directory, as go test runs it.
(cd "$pkg" && "$out/pkg.test" -test.run '^$' -test.bench "$bench" -test.benchtime "$benchtime" \
	-test.memprofilerate 1 -test.memprofile "$out/mem.prof") >"$out/bench.txt"
grep '^Benchmark' "$out/bench.txt" || { cat "$out/bench.txt" >&2; echo "allocsites: no benchmark matched '$bench' in $pkg" >&2; exit 1; }

for order in flat cum; do
	echo "== alloc_objects by function, $order, top 40 ($bench in $pkg)"
	sort_flag=""
	[ "$order" = cum ] && sort_flag="-cum"
	# shellcheck disable=SC2086
	go tool pprof -sample_index=alloc_objects -top -nodecount 40 $sort_flag \
		"$out/pkg.test" "$out/mem.prof" 2>/dev/null | sed -n '/flat%/,$p'
done
