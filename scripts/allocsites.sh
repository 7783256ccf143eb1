#!/bin/sh
# allocsites.sh — where one figure's allocations come from, by function.
#
# Runs one root bench_test.go figure once with every allocation sampled
# (-memprofilerate 1) and prints the alloc_objects profile by function,
# flat and cumulative, top 40 of each. This is the count metric's layer
# attribution: the benchmark's traced pass gives cpu.*_pct per layer, which
# says where the time went but not which call sites allocate. Flat names
# the site (a closure shows as Outer.funcN, a frame constructor by name);
# cumulative names the layer it belongs to.
#
# Usage:
#   scripts/allocsites.sh BENCH        # a -bench regex, e.g. Fig7
#   make allocsites BENCH=Fig7
#
# The test binary and the profile go to a temporary directory; nothing is
# written into the repository.
set -eu
cd "$(dirname "$0")/.."

bench=${1:?usage: scripts/allocsites.sh BENCH (a -bench regex, e.g. Fig7)}

out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT

go test -c -o "$out/imca.test" .
"$out/imca.test" -test.run '^$' -test.bench "$bench" -test.benchtime 1x \
	-test.memprofilerate 1 -test.memprofile "$out/mem.prof" >"$out/bench.txt"
grep '^Benchmark' "$out/bench.txt" || { cat "$out/bench.txt" >&2; echo "allocsites: no benchmark matched '$bench'" >&2; exit 1; }

for order in flat cum; do
	echo "== alloc_objects by function, $order, top 40 ($bench)"
	sort_flag=""
	[ "$order" = cum ] && sort_flag="-cum"
	# shellcheck disable=SC2086
	go tool pprof -sample_index=alloc_objects -top -nodecount 40 $sort_flag \
		"$out/imca.test" "$out/mem.prof" 2>/dev/null | sed -n '/flat%/,$p'
done
