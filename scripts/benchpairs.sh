#!/usr/bin/env bash
# benchpairs.sh — benchmark/README.md's "Claiming a gain" procedure, run
# from outside benchmark/.
#
# Builds the benchmark of a parent commit and of the working tree once
# each, then, for every workload named (one, or a space-separated list),
# runs them in alternating pairs (parent, change, change, parent, …: this
# box drifts by ±5–10% over tens of seconds and only pairing cancels
# that), and prints every run, then per side the
# median and quartiles of the four end-to-end metrics, the change/parent
# ratio of the medians with its base, how many pairs the change won (ties
# count for neither), whether the gap exceeds the parent's interquartile
# spread, and whether virt_digest was the same on every run. Then (step 5
# of that procedure: "use the trace to show where the saving appears") it
# runs one traced pass per side and prints the per-layer CPU shares and the
# layer drives the change could have moved, parent beside change with the
# difference. Each workload gets its own block of runs, summary and traced
# pass; the exit status is non-zero if any workload's digest differed or a
# pass failed.
#
# Usage:
#   scripts/benchpairs.sh "WORKLOAD..." [PARENT [PAIRS [SEED]]]
#   make benchpairs WORKLOAD=rw_records [PARENT=HEAD~1] [PAIRS=10] [SEED=1]
#   make benchpairs WORKLOAD="stat_hit rw_records cold_scan open_10k"
#
# The parent is built from `git archive PARENT` unpacked under
# .bench_build/pairs/ — a clean tree of exactly that commit, leaving no
# worktree registration behind in .git — and the change from the working
# tree as it stands, uncommitted edits included. Each binary runs from its
# own tree. Nothing under benchmark/ or BENCHMARK.json is touched;
# everything this writes is under .bench_build/, which .gitignore covers.
set -euo pipefail
cd "$(dirname "$0")/.."

workloads=${1:?usage: scripts/benchpairs.sh "WORKLOAD..." [PARENT [PAIRS [SEED]]]}
parent=${2:-HEAD~1}
pairs=${3:-10}
seed=${4:-1}

root=$PWD
build="$root/.bench_build"
work="$build/pairs"
mkdir -p "$build/gocache" "$build/gotmp" "$work"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOFLAGS=-buildvcs=false

parent_rev=$(git rev-parse --short "$parent^{commit}")
echo "== building parent $parent ($parent_rev) and the working tree"
rm -rf "$work/parent-src"
mkdir -p "$work/parent-src"
git archive "$parent" | tar -x -C "$work/parent-src"
(cd "$work/parent-src" && go build -o "$work/parent" ./benchmark)
go build -o "$work/change" ./benchmark

metrics="host_ops_per_sec allocs_per_op peak_rss_mb setup_s"
runs="$work/runs.tsv"

# metric_of JSON NAME: the value of metric NAME in a pass's last line.
metric_of() { printf '%s' "$1" | sed -n "s/.*\"$2\":{\"value\":\([^,}]*\).*/\1/p"; }

# run_one SIDE PAIR: one untraced pass; appends "pair side digest failed m1 m2 m3 m4".
run_one() {
	local side=$1 pair=$2 dir=$root out line digest failed vals=""
	[ "$side" = parent ] && dir="$work/parent-src"
	out=$(cd "$dir" && "$work/$side" -workload "$workload" -seed "$seed" -seconds 10)
	line=$(printf '%s\n' "$out" | tail -n 1)
	digest=$(printf '%s\n' "$out" | awk '$1 == "virt_digest" {print $2; exit}')
	failed=$(printf '%s' "$line" | sed -n 's/.*"failed":\([0-9]*\).*/\1/p')
	for m in $metrics; do
		vals="$vals $(metric_of "$line" "$m")"
	done
	printf '%s\t%s\t%s\t%s%s\n' "$pair" "$side" "${digest:-none}" "${failed:-?}" "$(printf '%s' "$vals" | tr ' ' '\t')" >>"$runs"
	printf '   pair %2d %-6s digest %s failed %s %s\n' "$pair" "$side" "${digest:-none}" "${failed:-?}" "$vals"
}

# bench_workload: the pairs, summary and traced pass of $workload; sets
# status to 1 on a digest mismatch or a failed pass.
bench_workload() {
	: >"$runs"
	echo "== $pairs alternating pairs: $workload, seed $seed, seconds 10"
	for ((i = 1; i <= pairs; i++)); do
		if ((i % 2)); then
			run_one parent "$i"
			run_one change "$i"
		else
			run_one change "$i"
			run_one parent "$i"
		fi
	done

	echo "== summary ($workload, seed $seed, seconds 10, parent $parent_rev, $pairs pairs)"
	awk -F'\t' -v names="$metrics" '
	function quantile(a, n, q,    h, lo) {
		h = (n - 1) * q + 1; lo = int(h)
		if (lo >= n) return a[n]
		return a[lo] + (h - lo) * (a[lo + 1] - a[lo])
	}
	function sorted(src, n, dst,    i, j, t) {
		for (i = 1; i <= n; i++) dst[i] = src[i]
		for (i = 2; i <= n; i++) { t = dst[i]; for (j = i - 1; j >= 1 && dst[j] > t; j--) dst[j + 1] = dst[j]; dst[j + 1] = t }
	}
	BEGIN { nm = split(names, name, " ") }
	{
		side = $2; n[side]++
		if (!(1 in seen)) { digest = $3; seen[1] = 1 } else if ($3 != digest) mismatch = 1
		if ($4 != "0") failures++
		for (m = 1; m <= nm; m++) val[side, m, $1] = $(4 + m)
		if ($1 > pairs) pairs = $1
	}
	END {
		printf "%-18s %-7s %12s %12s %12s   %s\n", "metric", "side", "q1", "median", "q3", "change/parent, pairs won, gap vs parent IQR"
		for (m = 1; m <= nm; m++) {
			higher = (name[m] == "host_ops_per_sec")
			for (p = 1; p <= pairs; p++) { pa[p] = val["parent", m, p]; ch[p] = val["change", m, p] }
			sorted(pa, pairs, sp); sorted(ch, pairs, sc)
			pm = quantile(sp, pairs, 0.5); cm = quantile(sc, pairs, 0.5)
			iqr = quantile(sp, pairs, 0.75) - quantile(sp, pairs, 0.25)
			won = lost = 0
			for (p = 1; p <= pairs; p++) {
				if (ch[p] == pa[p]) continue
				if ((ch[p] > pa[p]) == higher) won++; else lost++
			}
			gap = higher ? cm - pm : pm - cm
			printf "%-18s %-7s %12.6g %12.6g %12.6g\n", name[m], "parent", quantile(sp, pairs, 0.25), pm, quantile(sp, pairs, 0.75)
			printf "%-18s %-7s %12.6g %12.6g %12.6g   %.4f of %.6g, won %d lost %d of %d, gap %.6g %s IQR %.6g\n", name[m], "change",
				quantile(sc, pairs, 0.25), cm, quantile(sc, pairs, 0.75), (pm ? cm / pm : 0), pm, won, lost, pairs,
				gap, (gap > iqr ? ">" : "<="), iqr
		}
		printf "virt_digest: %s\n", (mismatch ? "DIFFERS between runs" : "identical on all " (n["parent"] + n["change"]) " runs (" digest ")")
		printf "failed passes: %d\n", failures + 0
		if (mismatch || failures) exit 1
	}' "$runs" || status=1

	# One traced pass per side: its last line carries every per_layer metric.
	echo "== traced pass per side (-trace 1): where the difference landed"
	ptrace=$(cd "$work/parent-src" && "$work/parent" -workload "$workload" -seed "$seed" -seconds 10 -trace 1 | tail -n 1)
	ctrace=$("$work/change" -workload "$workload" -seed "$seed" -seconds 10 -trace 1 | tail -n 1)
	layers=$(printf '%s' "$ptrace" | grep -o '"cpu\.[a-z]*_pct"' | tr -d '"')
	printf '%-36s %12s %12s %12s\n' metric parent change delta
	for m in $layers drive.pagecache.insert_ns drive.pagecache.lookup_ns drive.memcache.store_set_evict_ns; do
		awk -v m="$m" -v p="$(metric_of "$ptrace" "$m")" -v c="$(metric_of "$ctrace" "$m")" \
			'BEGIN { printf "%-36s %12.4g %12.4g %+12.4g\n", m, p, c, c - p }'
	done
}

status=0
for workload in $workloads; do
	bench_workload
done
exit "$status"
