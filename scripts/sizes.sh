#!/bin/sh
# sizes.sh — how big the tree is, as a logged number: for every package
# (directory) and in total, the lines of its tracked non-test .go files
# and how many of those are code (not blank, not wholly comment). These
# are the two numbers ROADMAP.md and CHANGES.md quote when a PR claims to
# have made something smaller. A record, not a gate. One subtotal line,
# "observability", sums the packages of the observation pipeline (optrace,
# telemetry, metrics, flight, report, iotrace), the number ROADMAP's
# [pipeline] target is quoted against.
#
# Usage:
#   scripts/sizes.sh
#   make sizes
set -eu
cd "$(dirname "$0")/.."

git ls-files -z '*.go' | grep -zv '_test\.go$' | xargs -0 awk '
	FNR == 1 { dir = FILENAME; if (!sub(/\/[^\/]*$/, "", dir)) dir = "."; block = 0 }
	{
		lines[dir]++
		s = $0
		sub(/^[ \t]+/, "", s)
		if (block) { if (s ~ /\*\//) block = 0; next }
		if (s == "" || s ~ /^\/\//) next
		if (s ~ /^\/\*/) { if (s !~ /\*\//) block = 1; next }
		code[dir]++
	}
	END {
		for (d in lines) printf "%-36s %7d %7d\n", d, lines[d], code[d]
	}' | sort | awk '
	BEGIN { printf "%-36s %7s %7s\n", "package", "lines", "code" }
	{ print; lines += $2; code += $3 }
	$1 ~ /^internal\/(optrace|telemetry|metrics|flight|report|iotrace)$/ { olines += $2; ocode += $3 }
	END {
		printf "%-36s %7d %7d\n", "observability", olines, ocode
		printf "%-36s %7d %7d\n", "total", lines, code
	}'
