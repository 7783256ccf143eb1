#!/bin/sh
# scales.sh — the claims at every scale as one command: render the whole
# experiment registry at scales 4096, 1024, 256, 64, 16 and 4 with one
# worker per core, and for each scale print its scorecard line (claims
# reproduced, deviating and unexplained; Σ|ln(measured/paper)|), the
# render's wall time and peak resident set size (imcabench's own
# high-water mark, which it writes to stderr), and every claim whose verdict
# (reproduced, deviates, UNEXPLAINED) differs from its verdict at the
# scale before. A claim is known by its experiment and its paper quote.
#
# A record, not a gate: TestClaims and the registry golden assert the
# claims at one scale in tier-1, and `make regdiff` pins scale 16 byte for
# byte. Scale 1 is not run here: it has no recorded output yet (ROADMAP
# [scale]).
#
# Usage:
#   scripts/scales.sh
#   make scales
set -eu
cd "$(dirname "$0")/.."

out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT
go build -o "$out/imcabench" ./cmd/imcabench

# verdicts prints "experiment<TAB>quote<TAB>verdict" for each claim line.
verdicts() {
	awk '
		/^== .* \(scale / { fig = $2 }
		/^claim: \[/ {
			v = substr($0, 9)
			sub(/[:\]].*/, "", v)
			q = $0
			sub(/.*\(paper: /, "", q)
			sub(/\)$/, "", q)
			print fig "\t" q "\t" v
		}' "$1"
}

prev=""
for s in 4096 1024 256 64 16 4; do
	start=$(date +%s)
	if ! "$out/imcabench" -exp all -scale "$s" -parallel 0 > "$out/$s.txt" 2> "$out/$s.err"; then
		cat "$out/$s.err" >&2
		exit 1
	fi
	wall=$(($(date +%s) - start))
	rss=$(sed -n 's/^imcabench: peak RSS //p' "$out/$s.err")
	echo "== scale $s: $wall s wall, peak RSS ${rss:-unknown}"
	echo "   $(grep '^scorecard: ' "$out/$s.txt")"
	verdicts "$out/$s.txt" > "$out/$s.tsv"
	if [ -n "$prev" ]; then
		awk -F '\t' -v from="$prev" '
			NR == FNR { was[$1 FS $2] = $3; next }
			($1 FS $2) in was && was[$1 FS $2] != $3 {
				printf "   %s: %s at %s, %s here: %s\n", $1, was[$1 FS $2], from, $3, $2
			}' "$out/$prev.tsv" "$out/$s.tsv"
	fi
	prev=$s
done
