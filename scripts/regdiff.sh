#!/bin/sh
# regdiff.sh — the behaviour contract as one command: render the whole
# experiment registry at scale 16, serially and with -parallel 0, and diff
# both against the committed results_scale16.txt. Everything the simulator
# prints there is deterministic virtual time except the wall-clock token
# in each table header ("== fig5 (scale 1/16, 1m3.998s wall) =="), which
# is stripped from both sides first. Any other difference — one event
# moved, one sequence number shifted — is a behaviour change and exits
# non-zero: first one line per table that changed, is missing or is new,
# named by its "== name" header ("   changed: ext-fault"), then the diff.
#
# After each mode's diff it prints what the render cost — real, user and
# system seconds ("   serial cost: real 157 s, user 116 s, sys 54 s") — so
# the registry's wall time is a logged number where the contract is
# checked, and the run's scorecard line ("   serial scorecard: 65 claims
# reproduced, 14 deviating, 0 unexplained; Σ|ln(measured/paper)| = …"), so
# the simulation error is one too. Both are records, not gates: a shared
# runner is not a quiet box, and the claim lines themselves are diffed.
#
# Usage:
#   scripts/regdiff.sh
#   make regdiff
set -eu
cd "$(dirname "$0")/.."

out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT

# ", <duration> wall": Go durations such as 982ms, 53.783s, 1m3.998s, 1h2m3s.
strip() { sed -E 's/, [0-9][0-9a-zµ.]* wall\)/)/' "$1"; }

# tables FILE DIR: split a render into DIR/<name>, one file per "== name"
# header, and list the names in order in DIR/.names.
tables() {
	mkdir -p "$2"
	awk -v dir="$2" '/^== / { if (f) close(f); f = dir "/" $2; print $2 > (dir "/.names") }
		f { print > f }' "$1"
}

# moved WANT GOT: one line per table of either render that is not the same
# in both, in the order the tables appear.
moved() {
	rm -rf "$out/want.d" "$out/got.d"
	tables "$1" "$out/want.d"
	tables "$2" "$out/got.d"
	while read -r t; do
		if [ ! -e "$out/got.d/$t" ]; then
			echo "   missing: $t"
		elif ! cmp -s "$out/want.d/$t" "$out/got.d/$t"; then
			echo "   changed: $t"
		fi
	done < "$out/want.d/.names"
	while read -r t; do
		[ -e "$out/want.d/$t" ] || echo "   new: $t"
	done < "$out/got.d/.names"
}

go build -o "$out/imcabench" ./cmd/imcabench
strip results_scale16.txt > "$out/want.txt"

status=0
for mode in serial parallel; do
	flag=""
	if [ "$mode" = parallel ]; then
		flag="-parallel 0" # one worker per core
	fi
	echo "== imcabench -exp all -scale 16 $flag"
	# `times` (second line: the children waited for so far) must run in this
	# shell, not in a pipeline or $(...), whose subshell has no children.
	times > "$out/before"
	start=$(date +%s)
	# shellcheck disable=SC2086
	"$out/imcabench" -exp all -scale 16 $flag > "$out/$mode.raw"
	times > "$out/after"
	cost=$(awk -v real=$(($(date +%s) - start)) '
		function secs(t) { split(t, a, /[ms]/); return a[1] * 60 + a[2] }
		FNR == 2 { user = secs($1) - user; sys = secs($2) - sys }
		END { printf "real %d s, user %.1f s, sys %.1f s", real, user, sys }' "$out/before" "$out/after")
	strip "$out/$mode.raw" > "$out/$mode.txt"
	if diff -u "$out/want.txt" "$out/$mode.txt" > "$out/$mode.diff"; then
		echo "   $mode: $(grep -c '^== .* (scale ' "$out/$mode.txt") tables identical to results_scale16.txt"
	else
		echo "regdiff: $mode run differs from results_scale16.txt:" >&2
		moved "$out/want.txt" "$out/$mode.txt" >&2
		cat "$out/$mode.diff" >&2
		status=1
	fi
	echo "   $mode cost: $cost"
	echo "   $mode $(grep '^scorecard: ' "$out/$mode.txt")"
done
if [ "$status" -eq 0 ]; then
	echo "regdiff: OK"
fi
exit "$status"
