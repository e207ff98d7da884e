#!/usr/bin/env bash
# Regenerates every paper table (`aquabench -experiment all` at default
# flags) and diffs it against the checked-in results_full.txt. Only the
# wall-clock fields are masked: the Figure 3 table's overhead(us) and
# model-share columns and the window study's overhead(us) column. Every
# other field is virtual time and must match digit for digit.
# Usage: bash scripts/check-results.sh   (about 40 s on 2 cores)
set -euo pipefail
cd "$(dirname "$0")/.."
work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT

mask() {
	awk '
		/^replicas +window +overhead\(us\)/ { fig3 = 1; print; next }
		/^window +reads .*overhead\(us\)$/  { win = 1; print; next }
		/^$/                                { fig3 = 0; win = 0 }
		fig3                                { $3 = "-"; $4 = "-" }
		win                                 { $NF = "-" }
		{ print }
	' "$1"
}

go run ./cmd/aquabench -experiment all -progress=false > "$work/got.txt"
mask results_full.txt > "$work/want.masked"
mask "$work/got.txt" > "$work/got.masked"
if ! diff -u "$work/want.masked" "$work/got.masked"; then
	echo "check-results: aquabench -experiment all diverged from results_full.txt" >&2
	exit 1
fi
echo "check-results: every virtual-time field matches results_full.txt"
