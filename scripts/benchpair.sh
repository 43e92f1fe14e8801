#!/usr/bin/env bash
# Paired benchmark runs, parent commit against the working tree, by the
# method of the choosing-metrics guide (section 8):
#
#   scripts/benchpair.sh <parent-checkout> <workload> [pairs=10] [seconds=15]
#
# <parent-checkout> is a second copy of the repository at the parent
# commit (git clone or git archive, never a worktree of this one). Each
# pair runs `bench/run.sh --trace 0` once per side with the same seed (a
# fresh seed per pair, SEED0+pair), alternating which side goes first.
# Per end-to-end metric it prints both sides' median and quartiles, how
# many pairs the change won (ties count for neither), and a verdict:
#
#   gain     change won >= 9/10 of the pairs and the medians differ by
#            more than the parent's interquartile range
#   worse    the change's median is worse than the parent's by more than
#            the bound BENCHMARK.json fixes for the metric
#   -        neither
#
# Every raw result line is kept under $OUT (default a fresh temp dir) so
# a CHANGES.md entry can quote every run. Needs bash, awk, sort, grep.
set -euo pipefail

if [ $# -lt 2 ]; then
	sed -n '2,24p' "$0" >&2
	exit 2
fi
parent="$(cd "$1" && pwd)"
workload="$2"
pairs="${3:-10}"
seconds="${4:-15}"
here="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="${OUT:-$(mktemp -d)}"
seed0="${SEED0:-0}"
mkdir -p "$out"
[ "$parent" != "$here" ] || { echo "parent checkout is this checkout" >&2; exit 2; }

# run <side> <root> <seed>: one untraced run, its JSON line appended to
# $out/<side>.jsonl; a failed operation or a wrong answer stops the script.
run() {
	local line
	line="$(bash "$2/bench/run.sh" --workload "$workload" --seed "$3" --seconds "$seconds" --trace 0 2>>"$out/$1.err" | tail -n 1)"
	case "$line" in
	*'"correct":true'*'"failed":0,'*) echo "$line" >>"$out/$1.jsonl" ;;
	*) echo "benchpair: $1 seed $3: run failed or answered wrongly: $line" >&2; exit 1 ;;
	esac
}

for ((p = 1; p <= pairs; p++)); do
	seed=$((seed0 + p))
	if ((p % 2)); then
		run parent "$parent" "$seed"; run change "$here" "$seed"
	else
		run change "$here" "$seed"; run parent "$parent" "$seed"
	fi
	echo "pair $p/$pairs (seed $seed) done" >&2
done

# value <file> <metric>: the metric's value on every line, in run order.
value() { grep -o "\"$2\":{\"value\":[-0-9.e+]*" "$1" | sed 's/.*://'; }

# bound <metric>: the regression bound BENCHMARK.json declares.
bound() {
	awk -v m="\"$1\"," '$1 == "\"name\":" && $2 == m {hit = 1} hit && $1 == "\"bound\":" {print $2 + 0; exit}' "$here/BENCHMARK.json"
}

echo "workload $workload, $pairs pairs, $seconds s per run, seeds $((seed0 + 1))..$((seed0 + pairs)); raw results in $out"
printf '%-14s %-36s %-36s %7s %8s  %s\n' metric 'parent median [q1, q3]' 'change median [q1, q3]' wins 'change' verdict
for metric in ns_per_pkt batch_p50_ms create_ms setup_s heap_mb; do
	paste <(value "$out/parent.jsonl" "$metric") <(value "$out/change.jsonl" "$metric") |
		awk -v metric="$metric" -v bound="$(bound "$metric")" '
		# q(a, n, f): the f-quantile of sorted a[1..n], linear interpolation.
		function q(a, n, f,   h, lo) { h = (n - 1) * f + 1; lo = int(h); return lo >= n ? a[n] : a[lo] + (h - lo) * (a[lo + 1] - a[lo]) }
		function sorted(src, dst, n,   i, j, t) { for (i = 1; i <= n; i++) dst[i] = src[i]; for (i = 2; i <= n; i++) { t = dst[i]; for (j = i - 1; j >= 1 && dst[j] > t; j--) dst[j + 1] = dst[j]; dst[j + 1] = t } }
		{ n++; pa[n] = $1; ch[n] = $2; if ($2 < $1) wins++; else if ($2 > $1) losses++ }
		END {
			sorted(pa, sp, n); sorted(ch, sc, n)
			pm = q(sp, n, .5); cm = q(sc, n, .5); iqr = q(sp, n, .75) - q(sp, n, .25)
			verdict = "-"
			if (wins >= 0.9 * n && pm - cm > iqr) verdict = "gain"
			if (cm > pm * (1 + bound)) verdict = "worse"
			printf "%-14s %-36s %-36s %4d/%-2d %+7.1f%%  %s\n", metric,
				sprintf("%.5g [%.5g, %.5g]", pm, q(sp, n, .25), q(sp, n, .75)),
				sprintf("%.5g [%.5g, %.5g]", cm, q(sc, n, .25), q(sc, n, .75)),
				wins, n, 100 * (cm - pm) / pm, verdict
		}'
done
