#!/usr/bin/env bash
# ab.sh REF WORKLOAD PAIRS compares one benchmark workload between
# commit REF (side A) and the working tree (side B).
#
# Each side is unpacked with git archive into a throwaway directory: A
# at REF, B at the working tree as it stands (tracked and untracked
# files, .gitignore honoured).  PAIRS is a count N, for seeds 1..N, or
# a seed range FIRST-LAST, so a claim can be checked on seeds not used
# while the change was written.  Each pair runs one untraced pass of
# each side with the pair's seed, A first in odd pairs and B first in
# even ones, so a drift of the host does not favour one side.  Each
# pass measures for the run_seconds of BENCHMARK.json.  For every
# end-to-end metric of BENCHMARK.json it prints both medians, A's
# interquartile range, the pairs B won and one verdict, then every
# pass's readings:
#   better      B won at least 9 in 10 of the pairs, and the medians
#               differ by more than A's interquartile range;
#   worse       the mirror;
#   unresolved  anything else.
# Beside the verdict it prints the median paired difference B - A as a
# per cent of A's median, with a 95 % bootstrap interval: 2000
# resamples of the pairs with replacement, drawn from a fixed seed, so
# the same readings print the same interval.  The interval does not
# enter the verdict.
#
#   bash scripts/ab.sh HEAD~1 halo-p2-socket 6        (seeds 1..6)
#   bash scripts/ab.sh HEAD~1 halo-p2-socket 301-310  (or: make ab REF=... WORKLOAD=... PAIRS=...)
set -euo pipefail

usage() {
	echo "usage: $0 REF WORKLOAD PAIRS   (PAIRS: N for seeds 1..N, or FIRST-LAST)" >&2
	exit 2
}
[ $# -eq 3 ] || usage
ref=$1 workload=$2
case $3 in
*-*) first=${3%%-*} last=${3#*-} ;;
*) first=1 last=$3 ;;
esac
[[ $first =~ ^[0-9]+$ && $last =~ ^[0-9]+$ ]] || usage
first=$((10#$first)) last=$((10#$last))
((first <= last)) || usage
pairs=$((last - first + 1))
root=$(git rev-parse --show-toplevel)
cd "$root"
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

# The working tree as a tree object, staged in a private index.
export_tree() {
	GIT_INDEX_FILE="$work/index" git read-tree HEAD
	GIT_INDEX_FILE="$work/index" git add -A
	GIT_INDEX_FILE="$work/index" git write-tree
}
tree=$(export_tree)

mkdir "$work/a" "$work/b"
git archive "$ref" | tar -x -C "$work/a"
git archive "$tree" | tar -x -C "$work/b"
for side in a b; do
	echo "ab: building side $side" >&2
	(cd "$work/$side/benchmark" && GOTOOLCHAIN=local go build -o "$work/$side.bin" .)
done

echo "ab: A = $(git rev-parse --short "$ref"), B = working tree, $workload, $pairs pairs, seeds $first-$last" >&2
for ((i = 1; i <= pairs; i++)); do
	seed=$((first + i - 1))
	order="a b"
	if [ $((i % 2)) -eq 0 ]; then
		order="b a"
	fi
	for side in $order; do
		(cd "$work/$side/benchmark" && "$work/$side.bin" -workload "$workload" -seed "$seed" -trace 0 || true) \
			> "$work/pass.out" 2>&1
		echo "$i $side $(tail -n 1 "$work/pass.out")" >> "$work/results"
		echo "ab: pair $i (seed $seed) side $side done" >&2
	done
done

awk -v pairs="$pairs" -v first="$first" '
# Sorted copy of v[1..n] into s[1..n].
function sortinto(v, n, s,    i, j, t) {
	for (i = 1; i <= n; i++) s[i] = v[i]
	for (i = 2; i <= n; i++) {
		t = s[i]
		for (j = i - 1; j >= 1 && s[j] > t; j--) s[j + 1] = s[j]
		s[j + 1] = t
	}
}
# Quantile q of the sorted s[1..n], interpolated between ranks.
function quantile(s, n, q,    h, lo) {
	h = (n - 1) * q + 1
	lo = int(h)
	if (lo >= n) return s[n]
	return s[lo] + (h - lo) * (s[lo + 1] - s[lo])
}
# Shell sort of v[1..n] in place, for the many bootstrap medians.
function shellsort(v, n,    gap, i, j, t) {
	for (gap = int(n / 2); gap > 0; gap = int(gap / 2))
		for (i = gap + 1; i <= n; i++) {
			t = v[i]
			for (j = i - gap; j >= 1 && v[j] > t; j -= gap) v[j + gap] = v[j]
			v[j + gap] = t
		}
}
# Median of the n paired differences d[1..n], and into ci["lo"] and
# ci["hi"] the 2.5 and 97.5 percentiles of the medians of 2000
# resamples of them with replacement, from a fixed seed.
function bootstrap(d, n, ci,    r, k, t, st, bm, med) {
	sortinto(d, n, st); med = quantile(st, n, 0.5)
	srand(1)
	for (r = 1; r <= 2000; r++) {
		for (k = 1; k <= n; k++) t[k] = d[int(rand() * n) + 1]
		sortinto(t, n, st)
		bm[r] = quantile(st, n, 0.5)
	}
	shellsort(bm, 2000)
	ci["lo"] = quantile(bm, 2000, 0.025); ci["hi"] = quantile(bm, 2000, 0.975)
	return med
}
# A reading as printed: four significant digits, "-" if absent.
function show(v) { return v == "" ? "-" : sprintf("%.4g", v) }
# The value of metric m in a result line, or "" if it is absent.
function value(line, m,    re) {
	re = "\"" m "\":\\{\"value\":[-+0-9.eE]+"
	if (!match(line, re)) return ""
	return substr(line, RSTART + length(m) + 12, RLENGTH - length(m) - 12)
}
FNR == 1 { file++ }
# BENCHMARK.json: the end-to-end metrics and their directions.
file == 1 && /"end_to_end"/ { e2e = 1 }
file == 1 && e2e && /\]/ { e2e = 0 }
file == 1 && e2e && /"name"/ { name = $0; gsub(/.*"name": *"|".*/, "", name); names[++nm] = name }
file == 1 && e2e && /"better"/ { b = $0; gsub(/.*"better": *"|".*/, "", b); better[name] = b }
# The result lines: pair, side, the last line of the pass.
file == 2 {
	pair = $1; side = $2
	line = $0
	if (line ~ /"failed":/) {
		f = line; sub(/.*"failed":/, "", f); sub(/[^0-9].*/, "", f)
		failed[side] += f
	}
	for (k = 1; k <= nm; k++) val[names[k], side, pair] = value(line, names[k])
}
END {
	need = int(0.9 * pairs); if (need < 0.9 * pairs) need++
	printf "%-12s %14s %14s %14s %9s  %-10s  %s\n", "metric", "A median", "B median", "A IQR", "B won", "verdict", "B-A % of A [95% CI]"
	for (k = 1; k <= nm; k++) {
		m = names[k]; na = nb = nd = won = lost = 0
		for (p = 1; p <= pairs; p++) {
			a = val[m, "a", p]; b = val[m, "b", p]
			if (a != "") va[++na] = a + 0
			if (b != "") vb[++nb] = b + 0
			if (a == "" || b == "") continue
			d[++nd] = b - a
			if (better[m] == "lower" ? b + 0 < a + 0 : b + 0 > a + 0) won++
			else if (a + 0 != b + 0) lost++
		}
		if (na == 0 || nb == 0) { printf "%-12s %14s\n", m, "no readings"; continue }
		sortinto(va, na, sa); sortinto(vb, nb, sb)
		ma = quantile(sa, na, 0.5); mb = quantile(sb, nb, 0.5)
		iqr = quantile(sa, na, 0.75) - quantile(sa, na, 0.25)
		gap = mb - ma; if (gap < 0) gap = -gap
		verdict = "unresolved"
		if (gap > iqr && won >= need) verdict = "better"
		if (gap > iqr && lost >= need) verdict = "worse"
		diff = "-"
		if (nd > 0 && ma != 0) {
			md = bootstrap(d, nd, ci)
			diff = sprintf("%+.1f [%+.1f, %+.1f]", 100 * md / ma, 100 * ci["lo"] / ma, 100 * ci["hi"] / ma)
		}
		printf "%-12s %14.6g %14.6g %14.6g %5d/%-3d  %-10s  %s\n", m, ma, mb, iqr, won, pairs, verdict, diff
	}
	printf "failed operations: A %d, B %d\n", failed["a"], failed["b"]
	printf "\n%-5s", "seed"
	for (k = 1; k <= nm; k++) printf " %21s", names[k] " A/B"
	printf "\n"
	for (p = 1; p <= pairs; p++) {
		printf "%-5d", first + p - 1
		for (k = 1; k <= nm; k++) printf " %21s", show(val[names[k], "a", p]) "/" show(val[names[k], "b", p])
		printf "\n"
	}
}' BENCHMARK.json "$work/results"
