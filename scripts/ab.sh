#!/usr/bin/env bash
# ab.sh REF WORKLOAD PAIRS compares one benchmark workload between
# commit REF (side A) and the working tree (side B).
#
# Each side is built in a throwaway git worktree: A at REF, B at the
# working tree as it stands (tracked and untracked files, .gitignore
# honoured).  Pair i runs one untraced pass of each side with seed i,
# A first in odd pairs and B first in even ones, so a drift of the host
# does not favour one side.  Each pass measures for the run_seconds of
# BENCHMARK.json.  For every end-to-end metric of BENCHMARK.json it
# prints both medians, A's interquartile range, the pairs B won and one
# verdict, then every pass's readings:
#   better      B won at least 9 in 10 of the pairs, and the medians
#               differ by more than A's interquartile range;
#   worse       the mirror;
#   unresolved  anything else.
#
#   bash scripts/ab.sh HEAD~1 halo-p2-socket 6    (or: make ab REF=... WORKLOAD=... PAIRS=...)
set -euo pipefail

if [ $# -ne 3 ]; then
	echo "usage: $0 REF WORKLOAD PAIRS" >&2
	exit 2
fi
ref=$1 workload=$2 pairs=$3
root=$(git rev-parse --show-toplevel)
cd "$root"
work=$(mktemp -d)
cleanup() {
	for side in a b; do
		git worktree remove --force "$work/$side" 2>/dev/null || true
	done
	git worktree prune
	rm -rf "$work"
}
trap cleanup EXIT

# The working tree as a tree object, staged in a private index.
export_tree() {
	GIT_INDEX_FILE="$work/index" git read-tree HEAD
	GIT_INDEX_FILE="$work/index" git add -A
	GIT_INDEX_FILE="$work/index" git write-tree
}
tree=$(export_tree)

git worktree add --quiet --detach "$work/a" "$ref"
git worktree add --quiet --detach "$work/b" HEAD
git -C "$work/b" read-tree -u --reset "$tree"
for side in a b; do
	echo "ab: building side $side" >&2
	(cd "$work/$side/benchmark" && GOTOOLCHAIN=local go build -o "$work/$side.bin" .)
done

echo "ab: A = $(git rev-parse --short "$ref"), B = working tree, $workload, $pairs pairs" >&2
for ((i = 1; i <= pairs; i++)); do
	order="a b"
	if [ $((i % 2)) -eq 0 ]; then
		order="b a"
	fi
	for side in $order; do
		(cd "$work/$side/benchmark" && "$work/$side.bin" -workload "$workload" -seed "$i" -trace 0 || true) \
			> "$work/pass.out" 2>&1
		echo "$i $side $(tail -n 1 "$work/pass.out")" >> "$work/results"
		echo "ab: pair $i side $side done" >&2
	done
done

awk -v pairs="$pairs" '
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
	f = line; sub(/.*"failed":/, "", f); sub(/[^0-9].*/, "", f)
	failed[side] += f
	for (k = 1; k <= nm; k++) val[names[k], side, pair] = value(line, names[k])
}
END {
	need = int(0.9 * pairs); if (need < 0.9 * pairs) need++
	printf "%-12s %14s %14s %14s %9s  %s\n", "metric", "A median", "B median", "A IQR", "B won", "verdict"
	for (k = 1; k <= nm; k++) {
		m = names[k]; na = nb = won = lost = 0
		for (p = 1; p <= pairs; p++) {
			a = val[m, "a", p]; b = val[m, "b", p]
			if (a != "") va[++na] = a + 0
			if (b != "") vb[++nb] = b + 0
			if (a == "" || b == "") continue
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
		printf "%-12s %14.6g %14.6g %14.6g %5d/%-3d  %s\n", m, ma, mb, iqr, won, pairs, verdict
	}
	printf "failed operations: A %d, B %d\n", failed["a"], failed["b"]
	printf "\n%-5s", "pair"
	for (k = 1; k <= nm; k++) printf " %21s", names[k] " A/B"
	printf "\n"
	for (p = 1; p <= pairs; p++) {
		printf "%-5d", p
		for (k = 1; k <= nm; k++) printf " %21s", show(val[names[k], "a", p]) "/" show(val[names[k], "b", p])
		printf "\n"
	}
}' BENCHMARK.json "$work/results"
