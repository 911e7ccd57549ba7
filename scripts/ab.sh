#!/usr/bin/env bash
# Runs interleaved A/B pairs of the repository benchmark, the working tree
# against a base revision, and compares the two sides with
# `benchmark/run.sh -compare`, exiting with its status:
#
#   bash scripts/ab.sh <base-rev> [pairs] [benchmark flags...]
#   make ab BASE=<rev> PAIRS=10
#
# The base is checked out with `git worktree add --detach` under
# .bench_build/ and removed on exit. Each side builds with its own
# benchmark/run.sh and runs `-workload all -seconds 25 -json <file>`,
# plus any flags given after the pair count (for example -seed 4200).
# Odd pairs run the working tree first, even pairs the base, so a drift
# of the machine over the pairs falls on both sides alike. Reports
# and logs land in .bench_build/ab/<start time>/: base-<i>.json and
# head-<i>.json. After the comparison, `go run ./scripts/abstat` prints
# each side's median [Q1, Q3] per workload and end-to-end metric, the
# head/base ratio of the medians with its 95% bootstrap interval over
# the pairs, and how many pairs the working tree read better in; its
# failure is reported but does not change the exit status.
set -euo pipefail
cd "$(dirname "$0")/.."
if [ $# -lt 1 ]; then
	echo "usage: bash scripts/ab.sh <base-rev> [pairs] [benchmark flags...]" >&2
	exit 2
fi
base_rev=$1
pairs=${2:-10}
shift $(($# < 2 ? $# : 2))
root=$PWD
out="$root/.bench_build/ab/$(date +%Y%m%d-%H%M%S)"
wt="$root/.bench_build/ab-base"

cleanup() {
	git worktree remove --force "$wt" 2>/dev/null || rm -rf "$wt"
	git worktree prune
}
cleanup
trap cleanup EXIT
trap 'exit 130' INT TERM
git worktree add --quiet --detach "$wt" "$base_rev"
mkdir -p "$out"
echo "reports in $out"

# run <side> <pair> [flags...]: one benchmark run of a side from its own
# tree.
run() {
	local side=$1 pair=$2 dir=$root
	shift 2
	[ "$side" = base ] && dir=$wt
	echo "pair $pair/$pairs: $side at $(git -C "$dir" rev-parse --short HEAD)"
	bash "$dir/benchmark/run.sh" -workload all -seconds 25 -json "$out/$side-$pair.json" "$@" \
		>"$out/$side-$pair.log" 2>&1 || { echo "run failed, see $out/$side-$pair.log" >&2; return 1; }
}

a= b=
for i in $(seq 1 "$pairs"); do
	if [ $((i % 2)) -eq 1 ]; then
		run head "$i" "$@"
		run base "$i" "$@"
	else
		run base "$i" "$@"
		run head "$i" "$@"
	fi
	a+="${a:+,}$out/base-$i.json"
	b+="${b:+,}$out/head-$i.json"
done
status=0
bash benchmark/run.sh -compare "$a" "$b" || status=$?
go run ./scripts/abstat "$out" || echo "abstat failed; the comparison above stands" >&2
exit "$status"
