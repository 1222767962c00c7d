#!/usr/bin/env bash
# The performance gate: judges the working tree against BASE_REF with the
# repository benchmark, the command BENCHMARK.json names (cmd/misbench at
# seed 1 and its default run length). Both sides run on this host, BASE_REF
# from a temporary git worktree. `misbench -compare` judges the pair. When
# that compare fails, a second pair runs in the opposite order, and the
# gate fails only on a workload × metric that is worse or missing in both.
#
#   bash scripts/benchgate.sh BASE_REF
#
# Results, run logs and compare tables go to .bench_build/gate/.
# Exit status: 0 pass; 1 a confirmed worse or missing row, or failed ops in
# the change's run; 2 a side that does not build or run, or results that
# cannot be compared.
set -euo pipefail

if [[ $# -ne 1 ]]; then
	echo "usage: bash scripts/benchgate.sh BASE_REF" >&2
	exit 2
fi
root=$(git rev-parse --show-toplevel)
cd "$root"
base=$(git rev-parse --verify --quiet "$1^{commit}") || { echo "benchgate: unknown ref $1" >&2; exit 2; }
gate=$root/.bench_build/gate
rm -rf "$gate"
mkdir -p "$gate"
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"; git worktree prune' EXIT
git worktree add --quiet --detach "$tmp/base" "$base"
# One build cache for both sides; run.sh rebuilds the binary before each run.
export CARGO_TARGET_DIR=$root/.bench_build

# run SIDE PAIR: one benchmark run of SIDE (base or change) into
# $gate/SIDE-PAIR.json, its output into $gate/SIDE-PAIR.log.
run() {
	local dir=$root status=0
	[[ $1 == base ]] && dir=$tmp/base
	echo "benchgate: pair $2: running $1 ($(git -C "$dir" rev-parse --short HEAD))"
	(cd "$dir" && bash cmd/misbench/run.sh --seed 1 --out "$gate/$1-$2.json") >"$gate/$1-$2.log" 2>&1 || status=$?
	if [[ ! -f $gate/$1-$2.json ]]; then
		echo "benchgate: the $1 side did not build or run (exit $status); see $gate/$1-$2.log" >&2
		exit 2
	fi
	# misbench writes its results before exiting 1 on a failed op.
	if [[ $status -ne 0 ]]; then
		grep -h 'misbench:' "$gate/$1-$2.log" >&2 || true
		if [[ $1 == change ]]; then
			echo "benchgate: the change failed ops; see $gate/$1-$2.log" >&2
			exit 1
		fi
		echo "benchgate: warning: the base failed ops; see $gate/$1-$2.log" >&2
	fi
}

# compare PAIR: misbench's verdict on the pair, table in $gate/compare-PAIR.txt.
compare() {
	local status=0
	bash cmd/misbench/run.sh -compare "$gate/base-$1.json" "$gate/change-$1.json" >"$gate/compare-$1.txt" || status=$?
	cat "$gate/compare-$1.txt"
	[[ $status -le 1 ]] || exit 2
	return "$status"
}

# failing PAIR: the rows of a compare table that are worse or missing.
failing() {
	awk '/ missing from /{sub(/ +missing from .*/, ""); $1 = $1; print; next} $NF == "worse" {print $1, $2}' \
		"$gate/compare-$1.txt" | sort -u
}

run base 1
run change 1
if compare 1; then
	echo "benchgate: pass"
	exit 0
fi
echo "benchgate: pair 1 failed; running pair 2 in the opposite order"
run change 2
run base 2
compare 2 || true
confirmed=$(comm -12 <(failing 1) <(failing 2))
if [[ -n $confirmed ]]; then
	echo "benchgate: worse or missing in both pairs:"
	echo "$confirmed"
	exit 1
fi
echo "benchgate: pass (no row failed in both pairs)"
