#!/usr/bin/env bash
# Determinism self-check for one workload. Runs it twice with one seed
# and once with another, then requires equal digests and equal quality
# metrics for the equal seeds and a different digest for the other seed
# (which shows the seed reaches the inputs). Run from the repository
# root:
#
#   bash stepbench/selfcheck.sh deep-closure [seed] [seconds]
set -euo pipefail

workload=${1:?usage: selfcheck.sh <workload> [seed] [seconds]}
seed=${2:-1}
seconds=${3:-1}

# record prints the run's digest and quality metrics from its record line.
record() {
	bash stepbench/run.sh --workload "$workload" --seed "$1" --seconds "$seconds" --trace 0 |
		grep '^{"record"' | sed -e 's/.*"digest":"\([0-9a-f]*\)".*"quality":\({[^}]*}\).*/\1 \2/'
}

a=$(record "$seed")
b=$(record "$seed")
c=$(record "$((seed + 1))")
echo "seed $seed:       $a"
echo "seed $seed again: $b"
echo "seed $((seed + 1)):       $c"
if [[ "$a" != "$b" ]]; then
	echo "selfcheck: FAIL: two runs with seed $seed differ" >&2
	exit 1
fi
if [[ "${a%% *}" == "${c%% *}" ]]; then
	echo "selfcheck: FAIL: seeds $seed and $((seed + 1)) print the same digest" >&2
	exit 1
fi
echo "selfcheck: ok"
