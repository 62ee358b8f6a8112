#!/bin/bash
# bench/pairs.sh N [treeA [treeB]] — N paired runs of every workload's
# end-to-end pass on two source trees, alternating which side runs first,
# then `bench -compare` over the two result sets.
#
# With no trees both sides are this tree: the self-agreement check (two sets
# of runs of one commit must agree within the benchmark's own bounds).
# To judge a change: bench/pairs.sh 10 /root/scratch/parent .
#
# Run from the repository root. SEED (default 1) is the same on both sides;
# SECONDS_PER_RUN defaults to BENCHMARK.json's run_seconds.
set -euo pipefail

n=${1:?usage: bench/pairs.sh N [treeA [treeB]]}
treeA=$(cd "${2:-.}" && pwd)
treeB=$(cd "${3:-.}" && pwd)
seed=${SEED:-1}
secs=${SECONDS_PER_RUN:-$(sed -n 's/.*"run_seconds": *\([0-9]*\).*/\1/p' BENCHMARK.json)}
out=$(pwd)/bench/out/pairs
rm -rf "$out"
mkdir -p "$out/A" "$out/B"

commit() { git -C "$1" rev-parse HEAD 2>/dev/null || echo unknown; }

side() { # side <A|B> <tree> <pair>
	for w in write_sat write_durable_rate read_mix gbcast_mix failover; do
		(cd "$2" && go run ./bench -workload "$w" -seed "$seed" -seconds "$secs" -trace 0 \
			-commit "$(commit "$2")" -out "$out/$1/run$3") >/dev/null
	done
}

for i in $(seq 1 "$n"); do
	if ((i % 2)); then
		side A "$treeA" "$i"
		side B "$treeB" "$i"
	else
		side B "$treeB" "$i"
		side A "$treeA" "$i"
	fi
	echo "pair $i of $n done" >&2
done

go run ./bench -compare "$out/A" "$out/B"
