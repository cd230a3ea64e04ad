#!/usr/bin/env bash
# A/B the layered benchmark: BASE (a git revision) against the working tree.
#
#   scripts/bench_ab.sh BASE [WORKLOAD...]        (make bench-ab BASE=<rev>)
#
# BASE is checked out into a temporary git worktree, so each side runs its
# own bench/ and src/.  Every workload is run in both trees back to back with
# the same seed (SEED, default 0; REPEATS fresh subprocesses each, default 3),
# BASE first on every other workload so neither side always gets the warmer
# machine, and `python -m bench compare` judges A = BASE against B = the
# working tree.  Result files stay in bench/out/ab/.  Exits non-zero when a
# run fails its checks or a judged row is `worse`.
set -euo pipefail

base=${1:?usage: scripts/bench_ab.sh BASE [WORKLOAD...]}
shift
python=${PYTHON:-python}
seed=${SEED:-0}
repeats=${REPEATS:-3}
tree=$(git rev-parse --show-toplevel)
out=$tree/bench/out/ab
mkdir -p "$out"

scratch=$(mktemp -d)
cleanup() {
    git -C "$tree" worktree remove --force "$scratch/base" 2>/dev/null || true
    rm -rf "$scratch"
}
trap cleanup EXIT
git -C "$tree" worktree add --quiet --detach "$scratch/base" "$base"

if [ $# -eq 0 ]; then
    set -- $(cd "$tree" && $python -c 'from bench.spec import WORKLOADS; print(*WORKLOADS)')
fi

declare -A checkout=([A]="$scratch/base" [B]="$tree")
status=0
order="A B"
for workload in "$@"; do
    for side in $order; do
        (cd "${checkout[$side]}" && $python -m bench run --workload "$workload" \
            --seed "$seed" --repeats "$repeats" --out "$out/$side-$workload.json") || status=1
    done
    if [ "$order" = "A B" ]; then order="B A"; else order="A B"; fi
done

# one document per side, as `compare` reads them
merge='
import json, sys
side, *workloads = sys.argv[1:]
documents = [json.load(open(f"{side}-{w}.json")) for w in workloads]
for document in documents[1:]:
    documents[0]["workloads"].update(document["workloads"])
json.dump(documents[0], open(f"{side}.json", "w"), indent=1, sort_keys=True)
'
$python -c "$merge" "$out/A" "$@"
$python -c "$merge" "$out/B" "$@"

echo
echo "A = $base ($(git -C "$tree" rev-parse --short "$base")), B = the working tree"
(cd "$tree" && $python -m bench compare "$out/A.json" "$out/B.json") || status=1
exit $status
