#!/usr/bin/env bash
# A/B of this checkout against another revision through the benchmark ledger:
#
#   bash scripts/ab.sh <rev> <workload> [pairs=10]
#
# unpacks <rev> (git archive) into a directory under .bench_build/, then runs
#   bash bench/run.sh --workload <workload> --seed k --seconds 25 --trace 0
# in both trees for k = 1..pairs, swapping which side goes first every pair.
# For each end-to-end metric of BENCHMARK.json it prints both sides' q1, median
# and q3, how many pairs this checkout won, and PASS or FAIL of the candidate's
# median against the metric's bound (change: + is better). Exits 1 on any FAIL
# or when more operations failed here than there. Every run's JSON line is kept
# in .bench_build/ab/. Needs python3 for the quartiles.
set -euo pipefail

if [ $# -lt 2 ]; then
	echo "usage: bash scripts/ab.sh <rev> <workload> [pairs=10]" >&2
	exit 2
fi
rev="$1" workload="$2" pairs="${3:-10}"

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
sha="$(git -C "$root" rev-parse --short "$rev^{commit}")"
parent="$root/.bench_build/ab/tree-$sha"
log="$root/.bench_build/ab/$workload-$sha.jsonl"
mkdir -p "$root/.bench_build/ab"
if [ ! -d "$parent" ]; then
	mkdir -p "$parent.tmp"
	git -C "$root" archive "$sha" | tar -x -C "$parent.tmp"
	mv "$parent.tmp" "$parent"
fi
: >"$log"

# run <side> <tree> <seed>: one ledger run; its JSON line, tagged, goes to the log.
run() {
	local line
	line="$(bash "$2/bench/run.sh" --workload "$workload" --seed "$3" --seconds 25 --trace 0 2>/dev/null | tail -n 1)"
	echo "{\"side\":\"$1\",\"seed\":$3,\"run\":$line}" >>"$log"
	echo "  $1 seed $3 done" >&2
}

for k in $(seq 1 "$pairs"); do
	if [ $((k % 2)) -eq 1 ]; then
		run parent "$parent" "$k"
		run candidate "$root" "$k"
	else
		run candidate "$root" "$k"
		run parent "$parent" "$k"
	fi
done

python3 - "$root/BENCHMARK.json" "$log" "$workload" "$sha" <<'EOF'
import json, statistics, sys

spec, log, workload, sha = sys.argv[1:]
runs = {"parent": {}, "candidate": {}}
failed = {"parent": 0, "candidate": 0}
for line in open(log):
    rec = json.loads(line)
    runs[rec["side"]][rec["seed"]] = rec["run"]["metrics"]
    failed[rec["side"]] += rec["run"]["failed"]

def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q = statistics.quantiles(xs, n=4, method="inclusive")
    return q[0], q[1], q[2]

print(f"{workload}: parent {sha} vs this checkout, {len(runs['parent'])} pairs")
print(f"{'metric':<22} {'parent q1/med/q3':>38} {'candidate q1/med/q3':>38} {'wins':>6} {'change':>8} {'bound':>6}  verdict")
bad = failed["candidate"] > failed["parent"]
for m in json.load(open(spec))["end_to_end"]:
    name, lower = m["name"], m["better"] == "lower"
    seeds = sorted(runs["parent"])
    p = [runs["parent"][s][name]["value"] for s in seeds]
    c = [runs["candidate"][s][name]["value"] for s in seeds]
    wins = sum((b < a) if lower else (b > a) for a, b in zip(p, c))
    ties = sum(a == b for a, b in zip(p, c))
    pq, cq = quartiles(p), quartiles(c)
    worse = (cq[1] - pq[1]) / pq[1] if pq[1] else 0.0
    if not lower:
        worse = -worse
    verdict = "PASS" if worse <= m["bound"] else "FAIL"
    bad |= verdict == "FAIL"
    fmt = lambda q: "/".join(f"{x:.6g}" for x in q)
    score = f"{wins}/{len(p) - ties}" if ties < len(p) else "tied"
    print(f"{name:<22} {fmt(pq):>38} {fmt(cq):>38} {score:>6} {-100 * worse:>+7.1f}% {100 * m['bound']:>5.0f}%  {verdict}")
print(f"failed operations: parent {failed['parent']}, candidate {failed['candidate']}")
sys.exit(1 if bad else 0)
EOF
