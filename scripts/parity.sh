#!/usr/bin/env bash
# Behaviour parity of this checkout against another revision:
#
#   bash scripts/parity.sh <rev>
#
# unpacks <rev> (git archive) into a directory under .bench_build/, builds
# basim, baexp, baattack and baload in both trees, and runs one fixed matrix
# through both: every
# registry row at its canonical size (read from internal/cli/cli.go) × every
# adversary basim names (none, split-brain, multi-faced, silent, crash and the
# randomized chaos, garbage and bit-flipper, which draw from per-processor
# streams and so replay over TCP too; silent and crash are not strategies but
# fault-plan expansions, crash rules for the last t processors merged into
# the run's plan, so against a revision where they were node wrappers their
# traces add fault-crash events and drop the deliveries to, and the decide
# lines of, the crashed processors) × the memory and tcp transports × no
# fault plan, crash=1@2 and the delivery-fault plan
# drop=1->2@2;dup=1->3@1;reorder=1->*@* (every rule names sender 1, so the
# plan stays in budget and the fault-* events are traced), plus baexp's text
# and CSV tables, baattack's search atlas and its four scripted attacks
# (audit, replay, omission, starve) at t=3 against alg1, alg2, alg3, alg5,
# dolev-strong, lsp, phase-king and both strawmen, plus the served path: every
# registry row that decides a value (class agreement or strawman, read from
# the same table) through baload -selfhost -verify -trace, over memory, a TCP
# mesh with -link-delay 0 and one with -link-delay 2ms. Each command's stdout,
# stderr and exit status, and a run's -trace JSONL and basim's -metrics JSON,
# must be byte-identical between the trees (timing lines aside — basim's
# elapsed:, baload's throughput:, latency: and the selfhost: banner with its
# port; runs use relative paths). Prints "k/k identical" and exits 0, or
# prints every command that differs, then "d/k differ", and exits 1.
set -euo pipefail

if [ $# -ne 1 ]; then
	echo "usage: bash scripts/parity.sh <rev>" >&2
	exit 2
fi
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
sha="$(git -C "$root" rev-parse --short "$1^{commit}")"
work="$root/.bench_build/parity"
parent="$work/tree-$sha"
mkdir -p "$work"
if [ ! -d "$parent" ]; then
	mkdir -p "$parent.tmp"
	git -C "$root" archive "$sha" | tar -x -C "$parent.tmp"
	mv "$parent.tmp" "$parent"
fi

# Both sides' binaries and run directories: a = <rev>, b = this checkout.
rm -rf "$work/a" "$work/b"
for side in a b; do
	tree="$parent"
	[ "$side" = b ] && tree="$root"
	mkdir -p "$work/$side/bin" "$work/$side/run"
	(cd "$tree" && go build -o "$work/$side/bin/" ./cmd/basim ./cmd/baexp ./cmd/baattack ./cmd/baload)
done

# rows: "name n t scheme" per registry row, parsed from this checkout's table.
rows="$(sed -nE 's/^[[:space:]]*\{"([a-z0-9-]+)", .*, ([0-9]+), ([0-9]+), "([a-z0-9]+)", Class.*/\1 \2 \3 \4/p' "$root/internal/cli/cli.go")"
# served: the rows a server can serve, the ones that decide a value.
served="$(sed -nE 's/^[[:space:]]*\{"([a-z0-9-]+)", .*, ([0-9]+), ([0-9]+), "([a-z0-9]+)", Class(Agreement|Strawman),.*/\1 \2 \3 \4/p' "$root/internal/cli/cli.go")"
usage="$("$work/b/bin/basim" -help 2>&1 || true)" # -help exits 2
names="$(echo "$usage" | sed -nE 's/.*protocol: ([a-z0-9|-]+) .*/\1/p' | tr '|' ' ')"
if [ "$(echo $names)" != "$(echo "$rows" | cut -d' ' -f1 | tr '\n' ' ' | sed 's/ $//')" ]; then
	echo "parity: rows parsed from internal/cli/cli.go ($(echo "$rows" | cut -d' ' -f1 | tr '\n' ' ')) are not basim's protocols ($names)" >&2
	exit 2
fi

# check <tool> <args...>: run the command in both trees and compare.
k=0
d=0
check() {
	local tool="$1"
	shift
	k=$((k + 1))
	for side in a b; do
		local dir="$work/$side/run"
		rm -f "$dir"/*
		(cd "$dir" && { "$work/$side/bin/$tool" "$@" >out 2>err && echo 0 || echo $?; } >status)
		sed -i '/^elapsed: /d;/^throughput: /d;/^latency: /d;/^selfhost: /d' "$dir/out"
	done
	local f
	for f in out err status trace.jsonl metrics.json; do
		if [ -e "$work/a/run/$f" ] || [ -e "$work/b/run/$f" ]; then
			if ! cmp -s "$work/a/run/$f" "$work/b/run/$f"; then
				echo "differs ($f): $tool $(printf '%q ' "$@")"
				d=$((d + 1))
				return
			fi
		fi
	done
}

while read -r name n t scheme; do
	for adv in none split-brain multi-faced silent crash chaos garbage bit-flipper; do
		for transport in memory tcp; do
			for faults in "" "crash=1@2" "drop=1->2@2;dup=1->3@1;reorder=1->*@*"; do
				check basim -protocol "$name" -n "$n" -t "$t" -scheme "$scheme" -adversary "$adv" \
					-transport "$transport" -faults "$faults" -trace trace.jsonl -metrics metrics.json
			done
		done
	done
done <<<"$rows"
check baexp
check baexp -format csv
check baattack -search -protocol all -objective both -budget 48 -seed 1
for name in alg1 alg2 alg3 alg5 dolev-strong lsp phase-king strawman-broadcast strawman-thinrelay; do
	for attack in audit replay omission starve; do
		check baattack -attack "$attack" -protocol "$name" -t 3
	done
done
while read -r name n t scheme; do
	for transport in "-transport memory" "-transport tcp -link-delay 0" "-transport tcp -link-delay 2ms"; do
		# shellcheck disable=SC2086 # $transport is two or four words
		check baload -selfhost -protocol "$name" -n "$n" -t "$t" -scheme "$scheme" $transport \
			-c 1 -shards 1 -requests 4 -mod 2 -seed 5 -verify -trace trace.jsonl
	done
done <<<"$served"

if [ "$d" -gt 0 ]; then
	echo "$d/$k differ"
	exit 1
fi
echo "$k/$k identical"
