#!/usr/bin/env bash
# abpairs.sh — paired A/B runs of the repository benchmark.
#
#   scripts/abpairs.sh <parent-rev> [-n pairs] [-w workload] [-s seed]
#                      [-t seconds] [-r trace] [-d dir]
#
# Copies <parent-rev> (A, with git archive) and the working tree
# (B: tracked and untracked files, minus what .gitignore names) into
# two directories under dir (default: a new mktemp -d), so each side
# builds llcbench from its own sources. It then runs `pairs` alternating
# pairs of
#
#   bash llcbench/run.sh --workload W --seed S --seconds T --trace R
#
# A first in odd pairs and B first in even ones, so a drift in machine
# speed falls on both sides alike. For every metric of the result line
# it prints A's and B's median and quartiles, how many pairs B won (by
# the metric's "better" direction in BENCHMARK.json; ties count for
# neither side), and a two-sided sign-test p over the pairs that were
# not ties. The host-time rows (host.*, from each run's diagnostic
# line) print beside the reference-time ones, with machine.ref_ms: a
# gain that shows in one and not the other is the machine, not the
# program. -r 1 adds the traced run's per-layer metrics. Raw run output
# is kept under dir/runs. Nothing in the repository is edited.
#
# Defaults: 10 untraced pairs of grid at seed 1, 30 s. Exit codes: 0 = ran,
# 1 = a run failed, 2 = usage error.
set -euo pipefail
cd "$(dirname "$0")/.."
root=$(pwd)

usage() { sed -n '4,5p' "$0" | sed 's/^# \{0,1\}//' >&2; exit 2; }
[ $# -ge 1 ] || usage
rev=$1
shift
pairs=10 workload=grid seed=1 seconds=30 trace=0 dir=
while getopts "n:w:s:t:r:d:" opt; do
    case $opt in
    n) pairs=$OPTARG ;;
    w) workload=$OPTARG ;;
    s) seed=$OPTARG ;;
    t) seconds=$OPTARG ;;
    r) trace=$OPTARG ;;
    d) dir=$OPTARG ;;
    *) usage ;;
    esac
done
git rev-parse --verify -q "$rev^{commit}" >/dev/null || { echo "abpairs: unknown revision $rev" >&2; exit 2; }
[ -n "$dir" ] || dir=$(mktemp -d)
mkdir -p "$dir/runs"
rm -rf "$dir/a" "$dir/b"
mkdir -p "$dir/a" "$dir/b"

git archive "$rev" | tar -x -C "$dir/a"
git ls-files -z --cached --others --exclude-standard |
    while IFS= read -r -d '' f; do if [ -e "$f" ]; then printf '%s\0' "$f"; fi; done |
    tar --null -T - -c | tar -x -C "$dir/b"

run() { # side pair
    local out="$dir/runs/$1-$2.txt"
    if ! (cd "$dir/$1" && bash llcbench/run.sh --workload "$workload" --seed "$seed" \
        --seconds "$seconds" --trace "$trace") >"$out" 2>"$out.err"; then
        echo "abpairs: run $1 of pair $2 failed; see $out.err" >&2
        exit 1
    fi
}

echo "abpairs: A = $rev, B = working tree; $pairs pairs of $workload, seed $seed, ${seconds}s, trace $trace; runs in $dir/runs" >&2
for i in $(seq "$pairs"); do
    if [ $((i % 2)) -eq 1 ]; then run a "$i"; run b "$i"; else run b "$i"; run a "$i"; fi
    echo "abpairs: pair $i/$pairs done" >&2
done

python3 - "$dir/runs" "$pairs" "$root/BENCHMARK.json" <<'EOF'
import json, math, statistics, sys
runs, pairs, bench = sys.argv[1], int(sys.argv[2]), sys.argv[3]
better = {m["name"]: m["better"] for m in json.load(open(bench)).get("end_to_end", [])}
for m in ("setup_s", "op_s_p50", "ops_per_s"):
    if m in better:
        better["host." + m] = better[m]

def load(side, i):
    lines = [l for l in open(f"{runs}/{side}-{i}.txt") if l.startswith("{")]
    res, diag = json.loads(lines[-1]), json.loads(lines[-2])
    vals = {k: v["value"] for k, v in res["metrics"].items()}
    vals.update({k: v for k, v in diag.items() if k.startswith(("host.", "machine.ref_ms"))})
    return vals

a = [load("a", i) for i in range(1, pairs + 1)]
b = [load("b", i) for i in range(1, pairs + 1)]

def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0]
    q = statistics.quantiles(xs, n=4, method="inclusive")
    return q[0], q[2]

def sign_p(wins, losses):
    n, k = wins + losses, min(wins, losses)
    if n == 0:
        return 1.0
    return min(1.0, 2 * sum(math.comb(n, j) for j in range(k + 1)) / 2 ** n)

# Each host.* row follows its reference-time twin.
names = sorted(set().union(*a, *b), key=lambda k: (k.removeprefix("host."), k.startswith("host.")))
print(f"{'metric':<20} {'A median':>11} {'A q1..q3':>23} {'B median':>11} {'B q1..q3':>23} {'B/A':>6} {'B wins':>7} {'sign p':>7}")
for k in names:
    xa = [r[k] for r in a if k in r]
    xb = [r[k] for r in b if k in r]
    if len(xa) != pairs or len(xb) != pairs:
        continue
    ma, mb = statistics.median(xa), statistics.median(xb)
    qa, qb = quartiles(xa), quartiles(xb)
    sign = 1 if better.get(k, "lower") == "lower" else -1
    wins = sum(1 for x, y in zip(xa, xb) if sign * (y - x) < 0)
    losses = sum(1 for x, y in zip(xa, xb) if sign * (y - x) > 0)
    ratio = f"{mb / ma:6.3f}" if ma else "     -"
    print(f"{k:<20} {ma:11.5g} {qa[0]:11.5g}..{qa[1]:<10.5g} {mb:11.5g} {qb[0]:11.5g}..{qb[1]:<10.5g} {ratio} {wins:>3}/{pairs:<3} {sign_p(wins, losses):7.3g}")
EOF
