#!/usr/bin/env bash
# benchguard.sh — benchmark regression guard.
#
# Runs the repository benchmarks multiple times (-benchtime, -count) and
# compares the best-of-N ns/op of every benchmark against the committed
# baseline in BENCH_seed.json: a benchmark more than TOLERANCE slower
# than its baseline fails the guard; faster-than-baseline results are
# reported as improvements. Best-of-N is the right statistic for a
# regression guard: the minimum is the least noisy estimate of the code's
# actual cost, and one-shot timings on shared machines routinely swing
# far beyond any honest tolerance.
#
# Modes:
#
#   scripts/benchguard.sh           full advisory sweep (every benchmark,
#                                   BENCH_TOLERANCE, default ±20%)
#   scripts/benchguard.sh --gate    binding CI gate: only the hot-path
#                                   allowlist below, with the generous
#                                   BENCH_GATE_TOLERANCE (default +150%)
#                                   that absorbs runner-to-runner noise
#                                   while still catching order-of-magnitude
#                                   regressions
#   scripts/benchguard.sh --update  regenerate BENCH_seed.json in place.
#                                   Existing JSON is round-tripped: key
#                                   order and any extra fields (per-entry
#                                   or top-level) are preserved; only
#                                   ns_per_op and the method stanza are
#                                   rewritten.
#
# A baseline entry may carry its own "benchtime" (see below), which the
# default does not override; such an entry is timed at that benchtime
# only.
#
# Environment: BENCH_BENCHTIME (default 3x), BENCH_COUNT (default 2),
# BENCH_TOLERANCE (default 0.20), BENCH_GATE_TOLERANCE (default 1.50).
#
# Exit codes: 0 = within tolerance, 1 = regression(s), 2 = harness error.
set -u
cd "$(dirname "$0")/.."

BENCHTIME="${BENCH_BENCHTIME:-3x}"
COUNT="${BENCH_COUNT:-2}"
TOLERANCE="${BENCH_TOLERANCE:-0.20}"
GATE_TOLERANCE="${BENCH_GATE_TOLERANCE:-1.50}"
BASELINE=BENCH_seed.json

# Hot-path allowlist for --gate: the end-to-end attack benchmark, eviction-set
# construction's parallel TestEviction (Figure 3, the grid geometry) and its
# shared-load traversal under three policies, the cache substrate's set scans (lookup hit and miss, remove miss, remove from an
# empty set), the per-access microbenchmarks the attack's hot path is made of (the Parallel-Probing
# probe on both sides of the quiet-batch kernel: replayed, and mostly aborted
# under heavy noise), host construction
# and reset (the frame-pool shuffle), and key recovery's two off-host
# kernels (forest fit, HNP lattice). Keep this list in sync
# with the "Hot path" section of ARCHITECTURE.md.
GATE_PATTERN='^(BenchmarkE2E_FullAttack|BenchmarkFigure3_ParallelTestEviction|BenchmarkMicro_CacheScan|BenchmarkMicro_HierarchyAccess|BenchmarkMicro_ParallelProbe|BenchmarkMicro_ParallelProbeNoisy|BenchmarkMicro_SharedTraversal|BenchmarkMicro_HostReset|BenchmarkMicro_NewHost|BenchmarkMicro_GF2m571Mul|BenchmarkMicro_LadderSign163|BenchmarkMicro_ForestTrain|BenchmarkMicro_LatticeHNP163|BenchmarkTenant_Burst|BenchmarkTenant_Stream|BenchmarkTenant_Churn|BenchmarkDefense_Partition|BenchmarkDefense_Randomize|BenchmarkObs_DisabledHooks)$'

MODE="${1:-}"
BENCH_RE='.'
TOL="$TOLERANCE"
if [ "$MODE" = "--gate" ]; then
    BENCH_RE="$GATE_PATTERN"
    TOL="$GATE_TOLERANCE"
fi

OUT="$(mktemp)"
trap 'rm -f "$OUT" "$OUT.keep"' EXIT

if ! go test -bench="$BENCH_RE" -benchtime="$BENCHTIME" -count="$COUNT" -run '^$' . >"$OUT" 2>&1; then
    echo "benchguard: benchmark run failed:" >&2
    cat "$OUT" >&2
    exit 2
fi
# A baseline entry with its own "benchtime" field runs again at that
# benchtime: its per-op cost is too small to time over a few iterations
# that also pay the benchmark's cold start (a replayed probe), so its
# best-of is the steady-state figure the baseline records. Its lines from
# the default-benchtime pass are dropped first, so only its own benchtime
# counts. A sub-benchmark entry (Name/sub) is selected by its top-level
# name.
while read -r name benchtime; do
    [[ "${name%%/*}" =~ $BENCH_RE ]] || continue
    awk -v n="$name" '{ b = $1; sub(/-[0-9]+$/, "", b) } b != n' "$OUT" >"$OUT.keep" && mv "$OUT.keep" "$OUT"
    if ! go test -bench="^${name}\$" -benchtime="$benchtime" -count="$COUNT" -run '^$' . >>"$OUT" 2>&1; then
        echo "benchguard: benchmark run failed:" >&2
        cat "$OUT" >&2
        exit 2
    fi
done < <(python3 -c 'import json, sys
for name, e in json.load(open(sys.argv[1]))["benchmarks"].items():
    if "benchtime" in e:
        print(name, e["benchtime"])' "$BASELINE")

if [ "$MODE" = "--update" ]; then
    python3 - "$OUT" "$BASELINE" "$BENCHTIME" "$COUNT" <<'EOF'
import json, os, re, sys
out, baseline, benchtime, count = sys.argv[1], sys.argv[2], sys.argv[3], int(sys.argv[4])
best = {}
for line in open(out):
    m = re.match(r'^(Benchmark\S+?)(?:-\d+)?\s+\d+\s+(\d+(?:\.\d+)?) ns/op', line)
    if m:
        name, ns = m.group(1), float(m.group(2))
        if name not in best or ns < best[name]:
            best[name] = ns

# Round-trip the existing baseline: preserve top-level and per-entry key
# order and any fields this script does not know about; rewrite only
# ns_per_op, note and method.
doc = {}
if os.path.exists(baseline):
    with open(baseline) as f:
        doc = json.load(f)
doc["note"] = (
    "baseline from scripts/benchguard.sh --update "
    f"(best of -count={count} runs at -benchtime={benchtime}; timings are "
    "machine-specific — compare trajectories on one machine, not single "
    "runs across machines)"
)
doc["method"] = {"benchtime": benchtime, "count": count, "statistic": "min"}
entries = doc.setdefault("benchmarks", {})
for name, entry in entries.items():
    if name in best:
        entry["ns_per_op"] = best[name]
for name in best:
    if name not in entries:
        entries[name] = {"ns_per_op": best[name]}
stale = sorted(set(entries) - set(best))
if stale:
    print(f"benchguard: note: baseline entries that did not run "
          f"(left untouched): {', '.join(stale)}")
with open(baseline, "w") as f:
    json.dump(doc, f, indent=2)
    f.write("\n")
print(f"benchguard: wrote {baseline} with {len(best)} fresh of {len(entries)} benchmarks")
EOF
    exit $?
fi

python3 - "$OUT" "$BASELINE" "$TOL" "$MODE" <<'EOF'
import json, re, sys
out, baseline, tol, mode = sys.argv[1], sys.argv[2], float(sys.argv[3]), sys.argv[4]
base = json.load(open(baseline))["benchmarks"]
got = {}
for line in open(out):
    m = re.match(r'^(Benchmark\S+?)(?:-\d+)?\s+\d+\s+(\d+(?:\.\d+)?) ns/op', line)
    if m:
        name, ns = m.group(1), float(m.group(2))
        if name not in got or ns < got[name]:
            got[name] = ns
regressions, missing = [], []
for name, entry in sorted(base.items()):
    want = entry["ns_per_op"]
    if name not in got:
        missing.append(name)
        continue
    ratio = got[name] / want
    if ratio > 1 + tol:
        regressions.append((name, want, got[name], ratio))
    elif ratio < 1 - tol:
        print(f"improvement: {name}: {want:.0f} -> {got[name]:.0f} ns/op ({ratio:.2f}x)")
new = sorted(set(got) - set(base))
if new:
    print(f"note: benchmarks missing from {baseline} (add with --update): {', '.join(new)}")
if missing and mode != "--gate":
    print(f"note: baseline benchmarks that did not run: {', '.join(missing)}")
if regressions:
    print(f"benchguard: {len(regressions)} regression(s) beyond +{tol:.0%}:")
    for name, want, have, ratio in regressions:
        print(f"  {name}: {want:.0f} -> {have:.0f} ns/op ({ratio:.2f}x)")
    sys.exit(1)
print(f"benchguard: {len(got)} benchmarks within +{tol:.0%} of {baseline}")
EOF
