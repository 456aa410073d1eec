#!/usr/bin/env bash
# Performance and neutrality gates. Builds Release, runs each gated
# bench once, then prints the verdict of every gate the benches wrote
# into the "gates" array of their BENCH_*.json (bench/bench_util.h holds
# the verdict rule: FAIL only past bound + noise floor, UNRESOLVED when
# the floor is wider than the bound, SKIPPED when the host cannot
# measure the gate). Exit 1 if any gate FAILed, a bench exited non-zero,
# or a bench wrote no gates; every verdict is printed either way.
#
# Each run appends one JSON line to bench/trajectory.jsonl, the committed
# perf history: the short git SHA ("-dirty" when the tree differs from
# it), nproc, and every gate's name, observed value, op, bound, noise
# floor and verdict.
#
# Usage: scripts/check_perf.sh [build-dir]     (default: build-perf)
set -uo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR="${1:-build-perf}"
BENCHES=(sim_core neutrality mq vbd obs sharded_device crossover)

cmake -B "$BUILD_DIR" -S . -DCMAKE_BUILD_TYPE=Release >/dev/null || exit 1
cmake --build "$BUILD_DIR" --target "${BENCHES[@]/#/bench_}" \
  -j "$(nproc)" >/dev/null || exit 1

status=0
jsons=()
for b in "${BENCHES[@]}"; do
  jsons+=("$BUILD_DIR/BENCH_$b.json")
  rm -f "${jsons[-1]}"
  if ! ( cd "$BUILD_DIR" && "./bench/bench_$b" ); then
    echo "check_perf: bench_$b exited non-zero"
    status=1
  fi
done

SHA="$(git rev-parse --short HEAD 2>/dev/null || echo unknown)"
# The history file itself does not make the measured tree dirty.
if [ -n "$(git status --porcelain -- . ':!bench/trajectory.jsonl' \
          2>/dev/null)" ]; then
  SHA="$SHA-dirty"
fi

echo
python3 - "$SHA" "$(nproc)" "${jsons[@]}" <<'PY' || status=1
import collections
import json
import sys

def num(x):
    return "null" if x is None else f"{x:.6g}"

sha, nproc, paths = sys.argv[1], int(sys.argv[2]), sys.argv[3:]
counts = collections.Counter()
history = []
for path in paths:
    try:
        gates = json.load(open(path))["gates"]
    except (OSError, ValueError, KeyError) as e:
        print(f"FAIL       {path}: no gates ({e})")
        counts["FAIL"] += 1
        history.append({"name": path, "verdict": "FAIL"})
        continue
    for g in gates:
        print(f"{g['verdict']:<10} {g['name']}: {num(g['observed'])} "
              f"{g['op']} {num(g['bound'])} "
              f"(noise floor {num(g['noise_floor'])})")
        counts[g["verdict"]] += 1
        history.append({k: g[k] for k in ("name", "observed", "op", "bound",
                                           "noise_floor", "verdict")})
with open("bench/trajectory.jsonl", "a") as out:
    out.write(json.dumps({"sha": sha, "nproc": nproc, "gates": history}) +
              "\n")
print("check_perf: " + ", ".join(f"{n} {v}" for v, n in sorted(counts.items())))
sys.exit(1 if counts["FAIL"] else 0)
PY
exit "$status"
