#!/usr/bin/env bash
# Performance and neutrality gates. Builds Release, runs each gated
# bench once, then prints the verdict of every gate the benches wrote
# into the "gates" array of their BENCH_*.json (bench/bench_util.h holds
# the verdict rule: FAIL only past bound + noise floor, UNRESOLVED when
# the floor is wider than the bound, SKIPPED when the host cannot
# measure the gate). Exit 1 if any gate FAILed, a bench exited non-zero,
# or a bench wrote no gates; every verdict is printed either way.
#
# It also runs the perfbench layer ladder once (aged_mix, seed 1, 10 s,
# traced; ~45 s on a 4-core host). A non-zero perfbench exit or a last
# line without the ladder metrics counts as a FAIL, like a bench that
# wrote no gates. The same run prints the untraced repetitions'
# footprint ("metric peak_rss_mb" and "metric setup_s" lines); a missing
# line counts as a FAIL too.
#
# Each run appends one JSON line to bench/trajectory.jsonl, the committed
# perf history: the short git SHA ("-dirty" when the tree differs from
# it), nproc, every gate's name, observed value, op, bound, noise floor
# and verdict, a "ladder" object holding wall_ns, events and allocs per
# op for each rung (sim, resource, ssd, ftl, blocklayer, vbd, db), and
# an "aged_mix" object holding that run's peak_rss_mb and setup_s.
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

# The layer ladder: its final JSON line carries the per-rung metrics.
LADDER_OUT="$BUILD_DIR/perfbench_ladder.txt"
python3 perfbench/run.py --workload aged_mix --seed 1 --seconds 10 \
  --trace 1 > "$LADDER_OUT"
ladder_rc=$?
if [ "$ladder_rc" -ne 0 ]; then
  echo "check_perf: perfbench ladder run exited $ladder_rc"
  status=1
fi

SHA="$(git rev-parse --short HEAD 2>/dev/null || echo unknown)"
# The history file itself does not make the measured tree dirty.
if [ -n "$(git status --porcelain -- . ':!bench/trajectory.jsonl' \
          2>/dev/null)" ]; then
  SHA="$SHA-dirty"
fi

echo
python3 - "$SHA" "$(nproc)" "$ladder_rc" "$LADDER_OUT" "${jsons[@]}" \
  <<'PY' || status=1
import collections
import json
import sys

def num(x):
    return "null" if x is None else f"{x:.6g}"

sha, nproc = sys.argv[1], int(sys.argv[2])
ladder_rc, ladder_out, paths = int(sys.argv[3]), sys.argv[4], sys.argv[5:]
RUNGS = ("sim", "resource", "ssd", "ftl", "blocklayer", "vbd", "db")
FOOTPRINT = ("peak_rss_mb", "setup_s")
counts = collections.Counter()
history = []
ladder = None
aged_mix = None
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
try:
    if ladder_rc != 0:
        raise ValueError(f"perfbench exited {ladder_rc}")
    with open(ladder_out) as f:
        metrics = json.loads(f.read().splitlines()[-1])["metrics"]
    ladder = {r: {k: metrics[f"{r}.{k}_per_op"]["value"]
                  for k in ("wall_ns", "events", "allocs")} for r in RUNGS}
    for r, v in ladder.items():
        print(f"ladder     {r}: {num(v['wall_ns'])} wall ns, "
              f"{num(v['events'])} events, {num(v['allocs'])} allocs per op")
except (OSError, ValueError, KeyError, IndexError) as e:
    print(f"FAIL       perfbench ladder: {e}")
    counts["FAIL"] += 1
    history.append({"name": "perfbench.ladder", "verdict": "FAIL"})
try:
    found = {}
    with open(ladder_out) as f:
        for line in f:
            parts = line.split()
            if len(parts) >= 3 and parts[0] == "metric" and \
                    parts[1] in FOOTPRINT:
                found[parts[1]] = float(parts[2])
    missing = [k for k in FOOTPRINT if k not in found]
    if missing:
        raise ValueError("no metric line for " + ", ".join(missing))
    aged_mix = found
    print(f"aged_mix   peak_rss_mb {num(found['peak_rss_mb'])} MB, "
          f"setup_s {num(found['setup_s'])} s")
except (OSError, ValueError) as e:
    print(f"FAIL       perfbench aged_mix footprint: {e}")
    counts["FAIL"] += 1
    history.append({"name": "perfbench.aged_mix", "verdict": "FAIL"})
with open("bench/trajectory.jsonl", "a") as out:
    out.write(json.dumps({"sha": sha, "nproc": nproc, "gates": history,
                          "ladder": ladder, "aged_mix": aged_mix}) + "\n")
print("check_perf: " + ", ".join(f"{n} {v}" for v, n in sorted(counts.items())))
sys.exit(1 if counts["FAIL"] else 0)
PY
exit "$status"
