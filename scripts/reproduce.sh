#!/usr/bin/env bash
# Builds everything out of tree, runs the full test suite, regenerates
# every paper experiment (EXPERIMENTS.md's tables) into bench_output.txt,
# runs the benchmark's four workloads traced (their per-layer metrics and
# the layer ladder's allocs/op rows) into perfbench_output.txt, and runs
# the sanitizer gates (ASan/UBSan/LSan over the whole suite, TSan over
# the threaded suites) and the event-core performance gate.
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR="${BUILD_DIR:-build-repro}"

cmake -B "$BUILD_DIR" -S . -G Ninja
cmake --build "$BUILD_DIR"

ctest --test-dir "$BUILD_DIR" --output-on-failure 2>&1 | tee test_output.txt

: > bench_output.txt
for b in "$BUILD_DIR"/bench/bench_*; do
  [ -x "$b" ] || continue
  "$b" 2>&1 | tee -a bench_output.txt
done

: > perfbench_output.txt
for w in aged_mix mq_read db_txn sharded_mix; do
  python3 perfbench/run.py --workload "$w" --seed 1 --seconds 10 --trace 1 \
    | tee -a perfbench_output.txt
done

scripts/check_asan.sh "$BUILD_DIR-asan"
scripts/check_tsan.sh "$BUILD_DIR-tsan"
scripts/check_perf.sh "$BUILD_DIR-perf"

echo
echo "done: test_output.txt, bench_output.txt, perfbench_output.txt written."
