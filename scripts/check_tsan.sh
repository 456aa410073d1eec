#!/usr/bin/env bash
# ThreadSanitizer gate for the parallel layer.
#
# Builds with -DSIM_TSAN=ON (mutually exclusive with -DSIM_ASAN=ON; see
# the top-level CMakeLists.txt) and runs the test binaries that
# exercise threads — the sharded engine's worker pool, the
# multi-instance sweep harness, the vbd suite (whose sharded test runs
# a real vbd::Backend's DRR arbiter on the sharded device's controller
# shard while the engine's workers run the channel shards), the
# sharded-device suite (the full controller/FTL/channel stack split
# across the controller/channel seam), and the vision-recovery suite
# (the post-block append device, host map, and epoch-checkpoint
# recovery — single-threaded by construction, but ran here so the
# nameless path can never regress into hidden sharing) — plus
# bench_sharded_device (every worker count at bench-scale load) and
# bench_crossover. Any data race TSan finds fails the script: the
# determinism story is only as good as the absence of unsynchronized
# sharing at the seam.
#
# Usage: scripts/check_tsan.sh [build-dir]     (default: build-tsan)
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR="${1:-build-tsan}"

cmake -B "$BUILD_DIR" -S . -DSIM_TSAN=ON -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  >/dev/null
cmake --build "$BUILD_DIR" --target sharded_sim_test parallel_test \
  vbd_test sharded_device_test vision_recovery_test \
  bench_sharded_device bench_crossover \
  -j "$(nproc)" >/dev/null

# halt_on_error makes the first race fatal instead of a log line the
# shell would ignore; second_deadlock_stack improves lock reports.
export TSAN_OPTIONS="halt_on_error=1 second_deadlock_stack=1"

echo "check_tsan: sharded engine tests (worker pool, barriers, seam)"
"$BUILD_DIR/tests/sharded_sim_test"

echo "check_tsan: sweep harness tests (thread-confined full stacks)"
"$BUILD_DIR/tests/parallel_test"

echo "check_tsan: vbd suite (a Backend on the sharded device, engine workers)"
"$BUILD_DIR/tests/vbd_test"

echo "check_tsan: sharded device suite (full Device across the seam)"
"$BUILD_DIR/tests/sharded_device_test"

echo "check_tsan: vision recovery suite (post-block append device + host map)"
"$BUILD_DIR/tests/vision_recovery_test"

echo "check_tsan: bench_sharded_device (full Device, bench-scale load)"
( cd "$BUILD_DIR" && ./bench/bench_sharded_device >/dev/null )

echo "check_tsan: bench_crossover (classic vs vision wiring, bench-scale load)"
( cd "$BUILD_DIR" && ./bench/bench_crossover >/dev/null )

echo "check_tsan: OK (no data races reported)"
