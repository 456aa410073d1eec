#!/usr/bin/env bash
# AddressSanitizer + UBSan + LeakSanitizer gate for the whole suite.
#
# Builds Debug with -DSIM_ASAN=ON (asserts live, mutually exclusive with
# -DSIM_TSAN=ON; see the top-level CMakeLists.txt) and runs the full
# ctest under it. Any memory error, undefined behaviour or leak fails
# the script: halt_on_error turns the first report into a failing test,
# and detect_leaks makes a continuation that never frees its state (the
# self-capturing callback chains this gate was added for) a failure
# rather than a line nobody reads.
#
# Usage: scripts/check_asan.sh [build-dir]     (default: build-asan)
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR="${1:-build-asan}"

cmake -B "$BUILD_DIR" -S . -DSIM_ASAN=ON -DCMAKE_BUILD_TYPE=Debug >/dev/null
cmake --build "$BUILD_DIR" -j "$(nproc)" >/dev/null

export ASAN_OPTIONS="detect_leaks=1:halt_on_error=1"
export UBSAN_OPTIONS="halt_on_error=1:print_stacktrace=1"

echo "check_asan: full ctest under ASan + UBSan + LSan"
ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$(nproc)"

echo "check_asan: OK (no memory errors, undefined behaviour or leaks)"
