#!/usr/bin/env bash
# One-command CI gate: the checks a change must pass before merging.
#
#   1. Release build + full ctest suite (tier-1), which includes the
#      bench_smoke-labelled bench binaries at 0.1 scale — each asserts its
#      internal bitwise contract (fused kernel ≡ fma reference, sparse
#      roster ≡ dense rebuild, batched ≡ per-worker) before timing — then
#      the concurrency subset repeated until failure (20 runs).
#   2. ASan+UBSan pass: full suite + telemetry-enabled example in an
#      instrumented tree (reports are fatal).
#
# The TSan pass is NOT run here — its ~10x slowdown puts it over a CI
# budget on this host; run scripts/run_sanitized_tests.sh for the full
# two-sanitizer sweep before cutting a release.
#
# Usage: scripts/ci_checks.sh [release-build-dir] [asan-build-dir]
#        (defaults: build build-asan)
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build}"
ASAN_DIR="${2:-build-asan}"

# --- gate 1: Release build + full suite (includes -L bench_smoke) ---------
cmake -B "$BUILD_DIR" -S . -DCMAKE_BUILD_TYPE=Release -DHFL_WERROR=ON
cmake --build "$BUILD_DIR" -j "$(nproc)"
ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$(nproc)"

# The event-engine contracts gate merges by name (they are part of the full
# suite above; the explicit invocation keeps a red bisect pointed at them):
# sync bit-identity to fl::Engine, causal download versioning (no retroactive
# refresh), and charge-exactly-once comm accounting.
ctest --test-dir "$BUILD_DIR" --output-on-failure \
  -R '^(async_engine_test|evt_versioning_test)$'

# Concurrency repeat gate: the multi-threaded tests again, 20 times each,
# stopping at the first failure. A scheduling race that fails one run in
# ten (a pool completion handshake, an unsynchronized test spy) passes a
# single ctest pass but not this.
ctest --test-dir "$BUILD_DIR" --output-on-failure --repeat until-fail:20 \
  -R '^(thread_pool_test|engine_schedule_test|integration_test|async_engine_test)$'

# --- gate 2: ASan + UBSan -------------------------------------------------
cmake -B "$ASAN_DIR" -S . \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DHFL_SANITIZE=address \
  -DHFL_WERROR=ON
cmake --build "$ASAN_DIR" -j "$(nproc)"

export ASAN_OPTIONS="halt_on_error=1:detect_leaks=1"
export UBSAN_OPTIONS="halt_on_error=1:print_stacktrace=1"
ctest --test-dir "$ASAN_DIR" --output-on-failure

# Telemetry-enabled end-to-end pass: obs records from pool threads,
# algorithm hooks and kernels concurrently.
(cd "$ASAN_DIR" && ./examples/telemetry_report)

echo "ci checks complete: $BUILD_DIR (Release + full ctest), $ASAN_DIR (ASan+UBSan)"
