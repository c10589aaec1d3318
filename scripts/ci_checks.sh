#!/usr/bin/env bash
# One-command CI gate: the checks a change must pass before merging.
#
#   1. Release build + full ctest suite (tier-1), which includes the
#      bench_smoke-labelled bench binaries at 0.1 scale — each asserts its
#      internal contract (fused kernel ≡ fma reference, batched ≡
#      per-worker) before timing — then the named parity gate and the
#      concurrency subset repeated until failure (20 runs).
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

# The parity contracts gate merges by name (they are part of the full suite
# above; the explicit invocation keeps a red bisect pointed at them): sync
# bit-identity to fl::Engine, causal download versioning (no retroactive
# refresh) and charge-exactly-once comm accounting; FaultPlan ≡
# SparseFaultPlan and fault-trace determinism; the one roster builder
# against a naive renormalization and the schedule's miss counts;
# virtualized ≡ dense runs; parallel ≡ serial sync.
ctest --test-dir "$BUILD_DIR" --output-on-failure \
  -R '^(async_engine_test|evt_versioning_test|pop_test|pop_parity_test|param_plane_test|sim_test|parallel_sync_test)$'

# Concurrency repeat gate: the multi-threaded tests again, 20 times each,
# stopping at the first failure. A scheduling race that fails one run in
# ten (a pool completion handshake, an unsynchronized test spy) passes a
# single ctest pass but not this. The pop suites are here because cohort
# turnover reads the spill slab and recycles worker state inside pool
# tasks.
ctest --test-dir "$BUILD_DIR" --output-on-failure --repeat until-fail:20 \
  -R '^(thread_pool_test|engine_schedule_test|integration_test|async_engine_test|pop_test|pop_parity_test)$'

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
