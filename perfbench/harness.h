// The benchmark's four workloads and the measurements one repetition takes.
//
// A repetition is one process: build the workload from the seed (timed as
// set-up), make one training run through the library's public entry point
// (fl::Engine::run / run_with_oracle or evt::AsyncEngine::run), check the
// output, and report. perfbench/run.py launches repetitions as separate
// processes so a crash costs one failed operation, not the benchmark, and
// aggregates them into medians. README.md says why each workload exists.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>

#include "src/fl/metrics.h"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  std::size_t threads = 1;  // engine pool size
  std::string scratch = ".";  // directory for the file-backed slab
};

// FNV-1a over the final parameters and every curve point (loss, accuracy,
// modeled time): equal hashes mean bit-identical results.
std::string result_hash(const hfl::fl::RunResult& r);

// The async_straggler correctness anchor: the event engine's sync policy
// replayed on the workload's straggler plan must be bit-identical to
// fl::Engine on the same schedule. Returns false on divergence.
bool async_sync_anchor(const Options& opt);

// Per-layer measurements of one traced run, keyed by metric name.
using Metrics = std::map<std::string, double>;

// One repetition. Untraced: set-up, run, checks. Traced: the same with the
// bench-side wrappers attached and obs enabled, plus the per-layer metrics,
// the NN stage probe and the pool GEMM peak. Throws hfl::Error when an
// output check fails.
struct RepResult {
  double setup_s = 0;
  double run_s = 0;
  double run_cpu_s = 0;  // process CPU time during the run (all threads)
  std::uint64_t samples = 0;
  double final_loss = 0;
  double sim_s = 0;
  double peak_rss_mb = 0;
  std::string hash;
  Metrics layers;  // traced only
};
RepResult repetition(const Options& opt, bool traced);

}  // namespace perfbench
