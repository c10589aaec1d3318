// Bench-side decorators around the library's extension points.
//
// Layer attribution is measured from outside the program: the traced run
// hands the engine these wrappers instead of the real algorithm, cohort
// store and availability oracle. Each wrapper times the calls the engine
// makes into the layer behind it and forwards EVERY virtual of its interface
// unchanged. A missed forward is not a harmless omission: it silently
// disables the fused cohort path (local_gradient_prefetchable), serializes
// or races the edge barrier (edge_sync_reentrant), drops parallel cohort
// turnover (attach_pool), breaks lazy absent replay (begin_interval,
// set_absent_replay) or changes the absent policy — the benchmark would
// then measure a different program. The traced run therefore asserts that
// its final parameters and curve are bit-identical to the untraced run, and
// selftest.cpp checks every forward individually.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "src/fl/algorithm.h"
#include "src/fl/engine.h"
#include "src/obs/registry.h"

namespace perfbench {

// One timed call: [t0, t1] in steady-clock nanoseconds.
struct Interval {
  std::int64_t t0 = 0;
  std::int64_t t1 = 0;
};

// Call kinds the wrappers record.
enum class Hook : std::uint8_t {
  kLocalStep,
  kGradientPoint,  // Algorithm::local_gradient_point (opens the cohort window)
  kEdgeSync,
  kCloudSync,
  kAbsentSync,
  kStaleSync,
  kInitWorker,
  kSample,    // CohortProvider::sample_cohort
  kTurnover,  // CohortProvider::set_cohort
  kOracle,    // AvailabilityOracle::worker_available / edge_available
  kCount
};
constexpr std::size_t kNumHooks = static_cast<std::size_t>(Hook::kCount);

std::int64_t now_ns();

// Thread-safe store of timed calls. Each recording thread appends to its own
// buffer (registered once per thread), so the engine's pool threads never
// contend on the hot path.
class Recorder {
 public:
  Recorder();
  Recorder(const Recorder&) = delete;
  Recorder& operator=(const Recorder&) = delete;

  void record(Hook hook, std::int64_t t0, std::int64_t t1);
  // Every call of `hook` recorded so far, in no particular order. Read only
  // once the recording threads are quiescent (after the engine's run call
  // returned): buffers are appended to without a lock.
  std::vector<Interval> intervals(Hook hook) const;
  std::size_t count(Hook hook) const;

 private:
  struct Buf {
    std::vector<Interval> calls[kNumHooks];
  };
  Buf& local_buf();

  std::uint64_t id_;
  mutable std::mutex mutex_;  // guards bufs_
  std::vector<std::unique_ptr<Buf>> bufs_;
};

// RAII timer feeding one Recorder entry.
class Timed {
 public:
  Timed(Recorder& rec, Hook hook) : rec_(rec), hook_(hook), t0_(now_ns()) {}
  ~Timed() { rec_.record(hook_, t0_, now_ns()); }
  Timed(const Timed&) = delete;
  Timed& operator=(const Timed&) = delete;

 private:
  Recorder& rec_;
  Hook hook_;
  std::int64_t t0_;
};

// fl::Algorithm decorator. Besides timing every hook it counts the GEMM
// FLOPs (obs counters gemm.flops + gemm.batched_flops + gemm.mixed_flops)
// issued inside each fused-cohort window — from the iteration's first
// local_gradient_point call to its first local_step call — so achieved
// GFLOP/s excludes evaluation GEMMs. The counters only move while obs is
// enabled.
class TimedAlgorithm final : public hfl::fl::Algorithm {
 public:
  TimedAlgorithm(hfl::fl::Algorithm& inner, Recorder& rec);

  std::string name() const override { return inner_.name(); }
  bool three_tier() const override { return inner_.three_tier(); }
  void init(hfl::fl::Context& ctx) override { inner_.init(ctx); }
  void init_worker(hfl::fl::Context& ctx, hfl::fl::WorkerState& w) override;
  void local_step(hfl::fl::Context& ctx, hfl::fl::WorkerState& w) override;
  bool local_gradient_prefetchable() const override {
    return inner_.local_gradient_prefetchable();
  }
  const hfl::Vec& local_gradient_point(
      const hfl::fl::WorkerState& w) const override;
  void edge_sync(hfl::fl::Context& ctx, hfl::fl::EdgeState& e,
                 std::size_t k) override;
  bool edge_sync_reentrant() const override {
    return inner_.edge_sync_reentrant();
  }
  bool probes_population() const override {
    return inner_.probes_population();
  }
  void cloud_sync(hfl::fl::Context& ctx, std::size_t p) override;
  void absent_sync(hfl::fl::Context& ctx, hfl::fl::WorkerState& w,
                   std::size_t k) override;
  void stale_sync(hfl::fl::Context& ctx, hfl::fl::WorkerState& w,
                  std::size_t tau) override;

  // GEMM FLOPs issued inside fused-cohort windows so far.
  std::uint64_t cohort_flops() const { return cohort_flops_.load(); }

 private:
  std::uint64_t gemm_flops() const;

  hfl::fl::Algorithm& inner_;
  Recorder& rec_;
  hfl::obs::Counter* flops_[3];
  mutable std::atomic<bool> window_open_{false};
  mutable std::uint64_t window_start_flops_ = 0;  // serial (engine thread)
  std::atomic<std::uint64_t> cohort_flops_{0};
};

// fl::CohortProvider decorator (wraps pop::CohortStore).
class TimedProvider final : public hfl::fl::CohortProvider {
 public:
  TimedProvider(hfl::fl::CohortProvider& inner, Recorder& rec)
      : inner_(inner), rec_(rec) {}

  std::size_t population() const override { return inner_.population(); }
  bool sampling() const override { return inner_.sampling(); }
  std::vector<hfl::Scalar> base_weights() const override {
    return inner_.base_weights();
  }
  void begin_run(const hfl::Vec& x0) override { inner_.begin_run(x0); }
  void sample_cohort(std::size_t k, std::vector<hfl::fl::WorkerId>& ids,
                     std::vector<hfl::Scalar>& multiplicity) override;
  std::vector<hfl::fl::WorkerId> set_cohort(
      const std::vector<hfl::fl::WorkerId>& ids) override;
  hfl::fl::WorkerSet& workers() override { return inner_.workers(); }
  void attach_pool(hfl::ThreadPool* pool) override {
    inner_.attach_pool(pool);
  }
  void begin_interval(std::size_t k) override { inner_.begin_interval(k); }
  void set_absent_replay(hfl::fl::AbsentPolicy policy,
                         hfl::Scalar decay) override {
    inner_.set_absent_replay(policy, decay);
  }

 private:
  hfl::fl::CohortProvider& inner_;
  Recorder& rec_;
};

// fl::AvailabilityOracle decorator (wraps sim::SparseFaultPlan).
class TimedOracle final : public hfl::fl::AvailabilityOracle {
 public:
  TimedOracle(const hfl::fl::AvailabilityOracle& inner, Recorder& rec)
      : inner_(inner), rec_(rec) {}

  bool worker_available(std::size_t k, std::size_t worker) const override;
  bool edge_available(std::size_t k, std::size_t edge) const override;
  hfl::fl::AbsentPolicy absent_policy() const override {
    return inner_.absent_policy();
  }
  hfl::Scalar absent_decay() const override { return inner_.absent_decay(); }

 private:
  const hfl::fl::AvailabilityOracle& inner_;
  Recorder& rec_;
};

}  // namespace perfbench
