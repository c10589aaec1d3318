#include "wrappers.h"

#include <utility>

namespace perfbench {
namespace {

std::atomic<std::uint64_t> g_next_recorder_id{1};

// Per-thread cache of (recorder id, buffer) registrations. Ids are never
// reused, so an entry left behind by a destroyed recorder can never match.
thread_local std::vector<std::pair<std::uint64_t, void*>> tl_bufs;

}  // namespace

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Recorder::Recorder() : id_(g_next_recorder_id.fetch_add(1)) {}

Recorder::Buf& Recorder::local_buf() {
  for (const auto& [id, buf] : tl_bufs) {
    if (id == id_) return *static_cast<Buf*>(buf);
  }
  std::lock_guard<std::mutex> lock(mutex_);
  bufs_.push_back(std::make_unique<Buf>());
  Buf* buf = bufs_.back().get();
  tl_bufs.emplace_back(id_, buf);
  return *buf;
}

void Recorder::record(Hook hook, std::int64_t t0, std::int64_t t1) {
  local_buf().calls[static_cast<std::size_t>(hook)].push_back({t0, t1});
}

std::vector<Interval> Recorder::intervals(Hook hook) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<Interval> out;
  for (const auto& buf : bufs_) {
    const auto& calls = buf->calls[static_cast<std::size_t>(hook)];
    out.insert(out.end(), calls.begin(), calls.end());
  }
  return out;
}

std::size_t Recorder::count(Hook hook) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::size_t n = 0;
  for (const auto& buf : bufs_) {
    n += buf->calls[static_cast<std::size_t>(hook)].size();
  }
  return n;
}

TimedAlgorithm::TimedAlgorithm(hfl::fl::Algorithm& inner, Recorder& rec)
    : inner_(inner), rec_(rec) {
  hfl::obs::Registry& reg = hfl::obs::Registry::global();
  flops_[0] = &reg.counter("gemm.flops");
  flops_[1] = &reg.counter("gemm.batched_flops");
  flops_[2] = &reg.counter("gemm.mixed_flops");
}

std::uint64_t TimedAlgorithm::gemm_flops() const {
  return flops_[0]->value() + flops_[1]->value() + flops_[2]->value();
}

void TimedAlgorithm::init_worker(hfl::fl::Context& ctx,
                                 hfl::fl::WorkerState& w) {
  const Timed timed(rec_, Hook::kInitWorker);
  inner_.init_worker(ctx, w);
}

void TimedAlgorithm::local_step(hfl::fl::Context& ctx,
                                hfl::fl::WorkerState& w) {
  // The first local_step of an iteration closes the fused-cohort window the
  // engine's gradient prefetch opened; the cohort pass is complete by then.
  if (window_open_.exchange(false)) {
    cohort_flops_.fetch_add(gemm_flops() - window_start_flops_);
  }
  const Timed timed(rec_, Hook::kLocalStep);
  inner_.local_step(ctx, w);
}

const hfl::Vec& TimedAlgorithm::local_gradient_point(
    const hfl::fl::WorkerState& w) const {
  if (!window_open_.exchange(true)) window_start_flops_ = gemm_flops();
  const Timed timed(rec_, Hook::kGradientPoint);
  return inner_.local_gradient_point(w);
}

void TimedAlgorithm::edge_sync(hfl::fl::Context& ctx, hfl::fl::EdgeState& e,
                               std::size_t k) {
  const Timed timed(rec_, Hook::kEdgeSync);
  inner_.edge_sync(ctx, e, k);
}

void TimedAlgorithm::cloud_sync(hfl::fl::Context& ctx, std::size_t p) {
  const Timed timed(rec_, Hook::kCloudSync);
  inner_.cloud_sync(ctx, p);
}

void TimedAlgorithm::absent_sync(hfl::fl::Context& ctx,
                                 hfl::fl::WorkerState& w, std::size_t k) {
  const Timed timed(rec_, Hook::kAbsentSync);
  inner_.absent_sync(ctx, w, k);
}

void TimedAlgorithm::stale_sync(hfl::fl::Context& ctx,
                                hfl::fl::WorkerState& w, std::size_t tau) {
  const Timed timed(rec_, Hook::kStaleSync);
  inner_.stale_sync(ctx, w, tau);
}

void TimedProvider::sample_cohort(std::size_t k,
                                  std::vector<hfl::fl::WorkerId>& ids,
                                  std::vector<hfl::Scalar>& multiplicity) {
  const Timed timed(rec_, Hook::kSample);
  inner_.sample_cohort(k, ids, multiplicity);
}

std::vector<hfl::fl::WorkerId> TimedProvider::set_cohort(
    const std::vector<hfl::fl::WorkerId>& ids) {
  const Timed timed(rec_, Hook::kTurnover);
  return inner_.set_cohort(ids);
}

bool TimedOracle::worker_available(std::size_t k, std::size_t worker) const {
  const Timed timed(rec_, Hook::kOracle);
  return inner_.worker_available(k, worker);
}

bool TimedOracle::edge_available(std::size_t k, std::size_t edge) const {
  const Timed timed(rec_, Hook::kOracle);
  return inner_.edge_available(k, edge);
}

}  // namespace perfbench
