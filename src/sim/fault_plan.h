// Deterministic fault & availability models for multi-tier FL runs.
//
// The paper's experiments assume every worker survives every edge interval
// and every barrier completes; the multi-tier networks HierAdMo targets are
// exactly where workers drop out, straggle and links flake. This module
// turns seeded fault models into a `fl::ParticipationSchedule` the engine
// replays:
//
//   * dropout    — i.i.d. Bernoulli: each worker independently misses each
//                  edge interval with probability `prob`;
//   * churn      — Markov on/off: an online worker fails with `p_fail` per
//                  interval, an offline one recovers with `p_recover`
//                  (models sessions/outages with temporal correlation);
//   * straggler  — a fixed fraction of workers run slow by a mean `slowdown`
//                  factor with per-interval jitter; a deadline policy drops
//                  any worker whose interval slowdown exceeds the time
//                  budget (expressed as a slowdown multiple);
//   * link       — transient upload failures: each attempt fails with
//                  `loss_prob`, up to `max_retries` attempts per sync; a
//                  worker that exhausts its retries misses the sync (the
//                  retry count feeds the time simulator's backoff model);
//   * edge_outage — whole edge nodes go dark for an interval, taking their
//                  subtree out of both the edge and the cloud barrier.
//
// Determinism contract: the plan is a pure function of
// (config.seed, topology shape, schedule horizon). Every worker and edge
// draws from its own forked RNG stream, so the trace is independent of the
// algorithm, of thread scheduling, and of every other stream in the engine —
// the same discipline as the engine's batch streams. Two plans built from
// identical inputs are bit-identical, so every algorithm in a sweep replays
// the identical fault trace.
#pragma once

#include <cstdint>
#include <vector>

#include "src/common/rng.h"
#include "src/fl/availability.h"
#include "src/fl/config.h"
#include "src/fl/topology.h"

namespace hfl::sim {

struct DropoutModel {
  Scalar prob = 0.0;  // P(worker misses an interval), i.i.d. per interval
};

struct ChurnModel {
  Scalar p_fail = 0.0;     // P(online → offline) per interval
  Scalar p_recover = 1.0;  // P(offline → online) per interval
  Scalar p_start_down = 0.0;  // P(worker starts interval 1 offline)
};

struct StragglerModel {
  Scalar fraction = 0.0;  // fraction of the fleet that straggles
  Scalar slowdown = 1.0;  // mean compute stretch of a straggler (≥ 1)
  Scalar jitter = 0.0;    // per-interval multiplicative jitter (std of a
                          // truncated normal around the mean factor)
  // Deadline policy: > 0 drops any worker whose interval slowdown factor
  // exceeds this budget (it would blow the barrier's time budget). 0 = off.
  Scalar deadline_slowdown = 0.0;
};

struct LinkFaultModel {
  Scalar loss_prob = 0.0;      // P(one upload attempt fails)
  std::size_t max_retries = 3; // attempts allowed per sync (≥ 1)
};

struct EdgeOutageModel {
  Scalar prob = 0.0;  // P(edge node dark for an interval), i.i.d.
};

struct FaultConfig {
  std::uint64_t seed = 42;

  DropoutModel dropout;
  ChurnModel churn;
  StragglerModel straggler;
  LinkFaultModel link;
  EdgeOutageModel edge_outage;

  // What happens to an absent worker's momentum/accumulator state.
  fl::AbsentPolicy absent_policy = fl::AbsentPolicy::kHold;
  Scalar absent_decay = 0.5;

  // True when no fault model is switched on — the resulting schedule is a
  // no-op and the engine takes the exact fault-free code path.
  bool is_noop() const;

  // Throws hfl::Error on out-of-range probabilities/factors.
  void validate() const;
};

namespace detail {

// The one per-entity fault stepper. FaultPlan loops it eagerly over the
// whole horizon; SparseFaultPlan replays it lazily for queried entities
// only. Both therefore derive bit-identical traces from one FaultConfig.
//
// Every stream is a fork of the plan root Rng(cfg.seed), addressed by its
// position in one fixed fork sequence: fork 1 = straggler roles, fork 2 + w
// = worker w, fork 2 + n + e = edge e. Rng::fork_nth derives any one of
// them without replaying the others.

// Straggler roles are the one fleet-level draw (one stream, worker order):
// O(n) bits. Empty when no straggler fraction is configured.
std::vector<std::uint8_t> straggler_roles(const Rng& root,
                                          const FaultConfig& cfg,
                                          std::size_t num_workers);

// One worker's fault stream, positioned after interval k.
struct WorkerFaultCursor {
  Rng rng{0};
  std::size_t k = 0;   // last stepped interval (0 = before interval 1)
  bool online = true;  // Markov churn state after interval k
  bool up = true;      // available at interval k
};

// The rest of one interval's outcome: compute stretch and upload attempts.
struct WorkerFaultStep {
  Scalar slowdown = 1.0;
  std::size_t attempts = 1;
};

// Worker `worker`'s cursor, positioned before interval 1.
WorkerFaultCursor start_worker(const Rng& root, const FaultConfig& cfg,
                               std::size_t worker);

// Step the cursor to interval c.k + 1: churn, dropout, straggler slowdown,
// deadline and link retries, drawn in that fixed order.
WorkerFaultStep step_worker(const FaultConfig& cfg, bool straggler,
                            WorkerFaultCursor& c);

// Step the cursor forward until it reaches interval k (the lazy replay;
// one call per query keeps the per-interval step inlined).
void advance_worker(const FaultConfig& cfg, bool straggler,
                    WorkerFaultCursor& c, std::size_t k);

// Edge `edge`'s outage stream in a fleet of `num_workers`, and its
// one-draw interval step (true = the edge is up).
Rng edge_stream(const Rng& root, std::size_t num_workers, std::size_t edge);
inline bool step_edge(const FaultConfig& cfg, Rng& rng) {
  return !(rng.uniform() < cfg.edge_outage.prob);
}

}  // namespace detail

// A materialized fault trace for one (topology, run) pair.
class FaultPlan {
 public:
  FaultPlan(const fl::Topology& topo, const fl::RunConfig& run,
            FaultConfig cfg);

  const fl::ParticipationSchedule& schedule() const { return schedule_; }
  const FaultConfig& config() const { return cfg_; }
  std::size_t num_intervals() const { return schedule_.num_intervals; }

  // Upload attempts worker `w` needed at interval k (1-based): 1 = clean,
  // >1 = retries after transient link failures. Meaningful only when the
  // worker is available at k; feeds net::TimeSimulator's backoff model.
  std::size_t upload_attempts(std::size_t k, std::size_t w) const {
    return attempts_[(k - 1) * schedule_.num_workers + w];
  }

  bool worker_available(std::size_t k, std::size_t w) const {
    return schedule_.worker_available(k, w);
  }
  Scalar worker_slowdown(std::size_t k, std::size_t w) const {
    return schedule_.worker_slowdown(k, w);
  }
  bool edge_available(std::size_t k, std::size_t e) const {
    return schedule_.edge_available(k, e);
  }

  // Fraction of (interval, worker) slots that are up — a cheap diagnostic
  // of how harsh the configured models are.
  Scalar planned_participation() const;

 private:
  FaultConfig cfg_;
  fl::ParticipationSchedule schedule_;
  std::vector<std::size_t> attempts_;  // [k-1][worker]
};

}  // namespace hfl::sim
