// Partial participation: who survives each synchronization interval.
//
// The engine's default contract is that every worker survives every edge
// interval and every barrier completes. Real multi-tier deployments violate
// that constantly — workers drop out, edge nodes go dark, uplinks flake.
// This module is the fl-side half of the fault subsystem:
//
//   * `ParticipationSchedule` is plain data: one availability bit and one
//     slowdown factor per (edge interval, worker), plus one availability bit
//     per (edge interval, edge). It says nothing about *why* a worker is
//     absent — `sim::FaultPlan` (src/sim/fault_plan.h) generates schedules
//     from seeded fault models, so every algorithm replays the identical
//     fault trace, the same discipline as the engine's batch streams.
//
//   * `Participation` is the engine's runtime view of one interval's
//     roster: the surviving workers and edges and the renormalized
//     data-size weights (absent workers' mass is redistributed over the
//     survivors, per edge and globally; absent edges' mass over the
//     surviving edges). Every roster, dense or sampled, sync or
//     event-driven, is composed by the one builder set_cohort_roster.
//
// A null `Participation*` everywhere means full participation and reduces
// every helper to the exact pre-fault code path — the engine guarantees
// bit-identical results for fault-free runs.
#pragma once

#include <cstdint>
#include <vector>

#include "src/fl/config.h"
#include "src/fl/state.h"

namespace hfl::fl {

// What happens to a worker's momentum state (y, v) and interval accumulators
// while it misses a synchronization.
enum class AbsentPolicy {
  kHold,   // keep momentum and accumulators as-is (resume where it left off)
  kReset,  // collapse momentum onto the model (y = x, v = 0) and zero the
           // interval accumulators
  kDecay,  // shrink momentum and accumulators toward the reset point by a
           // configurable factor per missed synchronization
};

// Deterministic availability trace over the whole run, indexed by edge
// interval k = 1..num_intervals (interval k covers iterations
// ((k-1)τ, kτ]). Row-major [k-1][worker] / [k-1][edge].
struct ParticipationSchedule {
  std::size_t num_intervals = 0;
  std::size_t num_workers = 0;
  std::size_t num_edges = 0;

  std::vector<std::uint8_t> worker_up;  // 1 = worker online for interval k
  std::vector<Scalar> slowdown;         // per-(k, worker) compute stretch ≥ 1
  std::vector<std::uint8_t> edge_up;    // 1 = edge node online for interval k

  AbsentPolicy absent_policy = AbsentPolicy::kHold;
  Scalar absent_decay = 0.5;  // used by kDecay

  bool worker_available(std::size_t k, std::size_t worker) const {
    return worker_up[(k - 1) * num_workers + worker] != 0;
  }
  Scalar worker_slowdown(std::size_t k, std::size_t worker) const {
    return slowdown[(k - 1) * num_workers + worker];
  }
  bool edge_available(std::size_t k, std::size_t edge) const {
    return edge_up[(k - 1) * num_edges + edge] != 0;
  }

  // True when the schedule models no fault at all (everyone up, no
  // slowdown): the engine then takes the exact fault-free code path.
  bool is_noop() const;

  // Shape checks against the run this schedule is about to drive. Throws
  // hfl::Error with an actionable message on mismatch.
  void validate(const Topology& topo, const RunConfig& cfg) const;
};

// Lazily-evaluated availability: answers per-(interval, worker) queries
// without materializing the O(intervals × population) schedule arrays a
// `ParticipationSchedule` carries — the fault interface of the virtualized
// engine path, where only the sampled cohort is ever queried. Implementations
// must be pure functions of their construction inputs, so the answer for a
// given (k, id) never depends on which other slots were queried or in what
// order (`sim::SparseFaultPlan` replays per-entity forked RNG streams to get
// this). Queries arrive from the engine's serial sampling pass only — no
// thread-safety requirement.
class AvailabilityOracle {
 public:
  virtual ~AvailabilityOracle() = default;
  virtual bool worker_available(std::size_t k, std::size_t worker) const = 0;
  virtual bool edge_available(std::size_t k, std::size_t edge) const = 0;
  virtual AbsentPolicy absent_policy() const { return AbsentPolicy::kHold; }
  virtual Scalar absent_decay() const { return 0.5; }
};

// Expose a dense ParticipationSchedule through the oracle interface: the
// path every fl::Engine::run(alg, schedule) takes, so a dense schedule and
// a lazy oracle feed the engine's one roster builder. Intervals past the
// schedule horizon report everything up.
class ScheduleOracle final : public AvailabilityOracle {
 public:
  explicit ScheduleOracle(const ParticipationSchedule& schedule)
      : schedule_(&schedule) {}

  bool worker_available(std::size_t k, std::size_t worker) const override {
    return k > schedule_->num_intervals ||
           schedule_->worker_available(k, worker);
  }
  bool edge_available(std::size_t k, std::size_t edge) const override {
    return k > schedule_->num_intervals || schedule_->edge_available(k, edge);
  }
  AbsentPolicy absent_policy() const override {
    return schedule_->absent_policy;
  }
  Scalar absent_decay() const override { return schedule_->absent_decay; }

 private:
  const ParticipationSchedule* schedule_;
};

// Runtime view of one interval's roster: surviving workers and edges and
// renormalized aggregation weights. Owned by the engine; algorithms access
// it through `Context::part` and the null-tolerant helpers below.
class Participation {
 public:
  // `base_weights` supplies each worker's data-size mass D_i to
  // renormalize. When `edge_faults` is false (two-tier runs, where workers
  // talk straight to the cloud), edge outages are ignored. Starts with
  // every worker and edge absent; absent policy defaults to kHold until
  // set_absent_policy().
  Participation(const Topology& topo, std::vector<Scalar> base_weights,
                bool edge_faults);

  // Compose a roster: exactly `cohort_ids` (ascending, unique) may be up —
  // cohort member i is up iff cohort_up[i] and (three-tier) its edge is
  // up; everyone outside the cohort is absent. `cohort_scale`, when
  // non-null, is aligned with cohort_ids and multiplies member i's mass
  // before renormalization (the multiplicity of with-replacement draws, or
  // the staleness weight s(τ) of event-driven aggregation — weights stay
  // normalized per edge and globally, only the relative mass shifts).
  // Costs O(cohort + edges) per call: only the previous roster's marks are
  // cleared. Every mass sum walks members in ascending id order and edges
  // in ascending order (workers_of_edge lists ascending ids, so a per-edge
  // roster built from the ascending cohort is that edge's ascending
  // survivors).
  void set_cohort_roster(const std::vector<WorkerId>& cohort_ids,
                         const std::vector<std::uint8_t>& cohort_up,
                         const std::vector<std::uint8_t>& edge_up,
                         const std::vector<Scalar>* cohort_scale = nullptr);

  // A cloud-tier roster of edges only. Every worker is absent (algorithm
  // worker loops guarded by is_active skip them), yet an up edge counts as
  // active by itself — unlike set_cohort_roster, which deactivates an edge
  // with no surviving workers. Edge weights are renormalized over the up
  // edges by their static data mass, so a singleton roster gives that edge
  // weight exactly 1. The event-driven engine folds an edge's upload into
  // the cloud through this view without touching the edge's (possibly
  // in-flight) workers — the causal fix for the retroactive subtree
  // refresh.
  void set_edge_roster(const std::vector<std::uint8_t>& edge_up);

  // Absent-momentum policy reported to absent_sync.
  void set_absent_policy(AbsentPolicy policy, Scalar decay);

  // Worker i survives this interval AND (three-tier) its edge is reachable.
  bool worker_active(std::size_t worker) const { return active_[worker] != 0; }
  // Edge is online and has at least one surviving worker.
  bool edge_active(std::size_t edge) const { return edge_active_[edge] != 0; }

  // Surviving workers of `edge`, ascending ids (empty if the edge is down).
  const std::vector<WorkerId>& active_workers_of_edge(std::size_t edge) const {
    return active_of_edge_[edge];
  }

  // Renormalized weights (zero for absent workers/edges).
  Scalar weight_in_edge(std::size_t worker) const {
    return weight_in_edge_[worker];
  }
  Scalar weight_global(std::size_t worker) const {
    return weight_global_[worker];
  }
  Scalar edge_weight_global(std::size_t edge) const {
    return edge_weight_[edge];
  }

  std::size_t num_active() const { return num_active_; }
  std::size_t num_workers() const { return active_.size(); }

  AbsentPolicy absent_policy() const { return policy_; }
  Scalar absent_decay() const { return decay_; }

 private:
  // Restore the all-absent baseline on last roster's cohort.
  void clear_cohort();

  const Topology* topo_;
  bool edge_faults_;
  AbsentPolicy policy_ = AbsentPolicy::kHold;
  Scalar decay_ = 0.5;

  std::vector<Scalar> base_weight_;  // per-worker sample mass D_i
  std::vector<Scalar> edge_mass_;    // per-edge sample mass D_ℓ (static)
  std::vector<Scalar> mass_;         // effective mass this roster (D_i·scale)
  std::vector<std::uint8_t> active_;
  std::vector<std::uint8_t> edge_active_;
  std::vector<std::vector<WorkerId>> active_of_edge_;
  std::vector<Scalar> weight_in_edge_;
  std::vector<Scalar> weight_global_;
  std::vector<Scalar> edge_weight_;
  std::size_t num_active_ = 0;
  // Only these workers may carry nonzero active bits / weights; the
  // all-absent baseline holds everywhere else.
  std::vector<WorkerId> prev_cohort_ids_;
};

// ---- Null-tolerant helpers (part == nullptr ⇒ full participation). ----
//
// Algorithms use these instead of the raw topology/state weights so that one
// code path serves both the fault-free contract (bit-identical to the
// pre-fault engine) and partial participation.

bool is_active(const Participation* part, std::size_t worker);
bool is_edge_active(const Participation* part, std::size_t edge);

// Surviving workers of `edge`; the full roster when part is null.
const std::vector<WorkerId>& active_workers(const Participation* part,
                                            const Topology& topo,
                                            std::size_t edge);

Scalar active_weight_in_edge(const Participation* part, const WorkerState& w);
Scalar active_weight_global(const Participation* part, const WorkerState& w);
Scalar active_edge_weight(const Participation* part, const EdgeState& e);

// Apply an absent-worker momentum policy to a worker that missed a sync.
void apply_absent_policy(WorkerState& w, AbsentPolicy policy, Scalar decay);

}  // namespace hfl::fl
