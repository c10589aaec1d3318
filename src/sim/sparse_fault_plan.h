// Lazily-evaluated fault traces for virtualized populations.
//
// `FaultPlan` materializes the full O(intervals × workers) availability
// schedule up front — exactly what a million-worker run cannot afford, and
// wasted work when only the sampled cohort is ever queried.
// `SparseFaultPlan` answers the same queries through the
// `fl::AvailabilityOracle` interface by REPLAYING the identical per-entity
// forked RNG streams on demand:
//
//   * construction precomputes only the O(n)-bit straggler-role bitmap
//     (one fleet-level stream in worker order, so it cannot be derived per
//     worker);
//   * the first query for worker w derives its stream statelessly
//     (Rng::fork_nth) and steps it interval by interval until it reaches
//     the asked interval, caching a per-entity cursor;
//   * later queries advance the cursor forward, or rewind by replaying
//     from the stream head (queries going backward are rare: the engine
//     asks in nondecreasing interval order).
//
// Streams and the per-interval step are FaultPlan's own (sim::detail in
// fault_plan.h), so for every (interval, entity) the answer is
// bit-identical to the dense plan built from the same config — asserted by
// tests/pop_test.cpp over the full model zoo. Queries are serial-only, per
// the AvailabilityOracle contract.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "src/common/rng.h"
#include "src/fl/availability.h"
#include "src/sim/fault_plan.h"

namespace hfl::sim {

class SparseFaultPlan final : public fl::AvailabilityOracle {
 public:
  SparseFaultPlan(std::size_t num_workers, std::size_t num_edges,
                  FaultConfig cfg);

  bool worker_available(std::size_t k, std::size_t worker) const override;
  bool edge_available(std::size_t k, std::size_t edge) const override;
  fl::AbsentPolicy absent_policy() const override {
    return cfg_.absent_policy;
  }
  Scalar absent_decay() const override { return cfg_.absent_decay; }

  const FaultConfig& config() const { return cfg_; }

 private:
  struct EdgeCursor {
    Rng rng{0};
    std::size_t k = 0;
    bool up = true;
  };

  FaultConfig cfg_;
  std::size_t num_workers_ = 0;
  std::size_t num_edges_ = 0;
  Rng root_;
  std::vector<std::uint8_t> is_straggler_;
  // Lazy per-entity replay cursors (mutable: queries are logically const
  // and, per the oracle contract, serial).
  mutable std::unordered_map<std::size_t, detail::WorkerFaultCursor>
      worker_cursors_;
  mutable std::unordered_map<std::size_t, EdgeCursor> edge_cursors_;
};

}  // namespace hfl::sim
