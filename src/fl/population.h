// Compact worker descriptors: the one table behind every worker's data
// weights.
//
// A `Population` keeps what the aggregation weights and cohort selection
// need, in flat arrays indexed by the 32-bit worker id: the per-worker
// sample count D_{i,ℓ} (the paper's data mass), the edge assignment, and
// the per-edge/total sample sums the weights are derived from. Both cohort
// providers read it — the engine's built-in full-cohort provider
// (src/fl/engine.h) and `pop::CohortStore` (src/pop/cohort_store.h) — and
// `init_worker_state` (src/fl/state.h) copies a worker's weights out of it,
// so every materialized worker carries the same weight_in_edge /
// weight_global whichever provider built it.
#pragma once

#include <cstdint>
#include <vector>

#include "src/common/types.h"
#include "src/data/partitioner.h"
#include "src/fl/topology.h"

namespace hfl::fl {

class Population {
 public:
  // Descriptors for `topo`'s workers with per-worker sample counts read off
  // `partition` (partition[i].size() = worker i's D_{i,ℓ}).
  Population(const Topology& topo, const data::Partition& partition);

  std::size_t num_workers() const { return num_samples_.size(); }
  std::size_t num_edges() const { return edge_samples_.size(); }

  std::uint32_t edge_of(std::size_t worker) const {
    return edge_of_worker_[worker];
  }
  std::size_t num_samples(std::size_t worker) const {
    return num_samples_[worker];
  }

  // D_{i,ℓ}/D_ℓ and D_{i,ℓ}/D: integer sample counts cast to Scalar.
  Scalar weight_in_edge(std::size_t worker) const {
    return static_cast<Scalar>(num_samples_[worker]) /
           static_cast<Scalar>(edge_samples_[edge_of_worker_[worker]]);
  }
  Scalar weight_global(std::size_t worker) const {
    return static_cast<Scalar>(num_samples_[worker]) /
           static_cast<Scalar>(total_samples_);
  }

  std::uint64_t total_samples() const { return total_samples_; }
  std::uint64_t edge_samples(std::size_t edge) const {
    return edge_samples_[edge];
  }

  // Per-worker data masses D_i as Scalars — the sampler weights, and the
  // base weights `fl::Participation` renormalizes.
  std::vector<Scalar> base_weights() const;

 private:
  std::vector<std::uint32_t> num_samples_;     // D_{i,ℓ} per worker
  std::vector<std::uint32_t> edge_of_worker_;  // edge assignment per worker
  std::vector<std::uint64_t> edge_samples_;    // D_ℓ per edge
  std::uint64_t total_samples_ = 0;            // D
};

}  // namespace hfl::fl
