#include "src/sim/sparse_fault_plan.h"

#include "src/common/errors.h"

namespace hfl::sim {

SparseFaultPlan::SparseFaultPlan(std::size_t num_workers,
                                 std::size_t num_edges, FaultConfig cfg)
    : cfg_(cfg),
      num_workers_(num_workers),
      num_edges_(num_edges),
      root_(cfg.seed) {
  cfg_.validate();
  HFL_CHECK(num_workers_ > 0 && num_edges_ > 0,
            "fault plan needs at least one worker and one edge");
  is_straggler_ = detail::straggler_roles(root_, cfg_, num_workers_);
}

bool SparseFaultPlan::worker_available(std::size_t k,
                                       std::size_t worker) const {
  HFL_CHECK(k >= 1 && worker < num_workers_,
            "fault-plan query out of range");
  auto [it, inserted] = worker_cursors_.try_emplace(worker);
  detail::WorkerFaultCursor& c = it->second;
  if (inserted || k < c.k) c = detail::start_worker(root_, cfg_, worker);
  const bool straggler = !is_straggler_.empty() && is_straggler_[worker];
  detail::advance_worker(cfg_, straggler, c, k);
  return c.up;
}

bool SparseFaultPlan::edge_available(std::size_t k, std::size_t edge) const {
  HFL_CHECK(k >= 1 && edge < num_edges_, "fault-plan query out of range");
  if (cfg_.edge_outage.prob <= 0.0) return true;
  auto [it, inserted] = edge_cursors_.try_emplace(edge);
  EdgeCursor& c = it->second;
  if (inserted || k < c.k) {
    c.rng = detail::edge_stream(root_, num_workers_, edge);
    c.k = 0;
    c.up = true;
  }
  while (c.k < k) {
    c.up = detail::step_edge(cfg_, c.rng);
    ++c.k;
  }
  return c.up;
}

}  // namespace hfl::sim
