#include "src/fl/availability.h"

#include <string>

#include "src/common/errors.h"

namespace hfl::fl {

bool ParticipationSchedule::is_noop() const {
  for (const std::uint8_t up : worker_up) {
    if (!up) return false;
  }
  for (const std::uint8_t up : edge_up) {
    if (!up) return false;
  }
  for (const Scalar s : slowdown) {
    if (s != 1.0) return false;
  }
  return true;
}

void ParticipationSchedule::validate(const Topology& topo,
                                     const RunConfig& cfg) const {
  HFL_CHECK(num_workers == topo.num_workers(),
            "participation schedule built for " + std::to_string(num_workers) +
                " workers but the topology has " +
                std::to_string(topo.num_workers()));
  HFL_CHECK(num_edges == topo.num_edges(),
            "participation schedule built for " + std::to_string(num_edges) +
                " edges but the topology has " +
                std::to_string(topo.num_edges()));
  const std::size_t intervals = cfg.total_iterations / cfg.tau;
  HFL_CHECK(num_intervals >= intervals,
            "participation schedule covers " + std::to_string(num_intervals) +
                " edge intervals but the run needs " +
                std::to_string(intervals) + " (T/tau)");
  HFL_CHECK(worker_up.size() == num_intervals * num_workers &&
                slowdown.size() == num_intervals * num_workers &&
                edge_up.size() == num_intervals * num_edges,
            "participation schedule arrays do not match the declared shape");
  for (const Scalar s : slowdown) {
    HFL_CHECK(s >= 1.0, "slowdown factors must be >= 1");
  }
  HFL_CHECK(absent_decay >= 0.0 && absent_decay <= 1.0,
            "absent_decay must be in [0, 1]");
}

Participation::Participation(const Topology& topo,
                             std::vector<Scalar> base_weights,
                             bool edge_faults)
    : topo_(&topo), edge_faults_(edge_faults) {
  const std::size_t n = topo.num_workers();
  const std::size_t l = topo.num_edges();
  HFL_CHECK(base_weights.size() == n,
            "base weights do not match the topology");
  base_weight_ = std::move(base_weights);
  mass_.assign(n, 0.0);
  active_.assign(n, 0);
  edge_active_.assign(l, 0);
  active_of_edge_.resize(l);
  weight_in_edge_.assign(n, 0.0);
  weight_global_.assign(n, 0.0);
  edge_weight_.assign(l, 0.0);
  // Static per-edge data masses, summed in ascending member order.
  edge_mass_.assign(l, 0.0);
  for (std::size_t e = 0; e < l; ++e) {
    for (const WorkerId w : topo.workers_of_edge(e)) {
      edge_mass_[e] += base_weight_[w];
    }
  }
}

void Participation::clear_cohort() {
  for (const WorkerId w : prev_cohort_ids_) {
    active_[w] = 0;
    weight_in_edge_[w] = 0.0;
    weight_global_[w] = 0.0;
  }
  prev_cohort_ids_.clear();
}

void Participation::set_cohort_roster(const std::vector<WorkerId>& cohort_ids,
                                      const std::vector<std::uint8_t>& cohort_up,
                                      const std::vector<std::uint8_t>& edge_up,
                                      const std::vector<Scalar>* cohort_scale) {
  const std::size_t n = active_.size();
  const std::size_t l = edge_active_.size();
  HFL_CHECK(cohort_up.size() == cohort_ids.size(),
            "cohort_up must align with cohort_ids");
  HFL_CHECK(edge_up.size() == l,
            "set_cohort_roster edge array does not match the topology");
  HFL_CHECK(cohort_scale == nullptr ||
                cohort_scale->size() == cohort_ids.size(),
            "cohort scale vector does not match the cohort size");

  clear_cohort();
  for (std::size_t e = 0; e < l; ++e) {
    active_of_edge_[e].clear();
    edge_active_[e] = 0;
    edge_weight_[e] = 0.0;
  }

  // Activity bits, effective masses, and per-edge rosters in one ascending
  // pass.
  num_active_ = 0;
  for (std::size_t i = 0; i < cohort_ids.size(); ++i) {
    const WorkerId w = cohort_ids[i];
    HFL_CHECK(w < n, "cohort id out of range");
    HFL_CHECK(i == 0 || cohort_ids[i - 1] < w,
              "cohort ids must be ascending and unique");
    const std::size_t e = topo_->edge_of_worker(w);
    const bool edge_ok = !edge_faults_ || edge_up[e] != 0;
    active_[w] = (cohort_up[i] != 0 && edge_ok) ? 1 : 0;
    num_active_ += active_[w];
    mass_[w] = base_weight_[w] *
               (cohort_scale == nullptr ? 1.0 : (*cohort_scale)[i]);
    if (active_[w]) active_of_edge_[e].push_back(w);
  }

  // Per-edge renormalization, edges ascending; surviving edges' masses
  // accumulate into the edge-level global mass.
  Scalar global_mass = 0;
  for (std::size_t e = 0; e < l; ++e) {
    const auto& roster = active_of_edge_[e];
    Scalar edge_mass = 0;
    for (const WorkerId w : roster) edge_mass += mass_[w];
    edge_active_[e] =
        (!edge_faults_ || edge_up[e] != 0) && !roster.empty() ? 1 : 0;
    for (const WorkerId w : roster) {
      weight_in_edge_[w] = mass_[w] / edge_mass;
    }
    if (edge_active_[e]) global_mass += edge_mass;
  }

  // Global renormalizations (worker-level for two-tier aggregation and the
  // virtual global model; edge-level for three-tier cloud rounds).
  Scalar active_mass = 0;
  for (const WorkerId w : cohort_ids) {
    if (active_[w]) active_mass += mass_[w];
  }
  for (const WorkerId w : cohort_ids) {
    weight_global_[w] =
        active_[w] && active_mass > 0 ? mass_[w] / active_mass : 0.0;
  }
  for (std::size_t e = 0; e < l; ++e) {
    Scalar edge_mass = 0;
    for (const WorkerId w : active_of_edge_[e]) edge_mass += mass_[w];
    edge_weight_[e] = edge_active_[e] && global_mass > 0
                          ? edge_mass / global_mass
                          : 0.0;
  }

  prev_cohort_ids_ = cohort_ids;
}

void Participation::set_edge_roster(const std::vector<std::uint8_t>& edge_up) {
  const std::size_t l = edge_active_.size();
  HFL_CHECK(edge_up.size() == l,
            "set_edge_roster edge array does not match the topology");

  clear_cohort();
  num_active_ = 0;

  // Edge activity comes straight from edge_up (no surviving-worker
  // requirement); edge weights renormalize the static per-edge masses over
  // the up edges, ascending.
  Scalar global_mass = 0;
  for (std::size_t e = 0; e < l; ++e) {
    active_of_edge_[e].clear();
    edge_active_[e] = edge_up[e] != 0 ? 1 : 0;
    if (edge_active_[e]) global_mass += edge_mass_[e];
  }
  for (std::size_t e = 0; e < l; ++e) {
    edge_weight_[e] = edge_active_[e] && global_mass > 0
                          ? edge_mass_[e] / global_mass
                          : 0.0;
  }
}

void Participation::set_absent_policy(AbsentPolicy policy, Scalar decay) {
  HFL_CHECK(decay >= 0.0 && decay <= 1.0, "absent decay must be in [0, 1]");
  policy_ = policy;
  decay_ = decay;
}

bool is_active(const Participation* part, std::size_t worker) {
  return part == nullptr || part->worker_active(worker);
}

bool is_edge_active(const Participation* part, std::size_t edge) {
  return part == nullptr || part->edge_active(edge);
}

const std::vector<WorkerId>& active_workers(const Participation* part,
                                            const Topology& topo,
                                            std::size_t edge) {
  if (part == nullptr) return topo.workers_of_edge(edge);
  return part->active_workers_of_edge(edge);
}

Scalar active_weight_in_edge(const Participation* part, const WorkerState& w) {
  return part == nullptr ? w.weight_in_edge : part->weight_in_edge(w.id);
}

Scalar active_weight_global(const Participation* part, const WorkerState& w) {
  return part == nullptr ? w.weight_global : part->weight_global(w.id);
}

Scalar active_edge_weight(const Participation* part, const EdgeState& e) {
  return part == nullptr ? e.weight_global : part->edge_weight_global(e.id);
}

void apply_absent_policy(WorkerState& w, AbsentPolicy policy, Scalar decay) {
  switch (policy) {
    case AbsentPolicy::kHold:
      break;
    case AbsentPolicy::kReset:
      w.y = w.x;
      vec::fill(w.v, 0.0);
      w.reset_interval_accumulators();
      break;
    case AbsentPolicy::kDecay:
      vec::decay_toward(w.y, w.x, decay);
      vec::scale(w.v, decay);
      vec::scale(w.sum_grad, decay);
      vec::scale(w.sum_y, decay);
      vec::scale(w.sum_v, decay);
      break;
  }
}

}  // namespace hfl::fl
