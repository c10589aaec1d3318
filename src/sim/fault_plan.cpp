#include "src/sim/fault_plan.h"

#include <algorithm>

#include "src/common/errors.h"

namespace hfl::sim {

namespace {

bool in_unit(Scalar p) { return p >= 0.0 && p <= 1.0; }

}  // namespace

bool FaultConfig::is_noop() const {
  return dropout.prob == 0.0 && churn.p_fail == 0.0 &&
         churn.p_start_down == 0.0 && straggler.fraction == 0.0 &&
         link.loss_prob == 0.0 && edge_outage.prob == 0.0;
}

void FaultConfig::validate() const {
  HFL_CHECK(in_unit(dropout.prob), "dropout.prob must be in [0, 1]");
  HFL_CHECK(in_unit(churn.p_fail) && in_unit(churn.p_recover) &&
                in_unit(churn.p_start_down),
            "churn probabilities must be in [0, 1]");
  HFL_CHECK(churn.p_fail == 0.0 || churn.p_recover > 0.0,
            "churn.p_recover must be positive when churn.p_fail is set "
            "(otherwise workers fail permanently and never return)");
  HFL_CHECK(in_unit(straggler.fraction), "straggler.fraction must be in [0, 1]");
  HFL_CHECK(straggler.slowdown >= 1.0, "straggler.slowdown must be >= 1");
  HFL_CHECK(straggler.jitter >= 0.0, "straggler.jitter must be >= 0");
  HFL_CHECK(straggler.deadline_slowdown == 0.0 ||
                straggler.deadline_slowdown >= 1.0,
            "straggler.deadline_slowdown must be 0 (off) or >= 1");
  HFL_CHECK(in_unit(link.loss_prob) && link.loss_prob < 1.0,
            "link.loss_prob must be in [0, 1)");
  HFL_CHECK(link.max_retries >= 1, "link.max_retries must be >= 1");
  HFL_CHECK(in_unit(edge_outage.prob) && edge_outage.prob < 1.0,
            "edge_outage.prob must be in [0, 1)");
  HFL_CHECK(absent_decay >= 0.0 && absent_decay <= 1.0,
            "absent_decay must be in [0, 1]");
}

namespace detail {

namespace {

// Fork tags of the per-entity fault streams.
constexpr std::uint64_t kWorkerStreamBase = 0x5EED0000;
constexpr std::uint64_t kEdgeStreamBase = 0xED6E0000;
constexpr std::uint64_t kStragglerAssign = 0x57A60001;

}  // namespace

std::vector<std::uint8_t> straggler_roles(const Rng& root,
                                          const FaultConfig& cfg,
                                          std::size_t num_workers) {
  std::vector<std::uint8_t> roles;
  if (cfg.straggler.fraction <= 0.0) return roles;
  Rng assign = root.fork_nth(kStragglerAssign, 1);
  roles.resize(num_workers);
  for (std::size_t w = 0; w < num_workers; ++w) {
    roles[w] = assign.uniform() < cfg.straggler.fraction ? 1 : 0;
  }
  return roles;
}

WorkerFaultCursor start_worker(const Rng& root, const FaultConfig& cfg,
                               std::size_t worker) {
  WorkerFaultCursor c;
  c.rng = root.fork_nth(kWorkerStreamBase + worker, 2 + worker);
  c.online = c.rng.uniform() >= cfg.churn.p_start_down;
  return c;
}

WorkerFaultStep step_worker(const FaultConfig& cfg, bool straggler,
                            WorkerFaultCursor& c) {
  const std::size_t k = c.k + 1;

  // Markov churn state for this interval.
  if (cfg.churn.p_fail > 0.0 || cfg.churn.p_start_down > 0.0) {
    if (k > 1) {
      const Scalar flip = c.rng.uniform();
      c.online = c.online ? flip >= cfg.churn.p_fail
                          : flip < cfg.churn.p_recover;
    }
  } else {
    c.online = true;
  }

  bool up = c.online;

  // i.i.d. dropout on top of churn.
  if (cfg.dropout.prob > 0.0 && c.rng.uniform() < cfg.dropout.prob) {
    up = false;
  }

  // Straggler slowdown (drawn even for absent workers to keep the stream
  // aligned across configs that only differ in other models).
  Scalar factor = 1.0;
  if (straggler) {
    factor = cfg.straggler.slowdown;
    if (cfg.straggler.jitter > 0.0) {
      factor *= std::max(Scalar{0.2}, c.rng.normal(1.0, cfg.straggler.jitter));
    }
    factor = std::max(Scalar{1.0}, factor);
  }

  // Deadline policy: a straggler over the time budget is dropped at the
  // barrier.
  if (cfg.straggler.deadline_slowdown > 0.0 &&
      factor > cfg.straggler.deadline_slowdown) {
    up = false;
  }

  // Transient link faults: geometric retry count, capped by the retry
  // budget; exhausting the budget means the upload never lands.
  std::size_t attempt = 1;
  if (up && cfg.link.loss_prob > 0.0) {
    while (c.rng.uniform() < cfg.link.loss_prob) {
      if (attempt == cfg.link.max_retries) {
        up = false;
        break;
      }
      ++attempt;
    }
  }

  c.k = k;
  c.up = up;
  return {factor, attempt};
}

void advance_worker(const FaultConfig& cfg, bool straggler,
                    WorkerFaultCursor& c, std::size_t k) {
  while (c.k < k) step_worker(cfg, straggler, c);
}

Rng edge_stream(const Rng& root, std::size_t num_workers, std::size_t edge) {
  return root.fork_nth(kEdgeStreamBase + edge, 2 + num_workers + edge);
}

}  // namespace detail

FaultPlan::FaultPlan(const fl::Topology& topo, const fl::RunConfig& run,
                     FaultConfig cfg)
    : cfg_(cfg) {
  run.validate();
  cfg_.validate();

  const std::size_t n = topo.num_workers();
  const std::size_t l = topo.num_edges();
  const std::size_t intervals = run.total_iterations / run.tau;

  schedule_.num_intervals = intervals;
  schedule_.num_workers = n;
  schedule_.num_edges = l;
  schedule_.worker_up.resize(intervals * n);
  schedule_.slowdown.resize(intervals * n);
  schedule_.edge_up.assign(intervals * l, 1);
  schedule_.absent_policy = cfg_.absent_policy;
  schedule_.absent_decay = cfg_.absent_decay;
  attempts_.resize(intervals * n);

  const Rng root(cfg_.seed);
  const std::vector<std::uint8_t> roles =
      detail::straggler_roles(root, cfg_, n);
  for (std::size_t w = 0; w < n; ++w) {
    const bool straggler = !roles.empty() && roles[w] != 0;
    detail::WorkerFaultCursor c = detail::start_worker(root, cfg_, w);
    for (std::size_t k = 1; k <= intervals; ++k) {
      const detail::WorkerFaultStep step =
          detail::step_worker(cfg_, straggler, c);
      const std::size_t idx = (k - 1) * n + w;
      schedule_.worker_up[idx] = c.up ? 1 : 0;
      schedule_.slowdown[idx] = step.slowdown;
      attempts_[idx] = step.attempts;
    }
  }

  if (cfg_.edge_outage.prob > 0.0) {
    for (std::size_t e = 0; e < l; ++e) {
      Rng erng = detail::edge_stream(root, n, e);
      for (std::size_t k = 1; k <= intervals; ++k) {
        schedule_.edge_up[(k - 1) * l + e] =
            detail::step_edge(cfg_, erng) ? 1 : 0;
      }
    }
  }
}

Scalar FaultPlan::planned_participation() const {
  if (schedule_.worker_up.empty()) return 1.0;
  std::size_t up = 0;
  for (const std::uint8_t u : schedule_.worker_up) up += u;
  return static_cast<Scalar>(up) /
         static_cast<Scalar>(schedule_.worker_up.size());
}

}  // namespace hfl::sim
