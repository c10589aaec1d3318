// Parameter-plane hot-path coverage: the fused vec kernels, the O(cohort)
// sparse roster, the incremental miss accounting, and the spill-time
// absent-policy replay of sampled populations.
//
//   * Fused kernels (src/common/vec_ops.h): every kernel's scalar tail is
//     built from std::fma so it reproduces the SIMD lanes' rounding exactly.
//     Two observable contracts follow, both asserted here bit-for-bit:
//     references written directly as the documented per-element std::fma
//     expressions must match, and splitting the index range into subspans
//     (which shifts elements between SIMD body and scalar tail) must not
//     change a single bit.
//
//   * Participation::set_cohort_roster must equal a naive per-edge and
//     global renormalization over the active workers, summed in ascending
//     order, bitwise — for sampled cohorts, the full-population cohort of
//     dense runs, and with set_edge_roster calls interleaved on one object.
//
//   * The engine's miss accounting is derived at finalize from per-interval
//     participation tallies; counting misses straight off the fault-zoo
//     schedule is the oracle it must match exactly.
//
//   * Sampled virtualized runs with kReset/kDecay absent policies replay the
//     policy per missed interval at restore (src/pop/cohort_store.h); a
//     dense run on the induced schedule applying the policy every interval
//     is the bit-identity oracle, at 1 and 4 threads.
#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "src/algs/registry.h"
#include "src/common/vec_ops.h"
#include "src/data/partitioner.h"
#include "src/data/synthetic.h"
#include "src/fl/availability.h"
#include "src/fl/engine.h"
#include "src/nn/models.h"
#include "src/pop/cohort_store.h"
#include "src/sim/fault_plan.h"

namespace hfl::fl {
namespace {

// ---------------------------------------------------------------------------
// Fused kernels.
// ---------------------------------------------------------------------------

// Deterministic pseudo-random fill (values in roughly [-1, 1]).
Vec test_vec(std::size_t n, std::uint64_t salt) {
  Rng rng(0xBEEF ^ salt);
  Vec v(n);
  for (Scalar& e : v) e = 2.0 * rng.uniform() - 1.0;
  return v;
}

// Odd length so the AVX2 body leaves a scalar tail; odd split so subrange
// calls shift elements between body and tail.
constexpr std::size_t kN = 103;
constexpr std::size_t kSplit = 29;

TEST(FusedKernelTest, AxpbyMatchesFmaReference) {
  Vec x = test_vec(kN, 1), y = test_vec(kN, 2), ref = y;
  vec::axpby(0.3, x, 0.7, y);
  for (std::size_t i = 0; i < kN; ++i) ref[i] = std::fma(0.3, x[i], 0.7 * ref[i]);
  EXPECT_EQ(y, ref);
}

TEST(FusedKernelTest, MomentumStepMatchesFmaReference) {
  Vec m = test_vec(kN, 3), g = test_vec(kN, 4), p = test_vec(kN, 5);
  Vec mr = m, pr = p;
  vec::momentum_step(m, g, 0.9, p, 0.05);
  for (std::size_t i = 0; i < kN; ++i) {
    mr[i] = std::fma(0.9, mr[i], g[i]);
    pr[i] = std::fma(-0.05, mr[i], pr[i]);
  }
  EXPECT_EQ(m, mr);
  EXPECT_EQ(p, pr);
}

TEST(FusedKernelTest, DecayTowardMatchesFmaReference) {
  Vec y = test_vec(kN, 6), x = test_vec(kN, 7), ref = y;
  vec::decay_toward(y, x, 0.5);
  for (std::size_t i = 0; i < kN; ++i) ref[i] = std::fma(0.5, ref[i] - x[i], x[i]);
  EXPECT_EQ(y, ref);
}

TEST(FusedKernelTest, NagStepMatchesFmaReference) {
  Vec x = test_vec(kN, 8), y = test_vec(kN, 9), v = test_vec(kN, 10);
  const Vec g = test_vec(kN, 11);
  Vec xr = x, yr = y, vr = v;
  vec::nag_step(x, y, v, g, 0.05, 0.9);
  for (std::size_t i = 0; i < kN; ++i) {
    const Scalar y_new = std::fma(-0.05, g[i], xr[i]);
    vr[i] = y_new - yr[i];
    yr[i] = y_new;
    xr[i] = std::fma(0.9, vr[i], y_new);
  }
  EXPECT_EQ(x, xr);
  EXPECT_EQ(y, yr);
  EXPECT_EQ(v, vr);
}

TEST(FusedKernelTest, SlowmoStepMatchesFmaReference) {
  Vec x = test_vec(kN, 12), m = test_vec(kN, 13);
  const Vec agg = test_vec(kN, 14);
  Vec xr = x, mr = m;
  vec::slowmo_step(x, agg, m, 0.8, 0.7);
  for (std::size_t i = 0; i < kN; ++i) {
    mr[i] = std::fma(0.8, mr[i], xr[i] - agg[i]);
    xr[i] = std::fma(-0.7, mr[i], xr[i]);
  }
  EXPECT_EQ(x, xr);
  EXPECT_EQ(m, mr);
}

TEST(FusedKernelTest, CosineNegMatchesNegatedCopy) {
  const Vec x = test_vec(kN, 15), y = test_vec(kN, 16);
  Vec neg = x;
  vec::scale(neg, -1.0);
  EXPECT_EQ(vec::cosine_neg(x, y), vec::cosine(neg, y));
}

TEST(FusedKernelTest, SubrangeCallsAreBitIdentical) {
  // One representative per kernel shape: the split shifts every element's
  // body/tail assignment, so agreement means the SIMD body and std::fma tail
  // compute identical bits.
  const Vec x0 = test_vec(kN, 20), g0 = test_vec(kN, 21), u0 = test_vec(kN, 22);
  {
    Vec a = x0, b = x0;
    vec::axpby(0.3, g0, 0.7, a);
    vec::axpby(0.3, std::span(g0).subspan(0, kSplit), 0.7,
               std::span(b).subspan(0, kSplit));
    vec::axpby(0.3, std::span(g0).subspan(kSplit), 0.7,
               std::span(b).subspan(kSplit));
    EXPECT_EQ(a, b);
  }
  {
    Vec a = x0, b = x0;
    vec::scale_add_scale(a, 0.4, g0, 0.6);
    vec::scale_add_scale(std::span(b).subspan(0, kSplit), 0.4,
                         std::span(g0).subspan(0, kSplit), 0.6);
    vec::scale_add_scale(std::span(b).subspan(kSplit), 0.4,
                         std::span(g0).subspan(kSplit), 0.6);
    EXPECT_EQ(a, b);
  }
  {
    Vec ya = x0, yb = x0;
    vec::decay_toward(ya, g0, 0.25);
    vec::decay_toward(std::span(yb).subspan(0, kSplit),
                      std::span(g0).subspan(0, kSplit), 0.25);
    vec::decay_toward(std::span(yb).subspan(kSplit),
                      std::span(g0).subspan(kSplit), 0.25);
    EXPECT_EQ(ya, yb);
  }
  {
    Vec xa = x0, xb = x0;
    vec::descent_drift(xa, g0, u0, 0.05, 0.9);
    vec::descent_drift(std::span(xb).subspan(0, kSplit),
                       std::span(g0).subspan(0, kSplit),
                       std::span(u0).subspan(0, kSplit), 0.05, 0.9);
    vec::descent_drift(std::span(xb).subspan(kSplit),
                       std::span(g0).subspan(kSplit),
                       std::span(u0).subspan(kSplit), 0.05, 0.9);
    EXPECT_EQ(xa, xb);
  }
  {
    Vec xa = x0, xb = x0, pa = u0, pb = u0;
    Vec ma = g0, mb = g0;
    vec::momentum_step(ma, x0, 0.9, pa, 0.05);
    vec::momentum_step(std::span(mb).subspan(0, kSplit),
                       std::span(x0).subspan(0, kSplit), 0.9,
                       std::span(pb).subspan(0, kSplit), 0.05);
    vec::momentum_step(std::span(mb).subspan(kSplit),
                       std::span(x0).subspan(kSplit), 0.9,
                       std::span(pb).subspan(kSplit), 0.05);
    EXPECT_EQ(ma, mb);
    EXPECT_EQ(pa, pb);
  }
}

// ---------------------------------------------------------------------------
// Shared engine fixture (mirrors tests/pop_parity_test.cpp at smaller scale).
// ---------------------------------------------------------------------------

struct Fixture {
  data::TrainTest dataset;
  Topology topo{Topology::uniform(4, 16)};  // 64 workers
  data::Partition partition;
  nn::ModelFactory factory;
  RunConfig cfg;

  Fixture() {
    Rng rng(3);
    data::SyntheticSpec spec;
    spec.sample_shape = {1, 3, 3};
    spec.num_classes = 3;
    spec.train_size = 256;
    spec.test_size = 32;
    dataset = data::make_synthetic(rng, spec);
    partition = data::partition_iid(dataset.train, topo.num_workers(), rng);
    factory = nn::logistic_regression({1, 3, 3}, 3);

    cfg.total_iterations = 12;
    cfg.tau = 2;
    cfg.pi = 2;
    cfg.batch_size = 2;
    cfg.seed = 5;
  }
};

sim::FaultConfig fault_zoo() {
  sim::FaultConfig fc;
  fc.seed = 42;
  fc.dropout.prob = 0.25;
  fc.churn.p_fail = 0.15;
  fc.churn.p_recover = 0.6;
  fc.edge_outage.prob = 0.1;
  return fc;
}

void expect_identical(const RunResult& a, const RunResult& b) {
  ASSERT_EQ(a.curve.size(), b.curve.size());
  for (std::size_t i = 0; i < a.curve.size(); ++i) {
    EXPECT_EQ(a.curve[i].test_loss, b.curve[i].test_loss);
    EXPECT_EQ(a.curve[i].test_accuracy, b.curve[i].test_accuracy);
  }
  EXPECT_EQ(a.final_params, b.final_params);
  EXPECT_EQ(a.final_loss, b.final_loss);
  EXPECT_EQ(a.worker_miss_counts, b.worker_miss_counts);
  EXPECT_EQ(a.mean_participation_rate, b.mean_participation_rate);
}

// ---------------------------------------------------------------------------
// Roster builder vs a naive renormalization.
// ---------------------------------------------------------------------------

// What a roster view must hold, computed the obvious way: every mass sum
// walks its members in ascending order.
struct RefView {
  std::vector<std::uint8_t> active, edge_active;
  std::vector<Scalar> in_edge, global, edge_weight;
  std::vector<std::vector<WorkerId>> rosters;
  std::size_t num_active = 0;
};

// Three-tier roster: worker w is active iff it is a cohort member marked up
// and its edge is up; an edge is active iff it is up and keeps a survivor.
RefView reference_roster(const Topology& topo,
                         const std::vector<Scalar>& base,
                         const std::vector<WorkerId>& cohort,
                         const std::vector<std::uint8_t>& cohort_up,
                         const std::vector<std::uint8_t>& edge_up,
                         const std::vector<Scalar>* scale) {
  const std::size_t n = topo.num_workers();
  const std::size_t l = topo.num_edges();
  RefView v;
  v.active.assign(n, 0);
  v.in_edge.assign(n, 0.0);
  v.global.assign(n, 0.0);
  v.edge_active.assign(l, 0);
  v.edge_weight.assign(l, 0.0);
  v.rosters.resize(l);
  std::vector<Scalar> mass(n, 0.0);
  for (std::size_t i = 0; i < cohort.size(); ++i) {
    const WorkerId w = cohort[i];
    mass[w] = base[w] * (scale == nullptr ? 1.0 : (*scale)[i]);
    v.active[w] = cohort_up[i] && edge_up[topo.edge_of_worker(w)] ? 1 : 0;
  }
  std::vector<Scalar> edge_mass(l, 0.0);
  Scalar edge_total = 0, worker_total = 0;
  for (std::size_t e = 0; e < l; ++e) {
    for (const WorkerId w : topo.workers_of_edge(e)) {
      if (!v.active[w]) continue;
      v.rosters[e].push_back(w);
      edge_mass[e] += mass[w];
    }
    v.edge_active[e] = edge_up[e] && !v.rosters[e].empty() ? 1 : 0;
    for (const WorkerId w : v.rosters[e]) v.in_edge[w] = mass[w] / edge_mass[e];
    if (v.edge_active[e]) edge_total += edge_mass[e];
  }
  for (std::size_t w = 0; w < n; ++w) {
    if (v.active[w]) worker_total += mass[w];
    v.num_active += v.active[w];
  }
  for (std::size_t w = 0; w < n; ++w) {
    if (v.active[w]) v.global[w] = mass[w] / worker_total;
  }
  for (std::size_t e = 0; e < l; ++e) {
    if (v.edge_active[e]) v.edge_weight[e] = edge_mass[e] / edge_total;
  }
  return v;
}

// Edge-only roster: no worker is active; up edges share the global weight
// by their static data mass.
RefView reference_edge_roster(const Topology& topo,
                              const std::vector<Scalar>& base,
                              const std::vector<std::uint8_t>& edge_up) {
  RefView v = reference_roster(topo, base, {}, {}, edge_up, nullptr);
  std::vector<Scalar> edge_mass(topo.num_edges(), 0.0);
  Scalar total = 0;
  for (std::size_t e = 0; e < topo.num_edges(); ++e) {
    for (const WorkerId w : topo.workers_of_edge(e)) edge_mass[e] += base[w];
    v.edge_active[e] = edge_up[e];
    if (edge_up[e]) total += edge_mass[e];
  }
  for (std::size_t e = 0; e < topo.num_edges(); ++e) {
    v.edge_weight[e] = edge_up[e] ? edge_mass[e] / total : 0.0;
  }
  return v;
}

void expect_view(const Participation& p, const RefView& ref,
                 const Topology& topo) {
  ASSERT_EQ(p.num_workers(), ref.active.size());
  EXPECT_EQ(p.num_active(), ref.num_active);
  for (std::size_t w = 0; w < p.num_workers(); ++w) {
    EXPECT_EQ(p.worker_active(w), ref.active[w] != 0) << "worker " << w;
    EXPECT_EQ(p.weight_in_edge(w), ref.in_edge[w]) << "worker " << w;
    EXPECT_EQ(p.weight_global(w), ref.global[w]) << "worker " << w;
  }
  for (std::size_t e = 0; e < topo.num_edges(); ++e) {
    EXPECT_EQ(p.edge_active(e), ref.edge_active[e] != 0) << "edge " << e;
    EXPECT_EQ(p.edge_weight_global(e), ref.edge_weight[e]) << "edge " << e;
    EXPECT_EQ(p.active_workers_of_edge(e), ref.rosters[e]) << "edge " << e;
  }
}

TEST(SparseRosterTest, MatchesNaiveRenormalizationBitwise) {
  const Topology topo = Topology::uniform(4, 16);
  const std::size_t N = topo.num_workers();
  std::vector<Scalar> weights(N);
  Rng rng(77);
  for (Scalar& w : weights) w = 1.0 + 10.0 * rng.uniform();

  Participation part(topo, weights, /*edge_faults=*/true);

  std::vector<WorkerId> cohort;
  std::vector<std::uint8_t> cohort_up, edge_up(topo.num_edges());
  std::vector<Scalar> cohort_scale;
  for (std::size_t round = 0; round < 12; ++round) {
    // Random ascending cohort (~1/4 of the population) with random up bits
    // and with-replacement-style multiplicities — except round 5, the
    // full-population cohort of a dense run (unscaled). Random edge
    // outages throughout.
    const bool full = round == 5;
    cohort.clear();
    cohort_up.clear();
    cohort_scale.clear();
    for (std::size_t w = 0; w < N; ++w) {
      if (!full && rng.uniform() > 0.25) continue;
      const bool up = rng.uniform() < 0.8;
      cohort.push_back(w);
      cohort_up.push_back(up ? 1 : 0);
      cohort_scale.push_back(1.0 + static_cast<Scalar>(rng.next_u64() % 3));
    }
    if (cohort.empty()) {
      cohort.push_back(0);
      cohort_up.push_back(1);
      cohort_scale.push_back(1.0);
    }
    for (std::size_t e = 0; e < edge_up.size(); ++e) {
      edge_up[e] = rng.uniform() < 0.85 ? 1 : 0;
    }
    const std::vector<Scalar>* scale = full ? nullptr : &cohort_scale;

    SCOPED_TRACE("round " + std::to_string(round));
    part.set_cohort_roster(cohort, cohort_up, edge_up, scale);
    expect_view(part,
                reference_roster(topo, weights, cohort, cohort_up, edge_up,
                                 scale),
                topo);

    // Interleave edge-only rosters on the SAME object (the event-driven
    // cloud fold): the next cohort roster must restore its baseline.
    if (round % 4 == 3) {
      part.set_edge_roster(edge_up);
      expect_view(part, reference_edge_roster(topo, weights, edge_up), topo);
    }
  }
}

// ---------------------------------------------------------------------------
// Incremental miss accounting vs the schedule.
// ---------------------------------------------------------------------------

TEST(MissAccountingTest, MatchesScheduleMissCounts) {
  Fixture f;
  const sim::FaultPlan plan(f.topo, f.cfg, fault_zoo());
  const ParticipationSchedule& schedule = plan.schedule();

  auto alg = algs::make_algorithm("HierAdMo");
  ASSERT_TRUE(alg->three_tier());
  RunConfig cfg = f.cfg;
  cfg.num_threads = 2;
  Engine engine(f.factory, f.dataset, f.partition, f.topo, cfg);
  const RunResult r = engine.run(*alg, &schedule);

  // Oracle: a worker misses interval k when it is down, or (three-tier)
  // when its edge is down.
  std::vector<std::size_t> expected(f.topo.num_workers(), 0);
  const std::size_t intervals = f.cfg.total_iterations / f.cfg.tau;
  for (std::size_t k = 1; k <= intervals; ++k) {
    for (std::size_t w = 0; w < expected.size(); ++w) {
      if (!schedule.worker_available(k, w) ||
          !schedule.edge_available(k, f.topo.edge_of_worker(w))) {
        ++expected[w];
      }
    }
  }
  EXPECT_EQ(r.worker_miss_counts, expected);
}

// ---------------------------------------------------------------------------
// Sampled-population absent-policy replay and turnover thread invariance.
// ---------------------------------------------------------------------------

RunResult run_sampled(const Fixture& f, const std::string& alg_name,
                      std::size_t threads, std::size_t cohort_size,
                      const AvailabilityOracle* oracle) {
  auto alg = algs::make_algorithm(alg_name);
  RunConfig cfg = f.cfg;
  cfg.num_threads = threads;
  Engine engine(f.factory, f.dataset, f.partition, f.topo, cfg);
  pop::VirtConfig virt;
  virt.cohort_size = cohort_size;
  pop::CohortStore store(f.factory, f.dataset, f.partition, f.topo, cfg, virt);
  engine.set_cohort_provider(&store);
  return engine.run_with_oracle(*alg, oracle);
}

// The dense schedule a sampled run induces: a worker is up iff it is in
// interval k's cohort AND the oracle keeps it up.
ParticipationSchedule induced_schedule(const Fixture& f,
                                       std::size_t cohort_size,
                                       const AvailabilityOracle* oracle,
                                       AbsentPolicy policy, Scalar decay) {
  pop::VirtConfig virt;
  virt.cohort_size = cohort_size;
  pop::CohortStore replica(f.factory, f.dataset, f.partition, f.topo, f.cfg,
                           virt);
  ParticipationSchedule s;
  s.num_intervals = f.cfg.total_iterations / f.cfg.tau;
  s.num_workers = f.topo.num_workers();
  s.num_edges = f.topo.num_edges();
  s.worker_up.assign(s.num_intervals * s.num_workers, 0);
  s.slowdown.assign(s.num_intervals * s.num_workers, 1.0);
  s.edge_up.assign(s.num_intervals * s.num_edges, 1);
  s.absent_policy = policy;
  s.absent_decay = decay;

  std::vector<WorkerId> ids;
  std::vector<Scalar> mult;
  for (std::size_t k = 1; k <= s.num_intervals; ++k) {
    replica.sample_cohort(k, ids, mult);
    for (const WorkerId id : ids) {
      const bool up = oracle == nullptr || oracle->worker_available(k, id);
      s.worker_up[(k - 1) * s.num_workers + id] = up ? 1 : 0;
    }
    if (oracle != nullptr) {
      for (std::size_t e = 0; e < s.num_edges; ++e) {
        s.edge_up[(k - 1) * s.num_edges + e] =
            oracle->edge_available(k, e) ? 1 : 0;
      }
    }
  }
  return s;
}

class AbsentReplayTest : public ::testing::TestWithParam<AbsentPolicy> {};

TEST_P(AbsentReplayTest, SampledRunMatchesDenseInducedSchedule) {
  Fixture f;
  constexpr std::size_t kCohort = 16;  // of 64: turnover every interval

  // Fault zoo on top of the cohort sampling, with the policy under test.
  const sim::FaultPlan plan(f.topo, f.cfg, fault_zoo());
  ParticipationSchedule faults = plan.schedule();
  faults.absent_policy = GetParam();
  faults.absent_decay = 0.5;
  const ScheduleOracle oracle(faults);

  const RunResult sampled = run_sampled(f, "HierAdMo", 4, kCohort, &oracle);

  const ParticipationSchedule induced =
      induced_schedule(f, kCohort, &oracle, GetParam(), 0.5);
  auto dense_alg = algs::make_algorithm("HierAdMo");
  RunConfig cfg = f.cfg;
  cfg.num_threads = 4;
  Engine dense(f.factory, f.dataset, f.partition, f.topo, cfg);
  const RunResult reference = dense.run(*dense_alg, &induced);

  expect_identical(reference, sampled);
}

TEST_P(AbsentReplayTest, TurnoverIsThreadCountInvariant) {
  Fixture f;
  const sim::FaultPlan plan(f.topo, f.cfg, fault_zoo());
  ParticipationSchedule faults = plan.schedule();
  faults.absent_policy = GetParam();
  faults.absent_decay = 0.5;
  const ScheduleOracle oracle(faults);

  // Spill serialization and restore replay run on the engine pool; 1 vs 4
  // threads must not move a bit.
  const RunResult serial = run_sampled(f, "HierAdMo", 1, 16, &oracle);
  const RunResult parallel = run_sampled(f, "HierAdMo", 4, 16, &oracle);
  expect_identical(serial, parallel);
}

INSTANTIATE_TEST_SUITE_P(Policies, AbsentReplayTest,
                         ::testing::Values(AbsentPolicy::kHold,
                                           AbsentPolicy::kReset,
                                           AbsentPolicy::kDecay),
                         [](const ::testing::TestParamInfo<AbsentPolicy>& i) {
                           switch (i.param) {
                             case AbsentPolicy::kHold: return "Hold";
                             case AbsentPolicy::kReset: return "Reset";
                             case AbsentPolicy::kDecay: return "Decay";
                           }
                           return "Unknown";
                         });

}  // namespace
}  // namespace hfl::fl
