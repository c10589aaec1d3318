// Unit coverage for the population subsystem (src/pop) and its RNG/replay
// foundations:
//
//   * Rng::fork_nth reproduces the mutating fork sequence statelessly, and
//     save_state/from_state round-trips mid-stream — the primitives behind
//     lazy worker materialization and spill/restore.
//   * AliasSampler draws match the weight distribution (frequency test) and
//     are deterministic in the stream.
//   * FenwickSampler matches a naive sequential weighted-WOR reference draw
//     for draw (integer weights keep every partial sum exact in double, so
//     tree-order and linear-order prefix sums are bit-equal), restores its
//     weights after every cohort, and its set frequencies match the exact
//     enumeration probabilities.
//   * Slab round-trips blobs on both backends and keeps honest byte
//     accounting.
//   * Population descriptors reproduce the weights D_{i,ℓ}/D_ℓ and D_{i,ℓ}/D.
//   * SparseFaultPlan answers every (interval, entity) query bit-identically
//     to the dense FaultPlan built from the same config, in any query order.
//   * Slab failure paths: a truncated spill file fails the read, a failed
//     write throws.
//   * CohortStore: deterministic cohort draws, spill → restore round-trips
//     every mutable field (including batch-stream checkpoints) bit-exactly;
//     a worker restored or created in a recycled shell matches a store that
//     never rotated, whatever the shell's previous holder left; steady-state
//     turnover builds no models; a cut spill file fails the restore.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "src/common/errors.h"
#include "src/common/rng.h"
#include "src/common/thread_pool.h"
#include "src/data/partitioner.h"
#include "src/data/synthetic.h"
#include "src/fl/population.h"
#include "src/nn/models.h"
#include "src/pop/cohort_store.h"
#include "src/pop/sampler.h"
#include "src/pop/slab.h"
#include "src/sim/fault_plan.h"
#include "src/sim/sparse_fault_plan.h"

namespace hfl {
namespace {

TEST(RngCheckpointTest, ForkNthMatchesForkSequence) {
  Rng parent(99);
  std::vector<std::uint64_t> tags = {0x1217, 1000, 1001, 0xC0FFEE};
  std::vector<std::uint64_t> probes;
  for (const std::uint64_t tag : tags) {
    Rng child = parent.fork(tag);
    probes.push_back(child.next_u64());
  }
  // fork() mutates only the counter, so a fresh Rng with the same seed can
  // re-derive any fork in the sequence by (tag, ordinal).
  const Rng fresh(99);
  for (std::size_t i = 0; i < tags.size(); ++i) {
    Rng child = fresh.fork_nth(tags[i], i + 1);
    EXPECT_EQ(child.next_u64(), probes[i]) << "fork #" << (i + 1);
  }
}

TEST(RngCheckpointTest, SaveRestoreMidStream) {
  Rng rng(7);
  for (int i = 0; i < 17; ++i) rng.uniform();
  rng.fork(3);  // counter state must round-trip too
  const RngState snap = rng.save_state();
  std::vector<Scalar> expect;
  for (int i = 0; i < 8; ++i) expect.push_back(rng.uniform());
  Rng child = rng.fork(9);
  const Scalar child_probe = child.uniform();

  Rng back = Rng::from_state(snap);
  for (int i = 0; i < 8; ++i) EXPECT_EQ(back.uniform(), expect[i]);
  Rng back_child = back.fork(9);
  EXPECT_EQ(back_child.uniform(), child_probe);
}

TEST(AliasSamplerTest, FrequenciesMatchWeights) {
  const std::vector<Scalar> weights = {1.0, 2.0, 3.0, 4.0};
  const pop::AliasSampler sampler(weights);
  Rng rng(11);
  const std::size_t draws = 200000;
  std::vector<std::size_t> count(weights.size(), 0);
  for (std::size_t d = 0; d < draws; ++d) ++count[sampler.draw(rng)];
  const Scalar total = std::accumulate(weights.begin(), weights.end(), 0.0);
  for (std::size_t i = 0; i < weights.size(); ++i) {
    const Scalar expected = weights[i] / total;
    const Scalar observed =
        static_cast<Scalar>(count[i]) / static_cast<Scalar>(draws);
    EXPECT_NEAR(observed, expected, 0.01) << "index " << i;
  }
}

TEST(AliasSamplerTest, ZeroWeightNeverDrawn) {
  const pop::AliasSampler sampler({2.0, 0.0, 1.0, 0.0});
  Rng rng(5);
  for (int d = 0; d < 5000; ++d) {
    const std::size_t i = sampler.draw(rng);
    EXPECT_TRUE(i == 0 || i == 2);
  }
}

TEST(AliasSamplerTest, RejectsDegenerateWeights) {
  EXPECT_THROW(pop::AliasSampler({}), Error);
  EXPECT_THROW(pop::AliasSampler({0.0, 0.0}), Error);
  EXPECT_THROW(pop::AliasSampler({1.0, -0.5}), Error);
}

// Naive sequential weighted draw without replacement: same uniforms, linear
// prefix scan. Integer-valued weights keep every partial sum exact, so the
// Fenwick tree's differently-associated sums are bit-equal and the two
// implementations must agree index for index.
std::vector<std::uint32_t> naive_wor(std::vector<Scalar> w, std::size_t k,
                                     Rng& rng) {
  std::vector<std::uint32_t> out;
  for (std::size_t d = 0; d < k; ++d) {
    Scalar total = 0.0;
    for (const Scalar x : w) total += x;
    const Scalar target = rng.uniform() * total;
    Scalar acc = 0.0;
    std::size_t pick = w.size();
    for (std::size_t i = 0; i < w.size(); ++i) {
      if (w[i] <= 0.0) continue;
      acc += w[i];
      if (target < acc) {
        pick = i;
        break;
      }
    }
    if (pick == w.size()) {  // FP edge: target == total
      for (std::size_t i = w.size(); i-- > 0;) {
        if (w[i] > 0.0) {
          pick = i;
          break;
        }
      }
    }
    out.push_back(static_cast<std::uint32_t>(pick));
    w[pick] = 0.0;
  }
  return out;
}

TEST(FenwickSamplerTest, MatchesNaiveReferenceDrawForDraw) {
  Rng meta(21);
  for (int trial = 0; trial < 50; ++trial) {
    const std::size_t n = 1 + meta.uniform_index(40);
    std::vector<Scalar> weights(n);
    std::size_t positive = 0;
    for (Scalar& w : weights) {
      w = static_cast<Scalar>(meta.uniform_index(8));  // integers, some zero
      if (w > 0.0) ++positive;
    }
    if (positive == 0) {
      weights[0] = 3.0;
      positive = 1;
    }
    const std::size_t k = 1 + meta.uniform_index(positive);
    pop::FenwickSampler sampler(weights);
    Rng a(1000 + trial), b(1000 + trial);
    EXPECT_EQ(sampler.sample(k, a), naive_wor(weights, k, b))
        << "trial " << trial << " n=" << n << " k=" << k;
  }
}

TEST(FenwickSamplerTest, RestoresWeightsBetweenCohorts) {
  pop::FenwickSampler sampler({1.0, 2.0, 3.0, 4.0, 5.0});
  Rng a(3), b(3);
  const auto first = sampler.sample(3, a);
  const auto second = sampler.sample(3, b);  // same stream → same cohort
  EXPECT_EQ(first, second);
}

TEST(FenwickSamplerTest, SetFrequenciesMatchEnumeration) {
  // P({a,b}) = P(a)P(b | not a) + P(b)P(a | not b), enumerated exactly.
  const std::vector<Scalar> w = {1.0, 2.0, 3.0};
  const Scalar total = 6.0;
  std::map<std::pair<int, int>, Scalar> exact;
  for (int a = 0; a < 3; ++a) {
    for (int b = 0; b < 3; ++b) {
      if (a == b) continue;
      const std::pair<int, int> key{std::min(a, b), std::max(a, b)};
      exact[key] += (w[a] / total) * (w[b] / (total - w[a]));
    }
  }
  pop::FenwickSampler sampler(w);
  Rng rng(17);
  const std::size_t trials = 60000;
  std::map<std::pair<int, int>, std::size_t> count;
  for (std::size_t t = 0; t < trials; ++t) {
    auto ids = sampler.sample(2, rng);
    const int a = static_cast<int>(ids[0]), b = static_cast<int>(ids[1]);
    ++count[{std::min(a, b), std::max(a, b)}];
  }
  for (const auto& [key, p] : exact) {
    const Scalar observed =
        static_cast<Scalar>(count[key]) / static_cast<Scalar>(trials);
    EXPECT_NEAR(observed, p, 0.01)
        << "{" << key.first << "," << key.second << "}";
  }
}

TEST(FenwickSamplerTest, RejectsOversizedCohort) {
  pop::FenwickSampler sampler({1.0, 0.0, 2.0});
  Rng rng(1);
  EXPECT_NO_THROW(sampler.sample(2, rng));
  EXPECT_THROW(sampler.sample(3, rng), Error);  // only 2 positive weights
}

void put_one(pop::Slab& slab, std::uint32_t id,
             const std::vector<char>& blob) {
  slab.put({&id, 1}, {&blob, 1});
}

void slab_round_trip(pop::SlabConfig cfg) {
  pop::Slab slab(cfg);
  const std::vector<char> a = {'a', 'b', 'c'};
  const std::vector<char> b(1000, 'x');
  put_one(slab, 7, a);
  put_one(slab, 42, b);
  EXPECT_TRUE(slab.contains(7));
  EXPECT_FALSE(slab.contains(8));
  std::vector<char> out;
  slab.get(7, out);
  EXPECT_EQ(out, a);
  slab.get(42, out);
  EXPECT_EQ(out, b);

  const std::vector<char> a2 = {'z', 'z'};
  put_one(slab, 7, a2);  // rewrite
  slab.get(7, out);
  EXPECT_EQ(out, a2);
  EXPECT_EQ(slab.num_entries(), 2u);
  EXPECT_GE(slab.peak_bytes(), slab.bytes() > 0 ? 1u : 0u);
  EXPECT_EQ(slab.bytes_written(), a.size() + b.size() + a2.size());
  slab.clear();
  EXPECT_EQ(slab.num_entries(), 0u);
  EXPECT_FALSE(slab.contains(7));
}

TEST(SlabTest, MemoryBackendRoundTrip) {
  slab_round_trip(pop::SlabConfig{});
}

TEST(SlabTest, FileBackendRoundTrip) {
  pop::SlabConfig cfg;
  cfg.backend = pop::SlabConfig::Backend::kFile;
  cfg.path = ::testing::TempDir() + "hfl_pop_slab_test.bin";
  slab_round_trip(cfg);
  std::remove(cfg.path.c_str());
}

struct PopFixture {
  data::TrainTest dataset;
  fl::Topology topo{fl::Topology::uniform(2, 4)};  // 2 edges × 4 workers
  data::Partition partition;
  nn::ModelFactory factory;
  fl::RunConfig cfg;

  PopFixture() {
    Rng rng(3);
    data::SyntheticSpec spec;
    spec.sample_shape = {1, 2, 2};
    spec.num_classes = 2;
    spec.train_size = 64;
    spec.test_size = 16;
    dataset = data::make_synthetic(rng, spec);
    partition = data::partition_iid(dataset.train, topo.num_workers(), rng);
    factory = nn::logistic_regression({1, 2, 2}, 2);
    cfg.total_iterations = 8;
    cfg.tau = 2;
    cfg.pi = 2;
    cfg.batch_size = 4;
    cfg.seed = 5;
  }
};

TEST(PopulationTest, DescriptorsMatchDenseArithmetic) {
  PopFixture f;
  const fl::Population pop(f.topo, f.partition);
  ASSERT_EQ(pop.num_workers(), f.topo.num_workers());
  std::size_t total = 0;
  std::vector<std::size_t> per_edge(f.topo.num_edges(), 0);
  for (std::size_t w = 0; w < f.topo.num_workers(); ++w) {
    total += f.partition[w].size();
    per_edge[f.topo.edge_of_worker(w)] += f.partition[w].size();
  }
  for (std::size_t w = 0; w < pop.num_workers(); ++w) {
    EXPECT_EQ(pop.edge_of(w), f.topo.edge_of_worker(w));
    EXPECT_EQ(pop.num_samples(w), f.partition[w].size());
    EXPECT_EQ(pop.weight_in_edge(w),
              static_cast<Scalar>(f.partition[w].size()) /
                  static_cast<Scalar>(per_edge[f.topo.edge_of_worker(w)]));
    EXPECT_EQ(pop.weight_global(w),
              static_cast<Scalar>(f.partition[w].size()) /
                  static_cast<Scalar>(total));
  }
  const std::vector<Scalar> base = pop.base_weights();
  ASSERT_EQ(base.size(), pop.num_workers());
  for (std::size_t w = 0; w < base.size(); ++w) {
    EXPECT_EQ(base[w], static_cast<Scalar>(f.partition[w].size()));
  }
}

sim::FaultConfig zoo_config(int which) {
  sim::FaultConfig fc;
  fc.seed = 100 + which;
  switch (which) {
    case 0:
      fc.dropout.prob = 0.3;
      break;
    case 1:
      fc.churn.p_fail = 0.2;
      fc.churn.p_recover = 0.6;
      fc.churn.p_start_down = 0.25;
      break;
    case 2:
      fc.straggler.fraction = 0.4;
      fc.straggler.slowdown = 2.0;
      fc.straggler.jitter = 0.5;
      fc.straggler.deadline_slowdown = 2.5;
      break;
    case 3:
      fc.link.loss_prob = 0.35;
      fc.link.max_retries = 2;
      break;
    case 4:
      fc.edge_outage.prob = 0.3;
      break;
    default:  // everything at once
      fc.dropout.prob = 0.15;
      fc.churn.p_fail = 0.1;
      fc.churn.p_recover = 0.7;
      fc.churn.p_start_down = 0.1;
      fc.straggler.fraction = 0.3;
      fc.straggler.slowdown = 1.8;
      fc.straggler.jitter = 0.4;
      fc.straggler.deadline_slowdown = 2.2;
      fc.link.loss_prob = 0.2;
      fc.link.max_retries = 3;
      fc.edge_outage.prob = 0.2;
      break;
  }
  return fc;
}

TEST(SparseFaultPlanTest, MatchesDensePlanOverModelZoo) {
  PopFixture f;
  fl::RunConfig cfg = f.cfg;
  cfg.total_iterations = 12;  // 6 intervals
  for (int which = 0; which < 6; ++which) {
    const sim::FaultConfig fc = zoo_config(which);
    const sim::FaultPlan dense(f.topo, cfg, fc);
    const sim::SparseFaultPlan sparse(f.topo.num_workers(),
                                      f.topo.num_edges(), fc);
    for (std::size_t k = 1; k <= dense.num_intervals(); ++k) {
      for (std::size_t w = 0; w < f.topo.num_workers(); ++w) {
        EXPECT_EQ(sparse.worker_available(k, w), dense.worker_available(k, w))
            << "zoo " << which << " k=" << k << " w=" << w;
      }
      for (std::size_t e = 0; e < f.topo.num_edges(); ++e) {
        EXPECT_EQ(sparse.edge_available(k, e), dense.edge_available(k, e))
            << "zoo " << which << " k=" << k << " e=" << e;
      }
    }
  }
}

TEST(SparseFaultPlanTest, QueryOrderIndependent) {
  PopFixture f;
  fl::RunConfig cfg = f.cfg;
  cfg.total_iterations = 12;
  const sim::FaultConfig fc = zoo_config(5);
  const sim::FaultPlan dense(f.topo, cfg, fc);
  const sim::SparseFaultPlan sparse(f.topo.num_workers(), f.topo.num_edges(),
                                    fc);
  // Scrambled and backward queries must replay to the same answers.
  Rng order(9);
  for (int q = 0; q < 400; ++q) {
    const std::size_t k = 1 + order.uniform_index(dense.num_intervals());
    const std::size_t w = order.uniform_index(f.topo.num_workers());
    EXPECT_EQ(sparse.worker_available(k, w), dense.worker_available(k, w))
        << "k=" << k << " w=" << w;
  }
  for (int q = 0; q < 100; ++q) {
    const std::size_t k = 1 + order.uniform_index(dense.num_intervals());
    const std::size_t e = order.uniform_index(f.topo.num_edges());
    EXPECT_EQ(sparse.edge_available(k, e), dense.edge_available(k, e));
  }
}

TEST(SparseFaultPlanTest, ReportsAbsentPolicy) {
  sim::FaultConfig fc;
  fc.dropout.prob = 0.2;
  fc.absent_policy = fl::AbsentPolicy::kDecay;
  fc.absent_decay = 0.25;
  const sim::SparseFaultPlan sparse(4, 2, fc);
  EXPECT_EQ(sparse.absent_policy(), fl::AbsentPolicy::kDecay);
  EXPECT_EQ(sparse.absent_decay(), 0.25);
}

pop::CohortStore make_store(const PopFixture& f, std::size_t cohort,
                            bool with_replacement = false) {
  pop::VirtConfig vc;
  vc.cohort_size = cohort;
  vc.with_replacement = with_replacement;
  return pop::CohortStore(f.factory, f.dataset, f.partition, f.topo, f.cfg,
                          vc);
}

TEST(CohortStoreTest, CohortDrawsDeterministicPerRound) {
  PopFixture f;
  auto a = make_store(f, 3);
  auto b = make_store(f, 3);
  std::vector<fl::WorkerId> ids_a, ids_b;
  std::vector<Scalar> mult_a, mult_b;
  // Query rounds out of order on one store: draws depend on (seed, k) only.
  for (const std::size_t k : {3u, 1u, 2u}) {
    a.sample_cohort(k, ids_a, mult_a);
    const auto first = ids_a;
    b.sample_cohort(k, ids_b, mult_b);
    EXPECT_EQ(ids_a, ids_b) << "k=" << k;
    a.sample_cohort(k, ids_a, mult_a);
    EXPECT_EQ(ids_a, first) << "re-draw k=" << k;
    EXPECT_TRUE(std::is_sorted(ids_a.begin(), ids_a.end()));
    EXPECT_EQ(std::adjacent_find(ids_a.begin(), ids_a.end()), ids_a.end());
    EXPECT_EQ(ids_a.size(), 3u);  // WOR: exactly cohort_size distinct ids
    for (const Scalar m : mult_a) EXPECT_EQ(m, 1.0);
  }
}

TEST(CohortStoreTest, WithReplacementMultiplicitiesSumToCohortSize) {
  PopFixture f;
  auto store = make_store(f, 6, /*with_replacement=*/true);
  std::vector<fl::WorkerId> ids;
  std::vector<Scalar> mult;
  for (std::size_t k = 1; k <= 5; ++k) {
    store.sample_cohort(k, ids, mult);
    ASSERT_EQ(ids.size(), mult.size());
    EXPECT_TRUE(std::is_sorted(ids.begin(), ids.end()));
    Scalar total = 0.0;
    for (const Scalar m : mult) {
      EXPECT_GE(m, 1.0);
      total += m;
    }
    EXPECT_EQ(total, 6.0);
  }
}

void expect_same_batcher(const data::Batcher& a, const data::Batcher& b) {
  EXPECT_TRUE(std::ranges::equal(a.indices(), b.indices()));
  EXPECT_EQ(a.cursor(), b.cursor());
  const RngState ra = a.rng_state();
  const RngState rb = b.rng_state();
  EXPECT_TRUE(std::ranges::equal(ra.s, rb.s));
  EXPECT_EQ(ra.fork_counter, rb.fork_counter);
  EXPECT_EQ(a.batch_size(), b.batch_size());
}

// Field-for-field equality of two materialized states of the same worker,
// then the same behaviour afterwards: both batch streams resume at the same
// position, and a gradient evaluation computes (it must not consume a
// prefetch neither state is owed) the same result on the same batch.
void expect_same_worker(fl::WorkerState& a, fl::WorkerState& b) {
  EXPECT_EQ(a.id, b.id);
  EXPECT_EQ(a.edge, b.edge);
  EXPECT_EQ(a.num_samples, b.num_samples);
  EXPECT_EQ(a.weight_in_edge, b.weight_in_edge);
  EXPECT_EQ(a.weight_global, b.weight_global);
  EXPECT_EQ(a.x, b.x);
  EXPECT_EQ(a.y, b.y);
  EXPECT_EQ(a.v, b.v);
  EXPECT_EQ(a.grad, b.grad);
  EXPECT_EQ(a.last_loss, b.last_loss);
  EXPECT_EQ(a.sum_grad, b.sum_grad);
  EXPECT_EQ(a.sum_y, b.sum_y);
  EXPECT_EQ(a.sum_v, b.sum_v);
  EXPECT_EQ(a.extra, b.extra);
  ASSERT_TRUE(a.model && a.batcher && a.aux_batcher);
  expect_same_batcher(*a.batcher, *b.batcher);
  expect_same_batcher(*a.aux_batcher, *b.aux_batcher);

  const Scalar loss_a = a.compute_gradient(a.x);
  const Scalar loss_b = b.compute_gradient(b.x);
  EXPECT_EQ(loss_a, loss_b);
  EXPECT_EQ(a.grad, b.grad);
  const Tensor *ax = nullptr, *bx = nullptr;
  const std::vector<std::size_t>*ay = nullptr, *by = nullptr;
  for (int d = 0; d < 4; ++d) {
    a.draw_batch(ax, ay);
    b.draw_batch(bx, by);
    EXPECT_EQ(*ay, *by) << "post-restore draw " << d;
    EXPECT_EQ(ax->data(), bx->data()) << "post-restore draw " << d;
  }
  Vec probe_a, probe_b;
  EXPECT_EQ(a.probe_gradient(a.y, probe_a), b.probe_gradient(b.y, probe_b));
  EXPECT_EQ(probe_a, probe_b);
}

TEST(CohortStoreTest, SpillRestoreRoundTripsEveryMutableField) {
  PopFixture f;
  auto rotated = make_store(f, 2);
  auto pinned = make_store(f, 2);
  const Vec x0(f.factory()->num_params(), 0.5);
  rotated.begin_run(x0);
  pinned.begin_run(x0);
  rotated.set_cohort({0, 2});
  pinned.set_cohort({0, 2});

  // Identical mutations on both stores' worker 0: momentum-ish vectors,
  // algorithm extras, and consumed batch draws.
  const auto mutate = [](fl::WorkerState& w) {
    const Tensor* bx = nullptr;
    const std::vector<std::size_t>* by = nullptr;
    for (int d = 0; d < 3; ++d) w.draw_batch(bx, by);
    for (std::size_t i = 0; i < w.x.size(); ++i) {
      w.x[i] += 0.25 * static_cast<Scalar>(i);
      w.v[i] = 1.0 / static_cast<Scalar>(i + 1);
      w.sum_grad[i] = -0.125 * static_cast<Scalar>(i);
    }
    w.last_loss = 0.625;
    w.extra["anchor"] = Vec{1.0, 2.0, 3.0};
    w.extra["momentum_aux"] = Vec(5, -0.5);
  };
  mutate(rotated.workers()[0]);
  mutate(pinned.workers()[0]);

  rotated.set_cohort({2});     // spill worker 0
  EXPECT_FALSE(rotated.workers().is_materialized(0));
  EXPECT_EQ(rotated.num_materialized(), 1u);
  rotated.set_cohort({0, 2});  // restore it
  ASSERT_TRUE(rotated.workers().is_materialized(0));

  expect_same_worker(rotated.workers()[0], pinned.workers()[0]);
}

TEST(CohortStoreTest, FreshMaterializationMatchesAcrossStores) {
  PopFixture f;
  auto a = make_store(f, 2);
  auto b = make_store(f, 2);
  const Vec x0(8, 0.125);
  a.begin_run(x0);
  b.begin_run(x0);
  a.set_cohort({1, 3});
  // Materialization order must not matter: store b meets worker 3 first.
  b.set_cohort({3});
  b.set_cohort({1, 3});
  for (const fl::WorkerId id : {1u, 3u}) {
    const data::Batcher& ba = *a.workers()[id].batcher;
    const data::Batcher& bb = *b.workers()[id].batcher;
    EXPECT_TRUE(std::ranges::equal(ba.indices(), bb.indices()))
        << "worker " << id;
    EXPECT_TRUE(std::ranges::equal(ba.rng_state().s, bb.rng_state().s))
        << "worker " << id;
  }
}

// 16:1 quantity skew: worker 0 holds 32 samples, every other worker 2, so a
// shell last held by worker 0 carries a much longer batcher index set.
constexpr fl::WorkerId kHeavy = 0;
constexpr fl::WorkerId kLight = 5;

void skew_partition(PopFixture& f) {
  f.partition.assign(f.topo.num_workers(), {});
  std::size_t next = 0;
  for (std::size_t w = 0; w < f.topo.num_workers(); ++w) {
    const std::size_t n = w == kHeavy ? 32 : 2;
    for (std::size_t k = 0; k < n; ++k) f.partition[w].push_back(next++);
  }
}

// Leaves everything a departing worker can carry in its state: consumed
// draws on both streams, distinct vectors, extras (Mime's per-worker anchor
// gradient among them) and a pending prefetched gradient.
void dirty_up(fl::WorkerState& w) {
  const Tensor* bx = nullptr;
  const std::vector<std::size_t>* by = nullptr;
  for (int d = 0; d < 5; ++d) w.draw_batch(bx, by);
  Vec probe;
  w.probe_gradient(w.x, probe);
  for (std::size_t i = 0; i < w.x.size(); ++i) {
    w.x[i] = 3.0 + static_cast<Scalar>(i);
    w.y[i] = -1.5;
    w.v[i] = 0.25;
    w.grad[i] = 2.0;
    w.sum_grad[i] = 4.0;
    w.sum_y[i] = -4.0;
    w.sum_v[i] = 8.0;
  }
  w.last_loss = 9.5;
  w.extra["mime_anchor_grad"] = Vec(w.x.size(), 7.0);
  w.extra["zz_scratch"] = Vec(3, 1.0);
  w.draw_batch(bx, by);
  w.deposit_gradient(w.x);
}

// The light worker's own history, applied identically on both stores.
void mutate_light(fl::WorkerState& w) {
  const Tensor* bx = nullptr;
  const std::vector<std::size_t>* by = nullptr;
  w.draw_batch(bx, by);
  for (std::size_t i = 0; i < w.x.size(); ++i) {
    w.x[i] -= 0.125 * static_cast<Scalar>(i);
    w.v[i] = 0.5;
  }
  w.last_loss = 1.25;
  w.extra["anchor"] = Vec(2, 0.75);
}

TEST(CohortStoreTest, RestoreIntoDirtyShellMatchesNeverRotated) {
  PopFixture f;
  skew_partition(f);
  auto rotated = make_store(f, 1);
  auto pinned = make_store(f, 1);
  const Vec x0(f.factory()->num_params(), 0.5);
  rotated.begin_run(x0);
  pinned.begin_run(x0);
  rotated.set_cohort({kLight});
  pinned.set_cohort({kLight});
  mutate_light(rotated.workers()[kLight]);
  mutate_light(pinned.workers()[kLight]);

  rotated.set_cohort({kHeavy});  // light spills; heavy takes its shell
  dirty_up(rotated.workers()[kHeavy]);
  rotated.set_cohort({kLight});  // heavy spills; light restores into it
  EXPECT_EQ(rotated.workers()[kLight].batcher->num_samples(), 2u);
  expect_same_worker(rotated.workers()[kLight], pinned.workers()[kLight]);
}

TEST(CohortStoreTest, FreshIntoDirtyShellMatchesNeverRotated) {
  PopFixture f;
  skew_partition(f);
  auto rotated = make_store(f, 1);
  auto pinned = make_store(f, 1);
  const Vec x0(f.factory()->num_params(), 0.5);
  rotated.begin_run(x0);
  pinned.begin_run(x0);
  rotated.set_cohort({kHeavy});
  dirty_up(rotated.workers()[kHeavy]);
  // Light is a first-timer on both stores; on `rotated` it is created in
  // the shell the heavy worker just left.
  EXPECT_EQ(rotated.set_cohort({kLight}), std::vector<fl::WorkerId>{kLight});
  EXPECT_EQ(pinned.set_cohort({kLight}), std::vector<fl::WorkerId>{kLight});
  EXPECT_TRUE(rotated.workers()[kLight].extra.empty());
  expect_same_worker(rotated.workers()[kLight], pinned.workers()[kLight]);
}

TEST(CohortStoreTest, SteadyStateTurnoverCallsNoFactory) {
  PopFixture f;
  skew_partition(f);
  auto calls = std::make_shared<std::size_t>(0);
  const nn::ModelFactory inner = f.factory;
  f.factory = [calls, inner] {
    ++*calls;
    return inner();
  };
  ThreadPool pool(4);
  auto store = make_store(f, 3);
  store.attach_pool(&pool);
  store.begin_run(Vec(inner()->num_params(), 0.25));
  std::vector<fl::WorkerId> ids;
  std::vector<Scalar> mult;
  store.sample_cohort(1, ids, mult);
  store.set_cohort(ids);
  EXPECT_EQ(*calls, 3u);  // warm-up: one model per cohort slot
  for (std::size_t k = 2; k <= 24; ++k) {
    store.sample_cohort(k, ids, mult);
    store.set_cohort(ids);
    for (fl::WorkerState& w : store.workers()) {
      w.compute_gradient(w.x);  // consumes a stayer's earlier deposit
      dirty_up(w);
    }
  }
  EXPECT_EQ(*calls, 3u) << "turnover after warm-up built a model";
  EXPECT_EQ(store.peak_materialized(), 3u);
  // A new run reuses the previous run's shells.
  store.begin_run(Vec(inner()->num_params(), 0.25));
  store.sample_cohort(1, ids, mult);
  store.set_cohort(ids);
  EXPECT_EQ(*calls, 3u);
}

// ---- slab failure paths ----------------------------------------------------

std::string slab_path(const char* name) {
  return ::testing::TempDir() + name;
}

void expect_check_failure(const std::function<void()>& fn,
                          const std::string& message) {
  try {
    fn();
    ADD_FAILURE() << "expected an HFL_CHECK failure: " << message;
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find(message), std::string::npos)
        << e.what();
  }
}

TEST(SlabTest, TruncatedFileFailsTheRead) {
  pop::SlabConfig cfg;
  cfg.backend = pop::SlabConfig::Backend::kFile;
  cfg.path = slab_path("hfl_pop_slab_truncated.bin");
  pop::Slab slab(cfg);
  const std::vector<std::uint32_t> ids = {3, 9};
  const std::vector<std::vector<char>> blobs = {std::vector<char>(100, 'a'),
                                                std::vector<char>(50, 'b')};
  slab.put(ids, blobs);
  std::vector<char> out;
  slab.get(9, out);
  EXPECT_EQ(out, blobs[1]);
  std::filesystem::resize_file(cfg.path, 120);  // cuts blob 9 short
  slab.get(3, out);
  EXPECT_EQ(out, blobs[0]);
  expect_check_failure([&] { slab.get(9, out); }, "slab spill read failed");
  std::filesystem::remove(cfg.path);
}

TEST(SlabTest, FailedWriteThrows) {
  if (!std::filesystem::exists("/dev/full")) {
    GTEST_SKIP() << "no /dev/full on this host";
  }
  pop::SlabConfig cfg;
  cfg.backend = pop::SlabConfig::Backend::kFile;
  cfg.path = "/dev/full";  // every write fails with ENOSPC
  pop::Slab slab(cfg);
  expect_check_failure([&] { put_one(slab, 1, std::vector<char>(64, 'x')); },
                       "slab spill write failed");
}

// Spills a cohort to a file slab, cuts the spill file, then restores: the
// restore must throw instead of decoding garbage, serially and from the
// parallel restore tasks alike.
void truncated_restore_throws(ThreadPool* pool, std::uintmax_t keep_bytes) {
  PopFixture f;
  pop::VirtConfig vc;
  vc.cohort_size = 4;
  vc.slab.backend = pop::SlabConfig::Backend::kFile;
  vc.slab.path = slab_path("hfl_pop_store_truncated.bin");
  pop::CohortStore store(f.factory, f.dataset, f.partition, f.topo, f.cfg,
                         vc);
  store.attach_pool(pool);
  store.begin_run(Vec(f.factory()->num_params(), 0.5));
  store.set_cohort({0, 1, 2, 3});
  store.set_cohort({4, 5, 6, 7});  // spills 0..3
  ASSERT_EQ(store.slab().num_entries(), 4u);
  std::filesystem::resize_file(vc.slab.path, keep_bytes);
  // Keep 4..7 materialized: the turnover only reads (a spill would append
  // past the cut and refill the hole with zeros).
  expect_check_failure([&] { store.set_cohort({0, 1, 2, 3, 4, 5, 6, 7}); },
                       "slab spill read failed");
  std::filesystem::remove(vc.slab.path);
}

TEST(CohortStoreTest, TruncatedSpillFileFailsTheRestore) {
  truncated_restore_throws(nullptr, 0);
}

TEST(CohortStoreTest, ShortReadInParallelRestoreThrows) {
  ThreadPool pool(4);
  // Keep the first blob whole and part of the second: one task reads in
  // full, the others come up short.
  PopFixture f;
  auto probe = make_store(f, 1);
  probe.begin_run(Vec(f.factory()->num_params(), 0.5));
  probe.set_cohort({0});
  probe.set_cohort({1});
  const std::uint64_t blob = probe.slab().bytes();
  truncated_restore_throws(&pool, blob + blob / 2);
}

}  // namespace
}  // namespace hfl
