// Harness self-tests: the attribution arithmetic (median, interval unions,
// cohort windows, reconciliation) and the wrappers' forwarding of every
// virtual. Run with `python3 perfbench/run.py --selftest` (builds this
// target) or directly from the build tree. Exits non-zero on any failure.
#include <cmath>
#include <cstdio>
#include <string>

#include "harness.h"
#include "src/algs/registry.h"
#include "src/common/thread_pool.h"
#include "src/data/partitioner.h"
#include "src/data/synthetic.h"
#include "src/nn/models.h"
#include "src/pop/cohort_store.h"
#include "src/sim/sparse_fault_plan.h"
#include "stats.h"
#include "wrappers.h"

namespace {

using namespace hfl;
using namespace perfbench;

int g_failures = 0;

#define EXPECT(cond)                                                   \
  do {                                                                 \
    if (!(cond)) {                                                     \
      std::fprintf(stderr, "%s:%d: EXPECT(%s) failed\n", __FILE__,     \
                   __LINE__, #cond);                                   \
      ++g_failures;                                                    \
    }                                                                  \
  } while (0)

bool near(double a, double b) { return std::fabs(a - b) < 1e-12; }

constexpr std::int64_t kSec = 1000000000;

void test_median() {
  EXPECT(median({}) == 0.0);
  EXPECT(median({3.0}) == 3.0);
  EXPECT(median({5.0, 1.0, 3.0}) == 3.0);
  EXPECT(median({4.0, 1.0, 3.0, 2.0}) == 2.5);
}

void test_union() {
  EXPECT(union_seconds({}) == 0.0);
  // Disjoint: 1 + 2.
  EXPECT(near(union_seconds({{0, kSec}, {5 * kSec, 7 * kSec}}), 3.0));
  // Overlapping and nested calls (concurrent pool tasks) count once: [0,4].
  EXPECT(near(union_seconds({{2 * kSec, 4 * kSec},
                             {0, 3 * kSec},
                             {kSec, 2 * kSec}}),
              4.0));
  // Touching intervals merge.
  EXPECT(near(union_seconds({{0, kSec}, {kSec, 2 * kSec}}), 2.0));
}

void test_cohort_windows() {
  // Two iterations: gradient points at 0..1 and 2..3 then steps from 4;
  // gradient points at 10..11 then steps from 12. A trailing gradient point
  // with no step after it is dropped.
  const std::vector<Interval> gp = {{kSec, 2 * kSec}, {0, kSec},
                                    {2 * kSec, 3 * kSec}, {10 * kSec, 11 * kSec},
                                    {20 * kSec, 21 * kSec}};
  const std::vector<Interval> steps = {{4 * kSec, 6 * kSec},
                                       {5 * kSec, 9 * kSec},
                                       {12 * kSec, 13 * kSec}};
  const std::vector<Interval> w = cohort_windows(gp, steps);
  EXPECT(w.size() == 2);
  if (w.size() == 2) {
    EXPECT(w[0].t0 == 0 && w[0].t1 == 4 * kSec);
    EXPECT(w[1].t0 == 10 * kSec && w[1].t1 == 12 * kSec);
  }
  EXPECT(cohort_windows({}, steps).empty());
}

void test_reconcile() {
  // run 10 s; layer A [0,2]+[1,3] -> 3 s; layer B [2,4] overlaps A by 1 s;
  // 1.5 s of serial evaluation.
  const Reconciliation r = reconcile(
      10.0, {{{0, 2 * kSec}, {kSec, 3 * kSec}}, {{2 * kSec, 4 * kSec}}}, 1.5);
  EXPECT(r.self_s.size() == 2);
  EXPECT(near(r.self_s[0], 3.0));
  EXPECT(near(r.self_s[1], 2.0));
  EXPECT(near(r.covered_s, 5.5));
  EXPECT(near(r.overlap_s, 1.0));
  EXPECT(near(r.residual_s, 4.5));
  EXPECT(near(r.self_s[0] + r.self_s[1] + 1.5 - r.overlap_s + r.residual_s,
              10.0));
}

// Returns non-default answers from every query and counts every hook, so a
// missed forward shows up as a default answer or a zero count.
class ProbeAlgorithm final : public fl::Algorithm {
 public:
  std::string name() const override { return "probe"; }
  bool three_tier() const override { return false; }
  void init(fl::Context&) override { ++calls[0]; }
  void init_worker(fl::Context&, fl::WorkerState&) override { ++calls[1]; }
  void local_step(fl::Context&, fl::WorkerState&) override { ++calls[2]; }
  bool local_gradient_prefetchable() const override { return true; }
  const Vec& local_gradient_point(const fl::WorkerState& w) const override {
    ++calls[3];
    return w.y;
  }
  void edge_sync(fl::Context&, fl::EdgeState&, std::size_t) override {
    ++calls[4];
  }
  bool edge_sync_reentrant() const override { return false; }
  bool probes_population() const override { return true; }
  void cloud_sync(fl::Context&, std::size_t) override { ++calls[5]; }
  void absent_sync(fl::Context&, fl::WorkerState&, std::size_t) override {
    ++calls[6];
  }
  void stale_sync(fl::Context&, fl::WorkerState&, std::size_t) override {
    ++calls[7];
  }
  mutable int calls[8] = {};
};

void test_algorithm_forwarding() {
  ProbeAlgorithm inner;
  Recorder rec;
  TimedAlgorithm alg(inner, rec);
  EXPECT(alg.name() == "probe");
  EXPECT(!alg.three_tier());
  EXPECT(alg.local_gradient_prefetchable());
  EXPECT(!alg.edge_sync_reentrant());
  EXPECT(alg.probes_population());
  fl::Context ctx;
  fl::WorkerState w;
  fl::EdgeState e;
  alg.init(ctx);
  alg.init_worker(ctx, w);
  EXPECT(&alg.local_gradient_point(w) == &w.y);
  alg.local_step(ctx, w);
  alg.edge_sync(ctx, e, 1);
  alg.cloud_sync(ctx, 1);
  alg.absent_sync(ctx, w, 1);
  alg.stale_sync(ctx, w, 2);
  for (const int c : inner.calls) EXPECT(c == 1);
  for (const Hook h : {Hook::kInitWorker, Hook::kGradientPoint,
                       Hook::kLocalStep, Hook::kEdgeSync, Hook::kCloudSync,
                       Hook::kAbsentSync, Hook::kStaleSync}) {
    EXPECT(rec.count(h) == 1);
  }
}

class ProbeProvider final : public fl::CohortProvider {
 public:
  std::size_t population() const override { return 7; }
  bool sampling() const override { return true; }
  std::vector<Scalar> base_weights() const override { return {2.0}; }
  void begin_run(const Vec& x0) override { run_x0 = x0.size(); }
  void sample_cohort(std::size_t k, std::vector<fl::WorkerId>& ids,
                     std::vector<Scalar>& mult) override {
    ids = {static_cast<fl::WorkerId>(k)};
    mult = {3.0};
  }
  std::vector<fl::WorkerId> set_cohort(
      const std::vector<fl::WorkerId>& ids) override {
    return ids;
  }
  fl::WorkerSet& workers() override { return view; }
  void attach_pool(ThreadPool* p) override { pool = p; }
  void begin_interval(std::size_t k) override { interval = k; }
  void set_absent_replay(fl::AbsentPolicy p, Scalar d) override {
    policy = p;
    decay = d;
  }
  fl::WorkerSet view;
  std::size_t run_x0 = 0;
  ThreadPool* pool = nullptr;
  std::size_t interval = 0;
  fl::AbsentPolicy policy = fl::AbsentPolicy::kHold;
  Scalar decay = 0;
};

void test_provider_forwarding() {
  ProbeProvider inner;
  Recorder rec;
  TimedProvider p(inner, rec);
  EXPECT(p.population() == 7);
  EXPECT(p.sampling());
  EXPECT(p.base_weights() == std::vector<Scalar>{2.0});
  p.begin_run(Vec(5, 0.0));
  EXPECT(inner.run_x0 == 5);
  std::vector<fl::WorkerId> ids;
  std::vector<Scalar> mult;
  p.sample_cohort(4, ids, mult);
  EXPECT(ids == std::vector<fl::WorkerId>{4} && mult == std::vector<Scalar>{3});
  EXPECT(p.set_cohort({1, 2}) == (std::vector<fl::WorkerId>{1, 2}));
  EXPECT(&p.workers() == &inner.view);
  ThreadPool pool(1);
  p.attach_pool(&pool);
  EXPECT(inner.pool == &pool);
  p.begin_interval(9);
  EXPECT(inner.interval == 9);
  p.set_absent_replay(fl::AbsentPolicy::kDecay, 0.25);
  EXPECT(inner.policy == fl::AbsentPolicy::kDecay && inner.decay == 0.25);
  EXPECT(rec.count(Hook::kSample) == 1 && rec.count(Hook::kTurnover) == 1);
}

class ProbeOracle final : public fl::AvailabilityOracle {
 public:
  bool worker_available(std::size_t k, std::size_t w) const override {
    return (k + w) % 2 == 0;
  }
  bool edge_available(std::size_t k, std::size_t e) const override {
    return (k + e) % 3 == 0;
  }
  fl::AbsentPolicy absent_policy() const override {
    return fl::AbsentPolicy::kReset;
  }
  Scalar absent_decay() const override { return 0.125; }
};

void test_oracle_forwarding() {
  ProbeOracle inner;
  Recorder rec;
  TimedOracle o(inner, rec);
  EXPECT(o.worker_available(1, 1) && !o.worker_available(1, 2));
  EXPECT(o.edge_available(1, 2) && !o.edge_available(1, 1));
  EXPECT(o.absent_policy() == fl::AbsentPolicy::kReset);
  EXPECT(o.absent_decay() == 0.125);
  EXPECT(rec.count(Hook::kOracle) == 4);
}

// End to end: a sampled kDecay population run through all three wrappers on
// a 4-thread pool is bit-identical to the unwrapped run.
void test_wrapped_run_identical() {
  Rng rng(5);
  data::SyntheticSpec spec;
  spec.sample_shape = {1, 2, 2};
  spec.num_classes = 2;
  spec.train_size = 1024;
  spec.test_size = 200;
  spec.coarse = 2;
  const data::TrainTest data = data::make_synthetic(rng, spec);
  const fl::Topology topo = fl::Topology::uniform(8, 32);
  const data::Partition part =
      data::partition_iid(data.train, topo.num_workers(), rng);
  const nn::ModelFactory factory = nn::logistic_regression({1, 2, 2}, 2);
  fl::RunConfig cfg;
  cfg.total_iterations = 16;
  cfg.tau = 2;
  cfg.pi = 2;
  cfg.batch_size = 2;
  cfg.num_threads = 4;
  sim::FaultConfig fc;
  fc.dropout.prob = 0.2;
  fc.absent_policy = fl::AbsentPolicy::kDecay;
  const sim::SparseFaultPlan plan(topo.num_workers(), topo.num_edges(), fc);
  pop::VirtConfig v;
  v.cohort_size = 48;

  const auto one_run = [&](bool wrapped) {
    fl::Engine engine(factory, data, part, topo, cfg);
    pop::CohortStore store(factory, data, engine.partition(), topo, cfg, v);
    auto alg = algs::make_algorithm("HierAdMo");
    Recorder rec;
    TimedAlgorithm timed_alg(*alg, rec);
    TimedProvider timed_store(store, rec);
    TimedOracle timed_oracle(plan, rec);
    engine.set_cohort_provider(wrapped ? static_cast<fl::CohortProvider*>(
                                             &timed_store)
                                       : &store);
    const fl::RunResult r =
        wrapped ? engine.run_with_oracle(timed_alg, &timed_oracle)
                : engine.run_with_oracle(*alg, &plan);
    if (wrapped) {
      EXPECT(rec.count(Hook::kLocalStep) > 0);
      EXPECT(rec.count(Hook::kGradientPoint) > 0);  // fused path still on
      EXPECT(rec.count(Hook::kOracle) > 0);
    }
    return result_hash(r);
  };
  EXPECT(one_run(false) == one_run(true));
}

}  // namespace

int main() {
  test_median();
  test_union();
  test_cohort_windows();
  test_reconcile();
  test_algorithm_forwarding();
  test_provider_forwarding();
  test_oracle_forwarding();
  test_wrapped_run_identical();
  if (g_failures != 0) {
    std::fprintf(stderr, "perfbench_selftest: %d failure(s)\n", g_failures);
    return 1;
  }
  std::printf("perfbench_selftest: all checks passed\n");
  return 0;
}
