// Event-driven engine tests (src/evt/), mirroring parallel_sync_test.cpp.
//
// The two load-bearing contracts:
//   1. Sync bit-identity: evt::AsyncEngine with the sync policy reproduces
//      fl::Engine exactly — curve, final parameters, participation trace and
//      obs counters — for every registry algorithm, with and without a fault
//      schedule, at any thread count. The sync policy is the correctness
//      anchor of the whole subsystem.
//   2. Event-mode determinism: semi_async and async runs are pure functions
//      of the seeds. Identical seeds give identical curves, parameters and
//      staleness metrics at 1 and 4 threads, with and without faults.
//
// Also covered: the deterministic (time, seq) event queue, the async
// RunConfig validation rules, the stale_sync default policy, and
// Gauge::set_max.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/algs/registry.h"
#include "src/common/errors.h"
#include "src/data/partitioner.h"
#include "src/data/synthetic.h"
#include "src/evt/async_engine.h"
#include "src/evt/event_queue.h"
#include "src/nn/models.h"
#include "src/obs/comm.h"
#include "src/obs/registry.h"
#include "src/sim/fault_plan.h"

namespace hfl::evt {
namespace {

// ---------------------------------------------------------------------------
// EventQueue
// ---------------------------------------------------------------------------

TEST(EventQueueTest, PopsByTimeThenPushOrder) {
  EventQueue q;
  q.push({2.0, 0, EventType::kCloudSync, 10, 0, false, false});
  q.push({1.0, 0, EventType::kWorkerReady, 11, 0, false, false});
  q.push({1.0, 0, EventType::kWorkerReady, 12, 0, false, false});
  q.push({0.5, 0, EventType::kFault, 13, 0, false, false});
  EXPECT_EQ(q.size(), 4u);
  EXPECT_EQ(q.total_pushed(), 4u);

  // Earliest first; equal times resolve in push order (stable seq stamps).
  EXPECT_EQ(q.pop().entity, 13u);
  EXPECT_DOUBLE_EQ(q.now(), 0.5);
  EXPECT_EQ(q.pop().entity, 11u);
  EXPECT_EQ(q.pop().entity, 12u);
  EXPECT_EQ(q.pop().entity, 10u);
  EXPECT_DOUBLE_EQ(q.now(), 2.0);
  EXPECT_TRUE(q.empty());
  EXPECT_THROW(q.pop(), Error);
}

TEST(EventQueueTest, RejectsEventsScheduledInThePast) {
  EventQueue q;
  q.push({1.0, 0, EventType::kWorkerReady, 0, 0, false, false});
  (void)q.pop();  // now() = 1.0
  EXPECT_THROW(
      q.push({0.5, 0, EventType::kWorkerReady, 0, 0, false, false}), Error);
  // Exactly "now" is legal (zero-latency follow-up events).
  q.push({1.0, 0, EventType::kWorkerReady, 0, 0, false, false});
  EXPECT_EQ(q.size(), 1u);
}

// ---------------------------------------------------------------------------
// Gauge::set_max
// ---------------------------------------------------------------------------

TEST(ObsGaugeTest, SetMaxIsMonotone) {
  obs::set_enabled(true);
  obs::Gauge g;
  g.set_max(3.0);
  EXPECT_DOUBLE_EQ(g.value(), 3.0);
  g.set_max(1.0);  // lower values never win
  EXPECT_DOUBLE_EQ(g.value(), 3.0);
  g.set_max(5.0);
  EXPECT_DOUBLE_EQ(g.value(), 5.0);
  obs::set_enabled(false);
  g.set_max(9.0);  // disabled telemetry records nothing
  EXPECT_DOUBLE_EQ(g.value(), 5.0);
}

// ---------------------------------------------------------------------------
// RunConfig validation of the async fields
// ---------------------------------------------------------------------------

fl::RunConfig async_base(fl::ExecPolicy policy) {
  fl::RunConfig cfg;
  cfg.policy = policy;
  cfg.batched = false;
  if (policy == fl::ExecPolicy::kSemiAsync) cfg.semi_async_deadline_s = 1.0;
  return cfg;
}

TEST(AsyncConfigValidationTest, RejectsInconsistentAsyncSettings) {
  {
    fl::RunConfig cfg = async_base(fl::ExecPolicy::kSemiAsync);
    cfg.semi_async_deadline_s = 0.0;  // semi_async needs a deadline
    EXPECT_THROW(cfg.validate(), Error);
  }
  {
    fl::RunConfig cfg;  // sync
    cfg.semi_async_deadline_s = 1.0;  // deadline is semi_async-only
    EXPECT_THROW(cfg.validate(), Error);
  }
  {
    fl::RunConfig cfg = async_base(fl::ExecPolicy::kAsync);
    cfg.max_staleness = -1;
    EXPECT_THROW(cfg.validate(), Error);
  }
  {
    fl::RunConfig cfg = async_base(fl::ExecPolicy::kAsync);
    cfg.staleness_decay = 0.0;  // must be in (0, 1]
    EXPECT_THROW(cfg.validate(), Error);
    cfg.staleness_decay = 1.5;
    EXPECT_THROW(cfg.validate(), Error);
  }
  {
    fl::RunConfig cfg = async_base(fl::ExecPolicy::kAsync);
    cfg.stale_momentum_decay = 1.5;  // must be in [0, 1]
    EXPECT_THROW(cfg.validate(), Error);
  }
  {
    fl::RunConfig cfg = async_base(fl::ExecPolicy::kAsync);
    cfg.batched = true;  // the cohort path is barrier-shaped
    EXPECT_THROW(cfg.validate(), Error);
  }
  {
    fl::RunConfig cfg = async_base(fl::ExecPolicy::kSemiAsync);
    cfg.eval_every = 2;  // iteration-indexed cadence has no event meaning
    EXPECT_THROW(cfg.validate(), Error);
  }
  EXPECT_NO_THROW(async_base(fl::ExecPolicy::kSemiAsync).validate());
  EXPECT_NO_THROW(async_base(fl::ExecPolicy::kAsync).validate());
}

// ---------------------------------------------------------------------------
// Shared fixture (same shape as parallel_sync_test.cpp)
// ---------------------------------------------------------------------------

struct Fixture {
  data::TrainTest dataset;
  fl::Topology topo{fl::Topology::uniform(3, 3)};  // 3 edges × 3 workers
  data::Partition partition;
  nn::ModelFactory factory;
  fl::RunConfig cfg3;  // three-tier
  fl::RunConfig cfg2;  // two-tier (π = 1, matched period)

  Fixture() {
    Rng rng(3);
    data::SyntheticSpec spec;
    spec.sample_shape = {1, 3, 3};
    spec.num_classes = 3;
    spec.train_size = 90;
    spec.test_size = 30;
    dataset = data::make_synthetic(rng, spec);
    partition = data::partition_iid(dataset.train, topo.num_workers(), rng);
    factory = nn::logistic_regression({1, 3, 3}, 3);

    cfg3.total_iterations = 8;
    cfg3.tau = 2;
    cfg3.pi = 2;
    cfg3.batch_size = 4;
    cfg3.seed = 5;
    cfg2 = cfg3;
    cfg2.tau = 4;
    cfg2.pi = 1;
  }

  fl::RunConfig config_for(const fl::Algorithm& alg) const {
    return alg.three_tier() ? cfg3 : cfg2;
  }

  fl::RunConfig event_config(const fl::Algorithm& alg,
                             fl::ExecPolicy policy) const {
    fl::RunConfig cfg = config_for(alg);
    cfg.policy = policy;
    cfg.batched = false;
    if (policy == fl::ExecPolicy::kSemiAsync) cfg.semi_async_deadline_s = 2.0;
    return cfg;
  }

  net::TimeSimConfig sim_for(const fl::Algorithm& alg) const {
    net::TimeSimConfig sim;
    sim.three_tier = alg.three_tier();
    sim.seed = 9;
    return sim;  // model_params / worker roster auto-completed by the engine
  }

  sim::FaultPlan plan_for(const fl::Algorithm& alg) const {
    sim::FaultConfig fc;
    fc.seed = 42;
    fc.dropout.prob = 0.3;
    fc.straggler.fraction = 0.4;
    fc.straggler.slowdown = 3.0;
    fc.edge_outage.prob = 0.15;
    return sim::FaultPlan(topo, config_for(alg), fc);
  }
};

struct ObsSnapshot {
  std::uint64_t edge_syncs = 0;
  std::uint64_t cloud_syncs = 0;
  obs::LinkTotals worker_edge;
  obs::LinkTotals edge_cloud;
  obs::LinkTotals worker_cloud;
};

bool operator==(const obs::LinkTotals& a, const obs::LinkTotals& b) {
  return a.messages == b.messages && a.logical_bytes == b.logical_bytes &&
         a.saved_bytes == b.saved_bytes;
}

void snapshot_obs(ObsSnapshot& snap) {
  auto& reg = obs::Registry::global();
  auto& comm = obs::CommAccountant::global();
  snap.edge_syncs = reg.counter("engine.edge_syncs").value();
  snap.cloud_syncs = reg.counter("engine.cloud_syncs").value();
  snap.worker_edge = comm.totals(obs::Link::kWorkerToEdge);
  snap.edge_cloud = comm.totals(obs::Link::kEdgeToCloud);
  snap.worker_cloud = comm.totals(obs::Link::kWorkerToCloud);
}

void expect_identical(const ObsSnapshot& a, const ObsSnapshot& b) {
  EXPECT_EQ(a.edge_syncs, b.edge_syncs);
  EXPECT_EQ(a.cloud_syncs, b.cloud_syncs);
  EXPECT_TRUE(a.worker_edge == b.worker_edge);
  EXPECT_TRUE(a.edge_cloud == b.edge_cloud);
  EXPECT_TRUE(a.worker_cloud == b.worker_cloud);
}

// Bit-identity of the training outcome (the sync contract): everything
// except sim_time/sim_seconds, which fl::Engine does not fill.
void expect_identical_training(const fl::RunResult& a, const fl::RunResult& b) {
  ASSERT_EQ(a.curve.size(), b.curve.size());
  for (std::size_t i = 0; i < a.curve.size(); ++i) {
    EXPECT_EQ(a.curve[i].iteration, b.curve[i].iteration);
    // EXPECT_EQ, not NEAR: the contract is bit-identity, not tolerance.
    EXPECT_EQ(a.curve[i].test_loss, b.curve[i].test_loss);
    EXPECT_EQ(a.curve[i].test_accuracy, b.curve[i].test_accuracy);
  }
  EXPECT_EQ(a.final_params, b.final_params);
  EXPECT_EQ(a.final_accuracy, b.final_accuracy);
  EXPECT_EQ(a.final_loss, b.final_loss);
  EXPECT_EQ(a.mean_participation_rate, b.mean_participation_rate);
  ASSERT_EQ(a.participation.size(), b.participation.size());
  for (std::size_t i = 0; i < a.participation.size(); ++i) {
    EXPECT_EQ(a.participation[i].active_workers,
              b.participation[i].active_workers);
    EXPECT_EQ(a.participation[i].active_edges,
              b.participation[i].active_edges);
  }
  EXPECT_EQ(a.worker_miss_counts, b.worker_miss_counts);
}

// Full identity including the event-driven fields.
void expect_identical_event_run(const fl::RunResult& a, const fl::RunResult& b) {
  expect_identical_training(a, b);
  ASSERT_EQ(a.curve.size(), b.curve.size());
  for (std::size_t i = 0; i < a.curve.size(); ++i) {
    EXPECT_EQ(a.curve[i].sim_time, b.curve[i].sim_time);
  }
  EXPECT_EQ(a.sim_seconds, b.sim_seconds);
  EXPECT_EQ(a.admitted_updates, b.admitted_updates);
  EXPECT_EQ(a.stale_updates, b.stale_updates);
  EXPECT_EQ(a.dropped_updates, b.dropped_updates);
  EXPECT_EQ(a.mean_staleness, b.mean_staleness);
  EXPECT_EQ(a.max_staleness_seen, b.max_staleness_seen);
  EXPECT_EQ(a.overlap_seconds, b.overlap_seconds);
  EXPECT_EQ(a.downloads_applied, b.downloads_applied);
  EXPECT_EQ(a.downloads_superseded, b.downloads_superseded);
}

std::vector<std::string> all_algorithms() {
  std::vector<std::string> names = algs::table2_algorithms();
  names.push_back("MimeLite");
  return names;
}

fl::RunResult run_engine(const Fixture& f, fl::Algorithm& alg,
                         std::size_t threads,
                         const fl::ParticipationSchedule* schedule,
                         ObsSnapshot* snap) {
  obs::set_enabled(true);
  obs::Registry::global().reset();
  obs::CommAccountant::global().reset();
  fl::RunConfig cfg = f.config_for(alg);
  cfg.num_threads = threads;
  fl::Engine engine(f.factory, f.dataset, f.partition, f.topo, cfg);
  fl::RunResult r = engine.run(alg, schedule);
  if (snap != nullptr) snapshot_obs(*snap);
  obs::set_enabled(false);
  return r;
}

fl::RunResult run_async(const Fixture& f, fl::Algorithm& alg,
                        fl::RunConfig cfg, std::size_t threads,
                        const sim::FaultPlan* plan, ObsSnapshot* snap) {
  obs::set_enabled(true);
  obs::Registry::global().reset();
  obs::CommAccountant::global().reset();
  cfg.num_threads = threads;
  AsyncEngine engine(f.factory, f.dataset, f.partition, f.topo, cfg,
                     f.sim_for(alg));
  fl::RunResult r = engine.run(alg, plan);
  if (snap != nullptr) snapshot_obs(*snap);
  obs::set_enabled(false);
  return r;
}

// ---------------------------------------------------------------------------
// Sync policy: bit-identical to fl::Engine
// ---------------------------------------------------------------------------

class AsyncSyncIdentityTest : public ::testing::TestWithParam<std::string> {};

TEST_P(AsyncSyncIdentityTest, FullParticipationMatchesEngine) {
  Fixture f;
  auto ref_alg = algs::make_algorithm(GetParam());
  auto evt1_alg = algs::make_algorithm(GetParam());
  auto evt4_alg = algs::make_algorithm(GetParam());

  ObsSnapshot ref_obs, evt1_obs, evt4_obs;
  const fl::RunResult ref = run_engine(f, *ref_alg, 1, nullptr, &ref_obs);
  const fl::RunResult evt1 = run_async(f, *evt1_alg, f.config_for(*evt1_alg),
                                       1, nullptr, &evt1_obs);
  const fl::RunResult evt4 = run_async(f, *evt4_alg, f.config_for(*evt4_alg),
                                       4, nullptr, &evt4_obs);

  expect_identical_training(ref, evt1);
  expect_identical_training(ref, evt4);
  expect_identical(ref_obs, evt1_obs);
  expect_identical(ref_obs, evt4_obs);

  // The event replay additionally stamps modeled time on the same curve.
  EXPECT_GT(evt1.sim_seconds, 0.0);
  EXPECT_EQ(evt1.sim_seconds, evt4.sim_seconds);
  for (std::size_t i = 1; i < evt1.curve.size(); ++i) {
    EXPECT_GT(evt1.curve[i].sim_time, evt1.curve[i - 1].sim_time);
    EXPECT_EQ(evt1.curve[i].sim_time, evt4.curve[i].sim_time);
  }
}

TEST_P(AsyncSyncIdentityTest, FaultScheduleMatchesEngine) {
  Fixture f;
  auto ref_alg = algs::make_algorithm(GetParam());
  auto evt1_alg = algs::make_algorithm(GetParam());
  auto evt4_alg = algs::make_algorithm(GetParam());
  const sim::FaultPlan plan = f.plan_for(*ref_alg);

  ObsSnapshot ref_obs, evt1_obs, evt4_obs;
  const fl::RunResult ref =
      run_engine(f, *ref_alg, 1, &plan.schedule(), &ref_obs);
  const fl::RunResult evt1 = run_async(f, *evt1_alg, f.config_for(*evt1_alg),
                                       1, &plan, &evt1_obs);
  const fl::RunResult evt4 = run_async(f, *evt4_alg, f.config_for(*evt4_alg),
                                       4, &plan, &evt4_obs);

  expect_identical_training(ref, evt1);
  expect_identical_training(ref, evt4);
  expect_identical(ref_obs, evt1_obs);
  expect_identical(ref_obs, evt4_obs);
}

INSTANTIATE_TEST_SUITE_P(
    Registry, AsyncSyncIdentityTest, ::testing::ValuesIn(all_algorithms()),
    [](const ::testing::TestParamInfo<std::string>& info) {
      std::string name = info.param;
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

// ---------------------------------------------------------------------------
// Event-driven policies: seed-deterministic at any thread count
// ---------------------------------------------------------------------------

class AsyncDeterminismTest : public ::testing::TestWithParam<std::string> {};

TEST_P(AsyncDeterminismTest, SeedDeterministicAcrossThreadCounts) {
  Fixture f;
  for (const fl::ExecPolicy policy :
       {fl::ExecPolicy::kSemiAsync, fl::ExecPolicy::kAsync}) {
    auto alg1 = algs::make_algorithm(GetParam());
    auto alg4 = algs::make_algorithm(GetParam());
    const fl::RunConfig cfg = f.event_config(*alg1, policy);
    const fl::RunResult a = run_async(f, *alg1, cfg, 1, nullptr, nullptr);
    const fl::RunResult b = run_async(f, *alg4, cfg, 4, nullptr, nullptr);
    expect_identical_event_run(a, b);
    EXPECT_GT(a.sim_seconds, 0.0);
    EXPECT_GT(a.admitted_updates, 0u);
  }
}

TEST_P(AsyncDeterminismTest, SeedDeterministicUnderFaults) {
  Fixture f;
  for (const fl::ExecPolicy policy :
       {fl::ExecPolicy::kSemiAsync, fl::ExecPolicy::kAsync}) {
    auto alg1 = algs::make_algorithm(GetParam());
    auto alg4 = algs::make_algorithm(GetParam());
    const sim::FaultPlan plan = f.plan_for(*alg1);
    const fl::RunConfig cfg = f.event_config(*alg1, policy);
    const fl::RunResult a = run_async(f, *alg1, cfg, 1, &plan, nullptr);
    const fl::RunResult b = run_async(f, *alg4, cfg, 4, &plan, nullptr);
    expect_identical_event_run(a, b);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Registry, AsyncDeterminismTest, ::testing::ValuesIn(all_algorithms()),
    [](const ::testing::TestParamInfo<std::string>& info) {
      std::string name = info.param;
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

// ---------------------------------------------------------------------------
// Staleness semantics
// ---------------------------------------------------------------------------

TEST(AsyncStalenessTest, BoundIsEnforcedAndMetricsConsistent) {
  Fixture f;
  auto alg = algs::make_algorithm("HierAdMo");
  fl::RunConfig cfg = f.event_config(*alg, fl::ExecPolicy::kAsync);
  const fl::RunResult r = run_async(f, *alg, cfg, 1, nullptr, nullptr);

  EXPECT_GT(r.admitted_updates, 0u);
  EXPECT_LE(r.stale_updates, r.admitted_updates);
  EXPECT_LE(static_cast<std::int64_t>(r.max_staleness_seen),
            cfg.max_staleness);
  EXPECT_LE(r.mean_staleness, static_cast<Scalar>(r.max_staleness_seen));
  EXPECT_GE(r.mean_staleness, 0.0);
}

TEST(AsyncStalenessTest, ZeroBoundAdmitsOnlyFreshUpdates) {
  Fixture f;
  auto alg = algs::make_algorithm("HierAdMo");
  fl::RunConfig cfg = f.event_config(*alg, fl::ExecPolicy::kAsync);
  cfg.max_staleness = 0;
  const fl::RunResult r = run_async(f, *alg, cfg, 1, nullptr, nullptr);
  EXPECT_GT(r.admitted_updates, 0u);
  EXPECT_EQ(r.max_staleness_seen, 0u);
  EXPECT_EQ(r.stale_updates, 0u);
  EXPECT_DOUBLE_EQ(r.mean_staleness, 0.0);
}

TEST(AsyncStalenessTest, EngineRejectsNonSyncPolicy) {
  Fixture f;
  auto alg = algs::make_algorithm("HierAdMo");
  fl::RunConfig cfg = f.event_config(*alg, fl::ExecPolicy::kAsync);
  EXPECT_THROW(fl::Engine(f.factory, f.dataset, f.partition, f.topo, cfg),
               Error);
}

// ---------------------------------------------------------------------------
// stale_sync default policy
// ---------------------------------------------------------------------------

class NullAlg : public fl::Algorithm {
 public:
  std::string name() const override { return "Null"; }
  bool three_tier() const override { return false; }
  void local_step(fl::Context&, fl::WorkerState&) override {}
  void cloud_sync(fl::Context&, std::size_t) override {}
};

TEST(StaleSyncTest, DefaultDecaysMomentumPerStalenessStep) {
  fl::RunConfig cfg;
  cfg.stale_momentum_decay = 0.5;
  fl::Context ctx;
  ctx.cfg = &cfg;
  NullAlg alg;

  fl::WorkerState w;
  w.x = {1.0, 1.0};
  w.y = {3.0, 3.0};
  w.v = {2.0, 2.0};
  w.sum_grad = {4.0, 4.0};
  w.sum_y = {4.0, 4.0};
  w.sum_v = {4.0, 4.0};

  alg.stale_sync(ctx, w, 2);  // factor = 0.5^2 = 0.25
  EXPECT_DOUBLE_EQ(w.y[0], 1.0 + 0.25 * 2.0);
  EXPECT_DOUBLE_EQ(w.v[0], 0.5);
  EXPECT_DOUBLE_EQ(w.sum_grad[0], 1.0);

  // decay = 1 is the hold default: a no-op at any staleness.
  cfg.stale_momentum_decay = 1.0;
  fl::WorkerState h;
  h.x = {1.0};
  h.y = {3.0};
  h.v = {2.0};
  alg.stale_sync(ctx, h, 5);
  EXPECT_DOUBLE_EQ(h.y[0], 3.0);
  EXPECT_DOUBLE_EQ(h.v[0], 2.0);
}

}  // namespace
}  // namespace hfl::evt
