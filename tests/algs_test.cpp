// Tests for the baseline algorithms: server-update algebra on hand-built
// contexts, registry coverage, and end-to-end learning sanity for each.
#include <gtest/gtest.h>

#include "src/common/errors.h"

#include "src/algs/cfl.h"
#include "src/algs/fedadc.h"
#include "src/algs/fedmom.h"
#include "src/algs/registry.h"
#include "src/algs/slowmo.h"
#include "src/data/partitioner.h"
#include "src/data/synthetic.h"
#include "src/fl/engine.h"
#include "src/nn/models.h"

namespace hfl::algs {
namespace {

// Minimal two-worker, one-edge context for exercising cloud_sync algebra
// without any models.
struct FakeSetup {
  fl::Topology topo{std::vector<std::size_t>{2}};
  fl::RunConfig cfg;
  std::vector<fl::WorkerState> workers;
  std::vector<std::uint32_t> slots{0, 1};
  fl::WorkerSet worker_set{&workers, 2, &slots};
  std::vector<fl::EdgeState> edges;
  fl::CloudState cloud;

  FakeSetup() {
    workers.resize(2);
    for (std::size_t i = 0; i < 2; ++i) {
      workers[i].id = i;
      workers[i].weight_in_edge = 0.5;
      workers[i].weight_global = 0.5;
      workers[i].x = {0, 0};
    }
    edges.resize(1);
    cloud.x = {0, 0};
    cloud.y = {0, 0};
  }

  fl::Context context() {
    return fl::Context{&cfg, &topo, &worker_set, &edges, &cloud, 0};
  }
};

TEST(FedAvgTest, CloudSyncIsWeightedMean) {
  FakeSetup s;
  s.workers[0].x = {2, 0};
  s.workers[1].x = {0, 4};
  s.workers[0].weight_global = 0.75;
  s.workers[1].weight_global = 0.25;
  auto alg = make_algorithm("FedAvg");
  fl::Context ctx = s.context();
  alg->cloud_sync(ctx, 1);
  EXPECT_EQ(s.cloud.x, (Vec{1.5, 1.0}));
  EXPECT_EQ(s.workers[0].x, s.cloud.x);
  EXPECT_EQ(s.workers[1].x, s.cloud.x);
}

TEST(FedMomTest, ServerNesterovStep) {
  FakeSetup s;
  s.cfg.gamma_edge = 0.5;
  s.cloud.x = {10, 10};
  auto alg = make_algorithm("FedMom");
  fl::Context ctx = s.context();
  alg->init(ctx);  // y_0 = x_0 = (10, 10)
  s.workers[0].x = {4, 4};
  s.workers[1].x = {8, 8};  // x̄ = (6, 6)
  alg->cloud_sync(ctx, 1);
  // y_1 = 6; x = y_1 + 0.5 (y_1 − y_0) = 6 + 0.5(6 − 10) = 4.
  EXPECT_EQ(s.cloud.x, (Vec{4, 4}));
  EXPECT_EQ(s.workers[0].x, (Vec{4, 4}));
}

TEST(SlowMoTest, SlowMomentumAccumulates) {
  FakeSetup s;
  s.cfg.gamma_edge = 0.5;
  s.cloud.x = {10, 10};
  auto alg = make_algorithm("SlowMo");
  fl::Context ctx = s.context();
  alg->init(ctx);
  s.workers[0].x = {6, 6};
  s.workers[1].x = {6, 6};  // x̄ = 6, Δ = 4
  alg->cloud_sync(ctx, 1);
  // m = 0.5·0 + 4 = 4; x = 10 − 4 = 6.
  EXPECT_EQ(s.cloud.x, (Vec{6, 6}));
  s.workers[0].x = {6, 6};
  s.workers[1].x = {6, 6};  // Δ = 0 now, but momentum keeps moving x
  alg->cloud_sync(ctx, 2);
  // m = 0.5·4 + 0 = 2; x = 6 − 2 = 4.
  EXPECT_EQ(s.cloud.x, (Vec{4, 4}));
}

TEST(FedAdcTest, DriftVectorTracksPseudoGradient) {
  FakeSetup s;
  s.cfg.gamma_edge = 0.5;
  s.cfg.eta = 0.1;
  s.cfg.tau = 10;
  s.cloud.x = {2, 2};
  auto alg = make_algorithm("FedADC");
  fl::Context ctx = s.context();
  alg->init(ctx);
  s.workers[0].x = {1, 1};
  s.workers[1].x = {1, 1};  // x̄ = 1; pseudo-grad = (2−1)/(10·0.1) = 1
  alg->cloud_sync(ctx, 1);
  EXPECT_EQ(s.cloud.extra.at("drift_u"), (Vec{0.5, 0.5}));  // 0.5·0 + 0.5·1
  EXPECT_EQ(s.cloud.x, (Vec{1, 1}));
}

TEST(RegistryTest, AllTable2NamesResolve) {
  const auto names = table2_algorithms();
  EXPECT_EQ(names.size(), 11u);
  for (const auto& name : names) {
    auto alg = make_algorithm(name);
    ASSERT_NE(alg, nullptr);
    EXPECT_EQ(alg->name(), name);
  }
}

TEST(RegistryTest, ThreeTierFlagsMatchPaperCategories) {
  for (const char* name : {"HierAdMo", "HierAdMo-R", "HierFAVG", "CFL"}) {
    EXPECT_TRUE(make_algorithm(name)->three_tier()) << name;
  }
  for (const char* name : {"FastSlowMo", "FedADC", "FedMom", "SlowMo",
                           "FedNAG", "Mime", "FedAvg"}) {
    EXPECT_FALSE(make_algorithm(name)->three_tier()) << name;
  }
}

TEST(RegistryTest, UnknownNameThrows) {
  EXPECT_THROW(make_algorithm("NoSuchAlgorithm"), Error);
}

TEST(CflTest, RejectsBadParticipation) {
  EXPECT_THROW(Cfl(0.0), Error);
  EXPECT_THROW(Cfl(1.5), Error);
}

// End-to-end: every algorithm must actually learn on an easy task.
class LearningTest : public ::testing::TestWithParam<std::string> {};

TEST_P(LearningTest, ImprovesAccuracyOnEasyTask) {
  Rng rng(77);
  data::SyntheticSpec spec;
  spec.sample_shape = {1, 2, 2};
  spec.num_classes = 3;
  spec.train_size = 150;
  spec.test_size = 90;
  spec.separation = 1.2;
  spec.noise = 0.5;
  const data::TrainTest dataset = data::make_synthetic(rng, spec);
  const fl::Topology topo = fl::Topology::uniform(2, 2);
  const data::Partition partition =
      data::partition_iid(dataset.train, 4, rng);
  const nn::ModelFactory factory = nn::logistic_regression({1, 2, 2}, 3);

  auto alg = make_algorithm(GetParam());
  fl::RunConfig cfg;
  cfg.total_iterations = 120;
  cfg.tau = alg->three_tier() ? 5 : 10;
  cfg.pi = alg->three_tier() ? 2 : 1;
  cfg.eta = 0.05;
  cfg.gamma = 0.5;
  cfg.gamma_edge = 0.5;
  cfg.batch_size = 8;
  cfg.seed = 3;
  fl::Engine engine(factory, dataset, partition, topo, cfg);
  const fl::RunResult r = engine.run(*alg);
  EXPECT_GT(r.final_accuracy, 0.75)
      << GetParam() << " failed to learn (initial "
      << r.curve.front().test_accuracy << ")";
  EXPECT_GT(r.final_accuracy, r.curve.front().test_accuracy);
}

INSTANTIATE_TEST_SUITE_P(
    AllAlgorithms, LearningTest,
    ::testing::Values("HierAdMo", "HierAdMo-R", "HierFAVG", "CFL",
                      "FastSlowMo", "FedADC", "FedMom", "SlowMo", "FedNAG",
                      "Mime", "MimeLite", "FedAvg"),
    [](const ::testing::TestParamInfo<std::string>& info) {
      std::string name = info.param;
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

TEST(DeterminismTest, SameSeedSameResultAcrossAlgorithms) {
  Rng rng(5);
  data::SyntheticSpec spec;
  spec.sample_shape = {1, 2, 2};
  spec.num_classes = 2;
  spec.train_size = 80;
  spec.test_size = 40;
  const data::TrainTest dataset = data::make_synthetic(rng, spec);
  const fl::Topology topo = fl::Topology::uniform(2, 2);
  const data::Partition partition =
      data::partition_iid(dataset.train, 4, rng);
  const nn::ModelFactory factory = nn::logistic_regression({1, 2, 2}, 2);

  for (const char* name : {"CFL", "Mime", "FedADC"}) {
    fl::RunConfig cfg;
    cfg.total_iterations = 20;
    auto alg1 = make_algorithm(name);
    auto alg2 = make_algorithm(name);
    cfg.tau = alg1->three_tier() ? 5 : 10;
    cfg.pi = alg1->three_tier() ? 2 : 1;
    cfg.batch_size = 8;
    cfg.seed = 9;
    fl::Engine engine(factory, dataset, partition, topo, cfg);
    const fl::RunResult r1 = engine.run(*alg1);
    const fl::RunResult r2 = engine.run(*alg2);
    ASSERT_EQ(r1.curve.size(), r2.curve.size());
    for (std::size_t i = 0; i < r1.curve.size(); ++i) {
      EXPECT_DOUBLE_EQ(r1.curve[i].test_loss, r2.curve[i].test_loss) << name;
    }
  }
}

}  // namespace
}  // namespace hfl::algs
