// Hand-built-context algebra tests for the remaining baselines (FastSlowMo,
// HierFAVG, CFL, FedNAG cloud updates) complementing algs_test.cpp.
#include <gtest/gtest.h>

#include "src/common/errors.h"

#include "src/algs/cfl.h"
#include "src/algs/registry.h"
#include "src/fl/algorithm.h"

namespace hfl::algs {
namespace {

// Two edges with one worker each (weights 0.5/0.5).
struct TwoEdgeSetup {
  fl::Topology topo{std::vector<std::size_t>{1, 1}};
  fl::RunConfig cfg;
  std::vector<fl::WorkerState> workers;
  std::vector<std::uint32_t> slots{0, 1};
  fl::WorkerSet worker_set{&workers, 2, &slots};
  std::vector<fl::EdgeState> edges;
  fl::CloudState cloud;

  TwoEdgeSetup() {
    workers.resize(2);
    for (std::size_t i = 0; i < 2; ++i) {
      workers[i].id = i;
      workers[i].edge = i;
      workers[i].weight_in_edge = 1.0;
      workers[i].weight_global = 0.5;
      workers[i].x = {0, 0};
      workers[i].y = {0, 0};
    }
    edges.resize(2);
    edges[0].id = 0;
    edges[1].id = 1;
    edges[0].weight_global = 0.5;
    edges[1].weight_global = 0.5;
    cloud.x = {0, 0};
    cloud.y = {0, 0};
  }

  fl::Context context() {
    return fl::Context{&cfg, &topo, &worker_set, &edges, &cloud, 0};
  }
};

TEST(FastSlowMoTest, ServerSlowMomentumAndMomentumRedistribution) {
  TwoEdgeSetup s;
  s.cfg.gamma_edge = 0.5;
  s.cloud.x = {10, 10};
  auto alg = make_algorithm("FastSlowMo");
  fl::Context ctx = s.context();
  alg->init(ctx);

  s.workers[0].x = {6, 6};
  s.workers[1].x = {6, 6};  // x̄ = 6, Δ = 4
  s.workers[0].y = {2, 0};
  s.workers[1].y = {0, 2};  // ȳ = (1, 1)
  alg->cloud_sync(ctx, 1);
  // m = 0.5·0 + 4 = 4; x = 10 − 4 = 6; y ← ȳ.
  EXPECT_EQ(s.cloud.x, (Vec{6, 6}));
  EXPECT_EQ(s.cloud.y, (Vec{1, 1}));
  for (const auto& w : s.workers) {
    EXPECT_EQ(w.x, (Vec{6, 6}));
    EXPECT_EQ(w.y, (Vec{1, 1}));
  }
}

TEST(HierFavgTest, EdgeSyncAveragesWithinEdgeOnly) {
  // One edge with two workers; the other edge must be untouched.
  fl::Topology topo({2, 1});
  fl::RunConfig cfg;
  std::vector<fl::WorkerState> workers(3);
  for (std::size_t i = 0; i < 3; ++i) {
    workers[i].id = i;
    workers[i].edge = topo.edge_of_worker(i);
  }
  workers[0].weight_in_edge = 0.5;
  workers[1].weight_in_edge = 0.5;
  workers[2].weight_in_edge = 1.0;
  workers[0].x = {2, 0};
  workers[1].x = {0, 2};
  workers[2].x = {9, 9};
  std::vector<fl::EdgeState> edges(2);
  edges[0].id = 0;
  edges[1].id = 1;
  edges[0].x_plus = {0, 0};
  edges[1].x_plus = {7, 7};
  fl::CloudState cloud;
  std::vector<std::uint32_t> slots{0, 1, 2};
  fl::WorkerSet worker_set{&workers, 3, &slots};
  fl::Context ctx{&cfg, &topo, &worker_set, &edges, &cloud, 0};

  auto alg = make_algorithm("HierFAVG");
  alg->edge_sync(ctx, edges[0], 1);
  EXPECT_EQ(edges[0].x_plus, (Vec{1, 1}));
  EXPECT_EQ(workers[0].x, (Vec{1, 1}));
  EXPECT_EQ(workers[1].x, (Vec{1, 1}));
  EXPECT_EQ(workers[2].x, (Vec{9, 9}));   // other edge untouched
  EXPECT_EQ(edges[1].x_plus, (Vec{7, 7}));
}

TEST(HierFavgTest, CloudSyncAveragesEdgeModels) {
  TwoEdgeSetup s;
  s.edges[0].x_plus = {4, 0};
  s.edges[1].x_plus = {0, 8};
  auto alg = make_algorithm("HierFAVG");
  fl::Context ctx = s.context();
  alg->cloud_sync(ctx, 1);
  EXPECT_EQ(s.cloud.x, (Vec{2, 4}));
  for (const auto& e : s.edges) EXPECT_EQ(e.x_plus, (Vec{2, 4}));
  for (const auto& w : s.workers) EXPECT_EQ(w.x, (Vec{2, 4}));
}

TEST(FedNagTest, CloudSyncAggregatesModelAndMomentum) {
  TwoEdgeSetup s;
  s.workers[0].x = {2, 0};
  s.workers[1].x = {0, 2};
  s.workers[0].y = {4, 0};
  s.workers[1].y = {0, 4};
  auto alg = make_algorithm("FedNAG");
  fl::Context ctx = s.context();
  alg->cloud_sync(ctx, 1);
  EXPECT_EQ(s.cloud.x, (Vec{1, 1}));
  EXPECT_EQ(s.cloud.y, (Vec{2, 2}));
  for (const auto& w : s.workers) {
    EXPECT_EQ(w.x, (Vec{1, 1}));
    EXPECT_EQ(w.y, (Vec{2, 2}));
  }
}

TEST(CflTest, FullParticipationMatchesHierFavgAlgebra) {
  // With participation = 1 every worker is aggregated and redistributed, so
  // a single edge_sync must equal plain weighted averaging.
  fl::Topology topo({2});
  fl::RunConfig cfg;
  cfg.seed = 5;
  std::vector<fl::WorkerState> workers(2);
  workers[0].id = 0;
  workers[1].id = 1;
  workers[0].weight_in_edge = 0.25;
  workers[1].weight_in_edge = 0.75;
  workers[0].x = {4, 0};
  workers[1].x = {0, 4};
  std::vector<fl::EdgeState> edges(1);
  edges[0].id = 0;
  edges[0].x_plus = {0, 0};
  fl::CloudState cloud;
  std::vector<std::uint32_t> slots{0, 1};
  fl::WorkerSet worker_set{&workers, 2, &slots};
  fl::Context ctx{&cfg, &topo, &worker_set, &edges, &cloud, 0};

  Cfl alg(1.0);
  alg.init(ctx);
  alg.edge_sync(ctx, edges[0], 1);
  EXPECT_EQ(edges[0].x_plus, (Vec{1, 3}));
  EXPECT_EQ(workers[0].x, (Vec{1, 3}));
  EXPECT_EQ(workers[1].x, (Vec{1, 3}));
}

TEST(CflTest, PartialParticipationLeavesStragglersAlone) {
  // With a vanishing participation rate, exactly one worker (the forced
  // minimum) is aggregated per round; run many rounds and verify the
  // aggregate always equals that single participant's model (weights
  // renormalized) and that non-participants keep their state.
  fl::Topology topo({2});
  fl::RunConfig cfg;
  cfg.seed = 6;
  std::vector<fl::WorkerState> workers(2);
  workers[0].id = 0;
  workers[1].id = 1;
  workers[0].weight_in_edge = 0.5;
  workers[1].weight_in_edge = 0.5;
  workers[0].x = {1, 1};
  workers[1].x = {9, 9};
  std::vector<fl::EdgeState> edges(1);
  edges[0].id = 0;
  edges[0].x_plus = {0, 0};
  fl::CloudState cloud;
  std::vector<std::uint32_t> slots{0, 1};
  fl::WorkerSet worker_set{&workers, 2, &slots};
  fl::Context ctx{&cfg, &topo, &worker_set, &edges, &cloud, 0};

  Cfl alg(1e-9);
  alg.init(ctx);
  alg.edge_sync(ctx, edges[0], 1);
  // The edge model equals one of the two worker models, and the other
  // worker was not overwritten.
  const bool picked_first = edges[0].x_plus == Vec{1, 1};
  const bool picked_second = edges[0].x_plus == Vec{9, 9};
  EXPECT_TRUE(picked_first || picked_second);
  if (picked_first) {
    EXPECT_EQ(workers[1].x, (Vec{9, 9}));
  } else {
    EXPECT_EQ(workers[0].x, (Vec{1, 1}));
  }
}

TEST(MimeNamesTest, CorrectionFlagControlsName) {
  EXPECT_EQ(make_algorithm("Mime")->name(), "Mime");
  EXPECT_EQ(make_algorithm("MimeLite")->name(), "MimeLite");
}

}  // namespace
}  // namespace hfl::algs
