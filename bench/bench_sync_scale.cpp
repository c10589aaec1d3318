// Sync-tier scaling bench: wall-clock of the parallel edge barrier, the
// deterministic cloud reduction, and fl::run_sweep, on an edge-sync-heavy
// configuration (8 edges × 4 workers, τ = 2).
//
// Three sections, each also asserting the determinism contract it relies on
// (parallel results must be bit-identical to serial before a speedup means
// anything):
//   * engine    — full runs at num_threads = 1 vs all cores, for HierFAVG
//                 (cheapest edge_sync, barrier-dominated) and HierAdMo
//                 (cosine adaptation makes each edge_sync heavier),
//   * reduction — aggregate_global over the 32 workers at a large model
//                 dimension, serial vs element-partitioned parallel path,
//   * sweep     — the Table II algorithm roster as a serial loop vs
//                 fl::run_sweep.
//
// Writes BENCH_sync.json next to the working directory so the numbers ship
// with the repo. Host thread count is recorded: on a single-core container
// the honest speedup is ~1× and the bench is then mostly a determinism
// check.
#include <chrono>
#include <cstdio>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "bench_util.h"
#include "src/algs/registry.h"
#include "src/common/errors.h"
#include "src/common/thread_pool.h"
#include "src/fl/sweep.h"
#include "src/sim/fault_plan.h"

namespace {

using namespace hfl;

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

bool same_curve(const fl::RunResult& a, const fl::RunResult& b) {
  if (a.final_params != b.final_params) return false;
  if (a.curve.size() != b.curve.size()) return false;
  for (std::size_t i = 0; i < a.curve.size(); ++i) {
    if (a.curve[i].test_loss != b.curve[i].test_loss ||
        a.curve[i].test_accuracy != b.curve[i].test_accuracy) {
      return false;
    }
  }
  return true;
}

}  // namespace

int main() {
  using namespace hfl;

  const std::size_t cores =
      std::max<std::size_t>(1, std::thread::hardware_concurrency());

  Rng rng(7);
  const data::TrainTest dataset = data::make_synthetic_mnist(rng);
  const fl::Topology topo = fl::Topology::uniform(8, 4);  // 8 edges, 32 workers
  const data::Partition partition =
      data::partition_by_class(dataset.train, topo.num_workers(), 5, rng);
  const nn::ModelFactory factory = nn::logistic_regression({1, 28, 28}, 10);

  // Edge-sync heavy: τ = 2 fires the edge barrier every other iteration.
  fl::RunConfig cfg;
  cfg.total_iterations = bench::scaled_iters(120, 4);
  cfg.tau = 2;
  cfg.pi = 2;
  cfg.eta = 0.01;
  cfg.gamma = 0.5;
  cfg.gamma_edge = 0.5;
  cfg.batch_size = 16;
  cfg.eval_max_samples = 200;
  cfg.seed = 3;

  std::FILE* json = std::fopen("BENCH_sync.json", "w");
  HFL_CHECK(json != nullptr, "cannot open BENCH_sync.json");
  std::fprintf(json, "{\n  \"host_threads\": %zu,\n", cores);
  std::fprintf(json, "  \"topology\": \"8 edges x 4 workers\",\n");
  std::fprintf(json, "  \"config\": {\"T\": %zu, \"tau\": %zu, \"pi\": %zu},\n",
               cfg.total_iterations, cfg.tau, cfg.pi);

  // -- engine: serial vs parallel sync tier ---------------------------------
  bench::print_heading("edge barrier: num_threads=1 vs all cores");
  std::fprintf(json, "  \"engine\": [\n");
  const std::vector<std::string> engine_algs = {"HierFAVG", "HierAdMo"};
  for (std::size_t a = 0; a < engine_algs.size(); ++a) {
    const std::string& name = engine_algs[a];
    fl::RunConfig serial_cfg = cfg;
    serial_cfg.num_threads = 1;
    fl::RunConfig parallel_cfg = cfg;
    parallel_cfg.num_threads = cores;

    fl::Engine serial_engine(factory, dataset, partition, topo, serial_cfg);
    fl::Engine parallel_engine(factory, dataset, partition, topo, parallel_cfg);
    auto alg1 = algs::make_algorithm(name);
    auto algN = algs::make_algorithm(name);

    auto t0 = std::chrono::steady_clock::now();
    const fl::RunResult r1 = serial_engine.run(*alg1);
    const double serial_s = seconds_since(t0);
    t0 = std::chrono::steady_clock::now();
    const fl::RunResult rN = parallel_engine.run(*algN);
    const double parallel_s = seconds_since(t0);

    HFL_CHECK(same_curve(r1, rN),
              "parallel run diverged from serial for " + name);
    std::printf("%-10s serial %.3fs  parallel %.3fs  speedup %.2fx  "
                "(bit-identical: yes)\n",
                name.c_str(), serial_s, parallel_s, serial_s / parallel_s);
    std::fprintf(json,
                 "    {\"algorithm\": \"%s\", \"serial_s\": %.4f, "
                 "\"parallel_s\": %.4f, \"speedup\": %.3f, "
                 "\"bit_identical\": true}%s\n",
                 name.c_str(), serial_s, parallel_s, serial_s / parallel_s,
                 a + 1 < engine_algs.size() ? "," : "");
  }
  std::fprintf(json, "  ],\n");

  // -- reduction: serial vs element-partitioned weighted sum ----------------
  bench::print_heading("cloud reduction: aggregate_global serial vs pool");
  const std::size_t dim = 1 << 18;  // large enough to clear the parallel gate
  std::vector<fl::WorkerState> workers(topo.num_workers());
  Rng wrng(11);
  for (std::size_t i = 0; i < workers.size(); ++i) {
    workers[i].id = i;
    workers[i].weight_global = 1.0 / static_cast<Scalar>(workers.size());
    workers[i].x.resize(dim);
    for (auto& v : workers[i].x) v = wrng.normal();
  }
  const int reps = 20;
  std::vector<std::uint32_t> slots(workers.size());
  std::iota(slots.begin(), slots.end(), std::uint32_t{0});
  const fl::WorkerSet worker_set(&workers, workers.size(), &slots);
  Vec out_serial, out_parallel;
  auto t0 = std::chrono::steady_clock::now();
  for (int r = 0; r < reps; ++r) {
    fl::aggregate_global(worker_set, fl::worker_x, out_serial, nullptr,
                         nullptr);
  }
  const double red_serial_s = seconds_since(t0) / reps;
  ThreadPool pool(cores);
  t0 = std::chrono::steady_clock::now();
  for (int r = 0; r < reps; ++r) {
    fl::aggregate_global(worker_set, fl::worker_x, out_parallel, nullptr,
                         &pool);
  }
  const double red_parallel_s = seconds_since(t0) / reps;
  HFL_CHECK(out_serial == out_parallel,
            "parallel reduction diverged from serial");
  std::printf("dim %zu x %zu workers: serial %.4fs  parallel %.4fs  "
              "speedup %.2fx  (bit-identical: yes)\n",
              dim, workers.size(), red_serial_s, red_parallel_s,
              red_serial_s / red_parallel_s);
  std::fprintf(json,
               "  \"reduction\": {\"dim\": %zu, \"workers\": %zu, "
               "\"serial_s\": %.5f, \"parallel_s\": %.5f, \"speedup\": %.3f, "
               "\"bit_identical\": true},\n",
               dim, workers.size(), red_serial_s, red_parallel_s,
               red_serial_s / red_parallel_s);

  // -- sweep: serial loop vs run_sweep --------------------------------------
  bench::print_heading("sweep: serial loop vs fl::run_sweep");
  fl::RunConfig sweep_cfg = cfg;
  sweep_cfg.total_iterations = bench::scaled_iters(40, 4);
  sweep_cfg.num_threads = 1;
  fl::RunConfig sweep_cfg2 = sweep_cfg;
  sweep_cfg2.tau = sweep_cfg.tau * sweep_cfg.pi;  // matched period
  sweep_cfg2.pi = 1;

  std::vector<fl::SweepJob> jobs;
  for (const std::string& name : algs::table2_algorithms()) {
    fl::SweepJob job;
    job.make_algorithm = [name] { return algs::make_algorithm(name); };
    job.cfg = algs::make_algorithm(name)->three_tier() ? sweep_cfg : sweep_cfg2;
    job.label = name;
    jobs.push_back(std::move(job));
  }

  t0 = std::chrono::steady_clock::now();
  std::vector<fl::RunResult> loop_results;
  for (const fl::SweepJob& job : jobs) {
    auto alg = job.make_algorithm();
    fl::Engine engine(factory, dataset, partition, topo, job.cfg);
    loop_results.push_back(engine.run(*alg));
  }
  const double loop_s = seconds_since(t0);

  t0 = std::chrono::steady_clock::now();
  const std::vector<fl::SweepResult> sweep_results =
      fl::run_sweep(factory, dataset, partition, topo, jobs);
  const double sweep_s = seconds_since(t0);

  HFL_CHECK(sweep_results.size() == loop_results.size(), "sweep size mismatch");
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    HFL_CHECK(same_curve(loop_results[i], sweep_results[i].result),
              "run_sweep diverged from the serial loop for " + jobs[i].label);
  }
  std::printf("%zu jobs: serial loop %.3fs  run_sweep %.3fs  speedup %.2fx  "
              "(bit-identical: yes)\n",
              jobs.size(), loop_s, sweep_s, loop_s / sweep_s);
  std::fprintf(json,
               "  \"sweep\": {\"jobs\": %zu, \"serial_s\": %.4f, "
               "\"parallel_s\": %.4f, \"speedup\": %.3f, "
               "\"bit_identical\": true}\n}\n",
               jobs.size(), loop_s, sweep_s, loop_s / sweep_s);
  std::fclose(json);
  std::printf("\n(measurements written to BENCH_sync.json)\n");
  return 0;
}
