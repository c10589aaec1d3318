#include "harness.h"

#include <sys/resource.h>
#include <unistd.h>

#include <chrono>
#include <cmath>
#include <ctime>
#include <cstdio>
#include <filesystem>

#include "src/algs/registry.h"
#include "src/data/partitioner.h"
#include "src/evt/async_engine.h"
#include "src/pop/cohort_store.h"
#include "src/sim/fault_plan.h"
#include "src/sim/sparse_fault_plan.h"
#include "src/common/errors.h"
#include "src/common/thread_pool.h"
#include "src/data/synthetic.h"
#include "src/nn/loss.h"
#include "src/nn/models.h"
#include "src/obs/comm.h"
#include "src/obs/trace.h"
#include "src/tensor/gemm.h"
#include "stats.h"
#include "wrappers.h"

namespace perfbench {
namespace {

using namespace hfl;
using Clock = std::chrono::steady_clock;

// Everything set-up builds for one workload. Member order is construction
// order: the engines and the cohort store keep references into the data and
// (via the engine) the partition.
struct Instance {
  std::string workload;
  fl::RunConfig cfg;
  fl::Topology topo{std::vector<std::size_t>{1}};
  nn::ModelFactory factory;
  data::TrainTest data;
  data::Partition partition;  // async_straggler, for the sync anchor
  std::size_t cohort = 0;     // sampled workloads only
  std::string slab_path;      // pop_revisit only
  std::unique_ptr<sim::FaultPlan> plan;          // async_straggler
  std::unique_ptr<sim::SparseFaultPlan> oracle;  // pop_*
  std::unique_ptr<fl::Engine> engine;            // all but async_straggler
  std::unique_ptr<pop::CohortStore> store;       // pop_*
  std::unique_ptr<evt::AsyncEngine> async;       // async_straggler
  net::TimeSimConfig sim;                        // async_straggler

  // Set-up timings (seconds).
  double synth_s = 0;
  double partition_s = 0;
  double plan_s = 0;
  double engine_s = 0;
  double store_s = 0;
  double setup_s = 0;
};

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// Run `f` and add its wall time to `acc`.
template <class F>
void timed(double& acc, F&& f) {
  const auto t0 = Clock::now();
  f();
  acc += since(t0);
}

// Distinct sub-seeds for the inputs one workload seed generates.
std::uint64_t sub_seed(std::uint64_t seed, std::uint64_t tag) {
  return seed * 0x9E3779B97F4A7C15ULL + tag;
}

// Each workload fixes its task: the synthetic dataset and, on
// async_straggler, the straggler plan of bench/bench_async.cpp. The seed
// draws everything else: partition, initial model and batch streams, cohort
// samples, dropouts and latency jitter. A fixed task keeps final_loss and
// the amount of work comparable across seeds; a per-seed task moved the
// test loss by up to 50% between seeds on the two-class datasets.
constexpr std::uint64_t kTaskSeed = 7;
constexpr std::uint64_t kStragglerPlanSeed = 11;

// Tiny per-sample payload ({1,2,2} grids, 2 classes): at a million workers
// the dataset stays small and the cost is in the population machinery.
data::TrainTest tiny_dataset(Rng& rng, std::size_t train_size) {
  data::SyntheticSpec spec;
  spec.sample_shape = {1, 2, 2};
  spec.num_classes = 2;
  spec.train_size = train_size;
  spec.test_size = 2000;
  spec.coarse = 2;
  return data::make_synthetic(rng, spec);
}

// Sampled-population workloads: 10% i.i.d. dropout with the kDecay absent
// policy, so restores replay the decay lazily.
sim::FaultConfig pop_faults(std::uint64_t seed) {
  sim::FaultConfig fc;
  fc.seed = sub_seed(seed, 3);
  fc.dropout.prob = 0.1;
  fc.absent_policy = fl::AbsentPolicy::kDecay;
  fc.absent_decay = 0.5;
  return fc;
}

void build_cnn_dense(Instance& in, Rng& task, Rng& rng,
                     data::Partition& part) {
  in.topo = fl::Topology::uniform(4, 8);
  in.factory = nn::cnn({3, 32, 32}, 10);
  // The paper's non-convex periods; one cloud round.
  in.cfg.tau = 20;
  in.cfg.pi = 2;
  in.cfg.total_iterations = 40;
  in.cfg.batch_size = 8;
  in.cfg.eval_max_samples = 0;
  timed(in.synth_s, [&] { in.data = data::make_synthetic_cifar10(task); });
  timed(in.partition_s, [&] {
    part = data::partition_by_class(in.data.train, in.topo.num_workers(), 3,
                                    rng);
  });
}

void build_pop(Instance& in, Rng& task, Rng& rng, data::Partition& part,
               const Options& opt) {
  const bool revisit = in.workload == "pop_revisit";
  const std::size_t edges = revisit ? 64 : 1000;
  const std::size_t per_edge = revisit ? 1024 : 1000;
  in.topo = fl::Topology::uniform(edges, per_edge);
  in.factory = nn::logistic_regression({1, 2, 2}, 2);
  in.cohort = revisit ? 2048 : 1024;
  in.cfg.tau = 2;
  in.cfg.pi = 2;
  in.cfg.total_iterations = 160;
  in.cfg.batch_size = 1;
  in.cfg.eval_max_samples = 500;
  const std::size_t n = in.topo.num_workers();
  // pop_revisit: 16:1 quantity skew (every eighth worker is heavy), two
  // samples per unit of weight so every light worker holds at least one.
  std::vector<Scalar> weights;
  if (revisit) {
    weights.resize(n);
    for (std::size_t i = 0; i < n; ++i) weights[i] = i % 8 == 0 ? 16.0 : 1.0;
  }
  const std::size_t train = revisit ? 2 * (n / 8) * (16 + 7) : n;
  timed(in.synth_s, [&] { in.data = tiny_dataset(task, train); });
  timed(in.partition_s, [&] {
    part = revisit ? data::partition_weighted(in.data.train, weights, rng)
                   : data::partition_iid(in.data.train, n, rng);
  });
  timed(in.plan_s, [&] {
    in.oracle = std::make_unique<sim::SparseFaultPlan>(n, edges,
                                                       pop_faults(opt.seed));
  });
  if (revisit) {
    in.slab_path = (std::filesystem::path(opt.scratch) /
                    ("slab-" + std::to_string(::getpid()) + ".bin"))
                       .string();
  }
}

void build_async(Instance& in, Rng& task, Rng& rng, data::Partition& part,
                 const Options& opt) {
  in.topo = fl::Topology::uniform(4, 4);
  in.factory = nn::logistic_regression({1, 28, 28}, 10);
  in.cfg.tau = 2;
  in.cfg.pi = 2;
  in.cfg.total_iterations = 200;
  in.cfg.batch_size = 16;
  in.cfg.eval_max_samples = 200;
  in.cfg.batched = false;  // required by the event-driven policies
  in.cfg.policy = fl::ExecPolicy::kSemiAsync;
  in.cfg.semi_async_deadline_s = 0.5;
  in.cfg.adaptive_deadline = true;
  timed(in.synth_s, [&] { in.data = data::make_synthetic_mnist(task); });
  timed(in.partition_s, [&] {
    part = data::partition_iid(in.data.train, in.topo.num_workers(), rng);
  });
  in.partition = part;
  // Half the fleet ~5x slow with per-interval jitter; no dropouts.
  sim::FaultConfig fc;
  fc.seed = kStragglerPlanSeed;
  fc.straggler.fraction = 0.5;
  fc.straggler.slowdown = 5.0;
  fc.straggler.jitter = 0.3;
  timed(in.plan_s, [&] {
    in.plan = std::make_unique<sim::FaultPlan>(in.topo, in.cfg, fc);
  });
  in.sim = net::make_time_sim_config("HierAdMo", /*three_tier=*/true,
                                     in.factory()->num_params(),
                                     in.topo.num_workers());
  in.sim.seed = sub_seed(opt.seed, 4);
}

std::uint64_t fnv1a(std::uint64_t h, const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 0x100000001B3ULL;
  }
  return h;
}

bool all_finite(const fl::RunResult& r) {
  if (!std::isfinite(r.final_loss)) return false;
  for (const fl::MetricPoint& p : r.curve) {
    if (!std::isfinite(p.test_loss)) return false;
  }
  return true;
}

double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double peak_rss_mb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

// Per-stage cost of the workload's model through the public layer
// forward/backward calls, on one cohort-sized batch, single-threaded.
// Median of a few passes per stage.
void nn_stage_probe(const Instance& in, Metrics& m) {
  const std::size_t workers =
      in.cohort > 0 ? in.cohort : in.topo.num_workers();
  const std::size_t batch =
      std::min(workers * in.cfg.batch_size, in.data.train.size());
  std::vector<std::size_t> idx(batch);
  for (std::size_t i = 0; i < batch; ++i) idx[i] = i;
  Tensor x;
  std::vector<std::size_t> y;
  in.data.train.gather(idx, x, y);

  auto model = in.factory();
  Rng rng(1);
  model->init_params(rng);
  nn::Sequential& net = model->net();
  nn::SoftmaxCrossEntropy loss;

  const char* kStages[] = {"nn.conv_fwd_s", "nn.conv_bwd_s", "nn.dense_fwd_s",
                           "nn.dense_bwd_s", "nn.relu_pool_s", "nn.loss_s"};
  std::map<std::string, std::vector<double>> samples;
  const auto stage_of = [](const std::string& kind, bool fwd) -> std::string {
    if (kind == "conv2d") return fwd ? "nn.conv_fwd_s" : "nn.conv_bwd_s";
    if (kind == "dense") return fwd ? "nn.dense_fwd_s" : "nn.dense_bwd_s";
    return "nn.relu_pool_s";  // relu, max-pool, flatten
  };
  constexpr int kPasses = 3;
  for (int pass = 0; pass < kPasses; ++pass) {
    std::map<std::string, double> t;
    Tensor a = x;
    for (std::size_t l = 0; l < net.num_layers(); ++l) {
      nn::Layer& layer = net.layer(l);
      timed(t[stage_of(layer.kind(), true)],
            [&] { a = layer.forward(a, /*train=*/true); });
    }
    Tensor g;
    timed(t["nn.loss_s"], [&] {
      loss.forward(a, y);
      g = loss.backward();
    });
    for (std::size_t l = net.num_layers(); l-- > 0;) {
      nn::Layer& layer = net.layer(l);
      timed(t[stage_of(layer.kind(), false)], [&] { g = layer.backward(g); });
    }
    for (const char* s : kStages) samples[s].push_back(t[s]);
  }
  for (const char* s : kStages) m[s] = median(samples[s]);
}

// Aggregate GEMM rate of the pool: every thread multiplies its own square
// matrices concurrently. Median of several trials, GFLOP/s.
double gemm_pool_gflops(std::size_t threads) {
  constexpr std::size_t kN = 256;
  constexpr int kCallsPerThread = 8;
  ThreadPool pool(threads);
  std::vector<Vec> a(threads, Vec(kN * kN, 0.5));
  std::vector<Vec> b(threads, Vec(kN * kN, 0.25));
  std::vector<Vec> c(threads, Vec(kN * kN, 0.0));
  std::vector<double> rates;
  for (int trial = 0; trial < 5; ++trial) {
    const auto t0 = Clock::now();
    pool.parallel_for(threads, [&](std::size_t i) {
      for (int r = 0; r < kCallsPerThread; ++r) {
        ops::gemm(false, false, kN, kN, kN, a[i].data(), kN, b[i].data(), kN,
                  0.0, c[i].data(), kN);
      }
    });
    const double s = since(t0);
    const double flops = 2.0 * kN * kN * kN * kCallsPerThread *
                         static_cast<double>(threads);
    rates.push_back(flops / s * 1e-9);
  }
  return median(rates);
}

std::uint64_t counter(const char* name) {
  return obs::Registry::global().counter(name).value();
}

double gauge(const char* name) {
  return obs::Registry::global().gauge(name).value();
}

// Per-layer metrics of one traced run (README.md lists what each means).
void attribute(const Instance& in, const fl::RunResult& r, double run_s,
               const Recorder& rec, const TimedAlgorithm& alg,
               std::size_t threads, Metrics& m) {
  const std::vector<Interval> steps = rec.intervals(Hook::kLocalStep);
  const std::vector<Interval> windows =
      cohort_windows(rec.intervals(Hook::kGradientPoint), steps);
  double eval_s = 0;
  std::size_t eval_points = 0;
  for (const obs::TraceEvent& ev : obs::Tracer::global().snapshot()) {
    if (ev.name == "evaluate") {
      eval_s += static_cast<double>(ev.dur_ns) * 1e-9;
      ++eval_points;
    }
  }
  // Order matches `names` below.
  const std::vector<std::vector<Interval>> layers = {
      windows,
      steps,
      rec.intervals(Hook::kEdgeSync),
      rec.intervals(Hook::kCloudSync),
      rec.intervals(Hook::kAbsentSync),
      rec.intervals(Hook::kStaleSync),
      rec.intervals(Hook::kInitWorker),
      rec.intervals(Hook::kSample),
      rec.intervals(Hook::kTurnover),
      rec.intervals(Hook::kOracle)};
  const char* names[] = {"nn.cohort_s",        "core.local_step_s",
                         "core.edge_sync_s",   "core.cloud_sync_s",
                         "core.absent_sync_s", "core.stale_sync_s",
                         "core.init_worker_s", "pop.sample_s",
                         "pop.turnover_s",     "sim.oracle_s"};
  const Reconciliation rc = reconcile(run_s, layers, eval_s);
  for (std::size_t i = 0; i < layers.size(); ++i) m[names[i]] = rc.self_s[i];
  m["fl.eval_s"] = eval_s;
  m["fl.eval_points"] = static_cast<double>(eval_points);
  const bool evt = in.async != nullptr;
  m["fl.engine_self_s"] = evt ? 0.0 : rc.residual_s;
  m["evt.self_s"] = evt ? rc.residual_s : 0.0;
  m["recon.residual_s"] = rc.residual_s;
  m["recon.residual_share"] = rc.residual_s / run_s;
  m["recon.overlap_s"] = rc.overlap_s;

  m["core.local_steps"] = static_cast<double>(steps.size());
  m["core.edge_syncs"] = static_cast<double>(rec.count(Hook::kEdgeSync));
  m["core.cloud_syncs"] = static_cast<double>(rec.count(Hook::kCloudSync));
  m["sim.oracle_queries"] = static_cast<double>(rec.count(Hook::kOracle));

  m["nn.im2col_bytes"] = static_cast<double>(counter("conv.im2col_bytes"));
  const double cohort_s = m["nn.cohort_s"];
  m["tensor.gemm_gflops"] =
      cohort_s > 0 ? static_cast<double>(alg.cohort_flops()) / cohort_s * 1e-9
                   : 0.0;

  const double spills = static_cast<double>(counter("pop.spills"));
  const double restores = static_cast<double>(counter("pop.restores"));
  const double fresh = static_cast<double>(counter("pop.materializations"));
  m["pop.spills"] = spills;
  m["pop.restores"] = restores;
  m["pop.spill_bytes"] = static_cast<double>(counter("pop.spill_bytes"));
  m["pop.restore_bytes"] = static_cast<double>(counter("pop.restore_bytes"));
  m["pop.restore_share"] =
      restores + fresh > 0 ? restores / (restores + fresh) : 0.0;
  m["pop.slab_peak_bytes"] = gauge("pop.slab.peak_bytes");
  m["pop.materialized_peak"] = gauge("pop.materialized_peak");

  const double admitted = static_cast<double>(r.admitted_updates);
  const double dropped = static_cast<double>(r.dropped_updates);
  m["evt.admitted"] = admitted;
  m["evt.dropped"] = dropped;
  m["evt.useful_ratio"] =
      admitted + dropped > 0 ? admitted / (admitted + dropped) : 0.0;
  m["evt.downloads_superseded"] = static_cast<double>(r.downloads_superseded);
  m["evt.queue_depth_max"] = gauge("evt.queue.depth_max");
  m["evt.mean_staleness"] = r.mean_staleness;
  m["net.overlap_s"] = r.overlap_seconds;

  std::uint64_t wire = 0;
  std::uint64_t messages = 0;
  for (const obs::Link link :
       {obs::Link::kWorkerToEdge, obs::Link::kEdgeToWorker,
        obs::Link::kEdgeToCloud, obs::Link::kCloudToEdge,
        obs::Link::kWorkerToCloud, obs::Link::kCloudToWorker}) {
    const obs::LinkTotals t = obs::CommAccountant::global().totals(link);
    wire += t.wire_bytes();
    messages += t.messages;
  }
  m["comm.wire_bytes"] = static_cast<double>(wire);
  m["comm.messages"] = static_cast<double>(messages);

  double busy_ns = 0;
  for (std::size_t i = 0; i < threads; ++i) {
    busy_ns += static_cast<double>(
        obs::Registry::global()
            .counter("pool.busy_ns", "worker=" + std::to_string(i))
            .value());
  }
  m["common.pool_busy_s"] = busy_ns * 1e-9;
  m["common.pool_util"] =
      busy_ns * 1e-9 / (static_cast<double>(threads) * run_s);
}

// Build `opt.workload` from `opt.seed`, timing each set-up step.
std::unique_ptr<Instance> build(const Options& opt) {
  const auto t0 = Clock::now();
  auto in = std::make_unique<Instance>();
  in->workload = opt.workload;
  in->cfg.seed = sub_seed(opt.seed, 1);
  in->cfg.num_threads = opt.threads;
  in->cfg.eta = 0.01;
  in->cfg.gamma = 0.5;
  in->cfg.gamma_edge = 0.5;
  Rng task(kTaskSeed);
  Rng rng(sub_seed(opt.seed, 2));
  data::Partition part;
  if (opt.workload == "cnn_dense") {
    build_cnn_dense(*in, task, rng, part);
  } else if (opt.workload == "pop_1m" || opt.workload == "pop_revisit") {
    build_pop(*in, task, rng, part, opt);
  } else if (opt.workload == "async_straggler") {
    build_async(*in, task, rng, part, opt);
  } else {
    HFL_CHECK(false, "unknown workload '" + opt.workload + "'");
  }

  if (opt.workload == "async_straggler") {
    timed(in->engine_s, [&] {
      in->async = std::make_unique<evt::AsyncEngine>(
          in->factory, in->data, std::move(part), in->topo, in->cfg, in->sim);
    });
  } else {
    timed(in->engine_s, [&] {
      in->engine = std::make_unique<fl::Engine>(
          in->factory, in->data, std::move(part), in->topo, in->cfg);
    });
  }
  if (in->cohort > 0) {
    pop::VirtConfig v;
    v.cohort_size = in->cohort;
    if (!in->slab_path.empty()) {
      v.slab.backend = pop::SlabConfig::Backend::kFile;
      v.slab.path = in->slab_path;
    }
    timed(in->store_s, [&] {
      in->store = std::make_unique<pop::CohortStore>(
          in->factory, in->data, in->engine->partition(),
          in->engine->topology(), in->cfg, v);
    });
    in->engine->set_cohort_provider(in->store.get());
  }
  in->setup_s = since(t0);
  return in;
}

// One training run through the workload's public entry point. `oracle`
// replaces the pop workloads' availability oracle (the traced run passes a
// TimedOracle); the cohort provider is whatever the engine has attached.
fl::RunResult run(Instance& in, fl::Algorithm& alg,
                  const fl::AvailabilityOracle* oracle) {
  if (in.async) return in.async->run(alg, in.plan.get());
  if (in.store) return in.engine->run_with_oracle(alg, oracle);
  return in.engine->run(alg);
}

// Mini-batch samples the run's local steps consumed, derived from the
// participation trace (or miss counts) and the configuration.
std::uint64_t samples_consumed(const Instance& in, const fl::RunResult& r) {
  const std::uint64_t per_interval = in.cfg.tau * in.cfg.batch_size;
  const std::uint64_t workers = in.topo.num_workers();
  const std::uint64_t intervals = in.cfg.total_iterations / in.cfg.tau;
  if (in.async) {
    std::uint64_t missed = 0;
    for (const std::size_t m : r.worker_miss_counts) missed += m;
    return (workers * intervals - missed) * per_interval;
  }
  if (r.participation.empty()) return workers * intervals * per_interval;
  std::uint64_t active = 0;
  for (const fl::ParticipationPoint& p : r.participation) {
    active += p.active_workers;
  }
  return active * per_interval;
}

// Modeled seconds to finish the run: the event clock on async_straggler,
// otherwise net::TimeSimulator's barrier timetable for the fleet that trains
// each interval (the whole topology, or a cohort-sized fleet spread over the
// same edges when cohorts are sampled).
double modeled_seconds(const Instance& in, const fl::RunResult& r) {
  if (in.async) return r.sim_seconds;
  fl::Topology fleet = in.topo;
  if (in.cohort > 0) {
    const std::size_t edges = in.topo.num_edges();
    std::vector<std::size_t> per_edge(edges, in.cohort / edges);
    for (std::size_t e = 0; e < in.cohort % edges; ++e) ++per_edge[e];
    fleet = fl::Topology(per_edge);
  }
  net::TimeSimConfig sim = net::make_time_sim_config(
      r.algorithm, /*three_tier=*/true, r.final_params.size(),
      fleet.num_workers());
  sim.seed = in.cfg.seed;
  const net::TimeSimulator ts(fleet, in.cfg, sim);
  return ts.total_time();
}

}  // namespace

std::string result_hash(const fl::RunResult& r) {
  std::uint64_t h = 0xCBF29CE484222325ULL;
  h = fnv1a(h, r.final_params.data(), r.final_params.size() * sizeof(Scalar));
  for (const fl::MetricPoint& p : r.curve) {
    h = fnv1a(h, &p.test_loss, sizeof(p.test_loss));
    h = fnv1a(h, &p.test_accuracy, sizeof(p.test_accuracy));
    h = fnv1a(h, &p.sim_time, sizeof(p.sim_time));
  }
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

bool async_sync_anchor(const Options& opt) {
  HFL_CHECK(opt.workload == "async_straggler",
            "the sync anchor applies to async_straggler only");
  const std::unique_ptr<Instance> in = build(opt);
  fl::RunConfig cfg = in->cfg;
  cfg.policy = fl::ExecPolicy::kSync;
  cfg.semi_async_deadline_s = 0.0;
  cfg.adaptive_deadline = false;
  fl::Engine ref(in->factory, in->data, in->partition, in->topo, cfg);
  auto ref_alg = algs::make_algorithm("HierAdMo");
  const fl::RunResult a = ref.run(*ref_alg, &in->plan->schedule());
  evt::AsyncEngine replay(in->factory, in->data, in->partition, in->topo, cfg,
                          in->sim);
  auto evt_alg = algs::make_algorithm("HierAdMo");
  const fl::RunResult b = replay.run(*evt_alg, in->plan.get());
  if (a.final_params != b.final_params || a.curve.size() != b.curve.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.curve.size(); ++i) {
    if (a.curve[i].test_loss != b.curve[i].test_loss ||
        a.curve[i].test_accuracy != b.curve[i].test_accuracy) {
      return false;
    }
  }
  return true;
}

RepResult repetition(const Options& opt, bool traced) {
  RepResult rep;
  std::unique_ptr<Instance> in = build(opt);
  rep.setup_s = in->setup_s;
  auto alg = algs::make_algorithm("HierAdMo");

  Recorder rec;
  TimedAlgorithm timed_alg(*alg, rec);
  std::unique_ptr<TimedProvider> timed_store;
  std::unique_ptr<TimedOracle> timed_oracle;
  fl::Algorithm* driven = alg.get();
  const fl::AvailabilityOracle* oracle = in->oracle.get();
  if (traced) {
    driven = &timed_alg;
    if (in->store) {
      timed_store = std::make_unique<TimedProvider>(*in->store, rec);
      in->engine->set_cohort_provider(timed_store.get());
      timed_oracle = std::make_unique<TimedOracle>(*in->oracle, rec);
      oracle = timed_oracle.get();
    }
    obs::Registry::global().reset();
    obs::Tracer::global().reset();
    obs::CommAccountant::global().reset();
    obs::set_enabled(true);
  }

  const double cpu0 = process_cpu_s();
  const auto t0 = Clock::now();
  const fl::RunResult r = run(*in, *driven, oracle);
  rep.run_s = since(t0);
  rep.run_cpu_s = process_cpu_s() - cpu0;

  HFL_CHECK(all_finite(r), "non-finite test loss");
  if (in->store) {
    HFL_CHECK(in->store->peak_materialized() <= in->cohort,
              "materialized worker states exceeded the cohort size");
  }
  rep.samples = samples_consumed(*in, r);
  rep.final_loss = r.final_loss;
  rep.hash = result_hash(r);

  if (traced) {
    obs::set_enabled(false);
    Metrics& m = rep.layers;
    attribute(*in, r, rep.run_s, rec, timed_alg, opt.threads, m);
    HFL_CHECK(static_cast<std::uint64_t>(m["core.local_steps"]) *
                      in->cfg.batch_size ==
                  rep.samples,
              "local_step calls disagree with the derived sample count");
    m["data.synth_s"] = in->synth_s;
    m["data.partition_s"] = in->partition_s;
    m["fl.engine_build_s"] = in->engine_s;
    m["pop.store_build_s"] = in->store_s;
    m["sim.plan_build_s"] = in->plan_s;
    nn_stage_probe(*in, m);
    m["tensor.gemm_peak_gflops"] = gemm_pool_gflops(opt.threads);
    m["tensor.gemm_util"] =
        m["tensor.gemm_peak_gflops"] > 0
            ? m["tensor.gemm_gflops"] / m["tensor.gemm_peak_gflops"]
            : 0.0;
  }

  rep.sim_s = modeled_seconds(*in, r);
  if (!in->slab_path.empty()) {
    const std::string path = in->slab_path;
    const double file_bytes =
        static_cast<double>(std::filesystem::file_size(path));
    in.reset();  // closes the spill file
    std::filesystem::remove(path);
    if (traced) rep.layers["pop.slab_file_bytes"] = file_bytes;
  } else if (traced) {
    rep.layers["pop.slab_file_bytes"] = 0.0;
  }
  rep.peak_rss_mb = peak_rss_mb();
  return rep;
}

}  // namespace perfbench
