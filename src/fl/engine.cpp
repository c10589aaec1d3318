#include "src/fl/engine.h"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <numeric>

#include "src/common/logging.h"
#include "src/fl/comm_model.h"
#include "src/obs/comm.h"
#include "src/obs/registry.h"
#include "src/obs/trace.h"

namespace hfl::fl {

Engine::Engine(nn::ModelFactory factory, const data::TrainTest& data,
               data::Partition partition, Topology topo, RunConfig cfg)
    : factory_(std::move(factory)),
      data_(&data),
      partition_(std::move(partition)),
      topo_(std::move(topo)),
      cfg_(cfg) {
  // Runtime switches for the fused cohort path, applied before validation so
  // HFL_MIXED_PRECISION=1 HFL_BATCHED=0 fails with the config error instead
  // of silently ignoring one flag.
  const auto env_flag = [](const char* name, bool& flag) {
    if (const char* v = std::getenv(name)) {
      flag = !(v[0] == '0' && v[1] == '\0');
    }
  };
  env_flag("HFL_BATCHED", cfg_.batched);
  env_flag("HFL_MIXED_PRECISION", cfg_.mixed_precision);
  cfg_.validate();
  HFL_CHECK(cfg_.policy == ExecPolicy::kSync,
            std::string("fl::Engine only executes the sync policy; policy = ") +
                to_string(cfg_.policy) +
                " needs the event-driven evt::AsyncEngine");
  HFL_CHECK(partition_.size() == topo_.num_workers(),
            "partition size must equal worker count");
  for (const auto& p : partition_) {
    HFL_CHECK(!p.empty(), "every worker needs at least one sample");
  }
  pool_ = std::make_unique<ThreadPool>(cfg_.num_threads);
  eval_slots_.resize(pool_->size());
  for (EvalSlot& slot : eval_slots_) slot.model = factory_();
  if (cfg_.batched) {
    // nullptr (unsupported architecture/loss) simply keeps the per-worker
    // path for the whole run.
    cohort_ = nn::CohortModel::create(factory_);
  }
}

void Engine::prefetch_cohort_gradients(Algorithm& alg, Context& ctx,
                                       WorkerSet& workers) {
  cohort_items_.clear();
  cohort_ids_.clear();
  // Zero-copy draws when the plan reads flat sample rows in place (MLPs /
  // logistic models at full precision): the batch is never gathered into a
  // tensor, the GEMMs read dataset rows directly. Bit-identical to the
  // gathered path (same draws, same products — see nn::CohortModel).
  const bool row_gather =
      cohort_->supports_row_gather() && !cfg_.mixed_precision;
  for (WorkerState& w : workers) {
    if (ctx.part && !ctx.part->worker_active(w.id)) continue;
    nn::CohortItem item;
    // Engine-side draw advances the worker's stream exactly like the
    // compute_gradient it replaces; streams are worker-owned, so serial
    // draws here see the same sequence the parallel local_steps would.
    if (row_gather) {
      w.draw_batch_rows(item.x_rows, item.y);
    } else {
      w.draw_batch(item.x, item.y);
    }
    item.params = alg.local_gradient_point(w).data();
    item.grad = w.grad.data();
    cohort_items_.push_back(item);
    cohort_ids_.push_back(w.id);
  }
  if (cohort_items_.empty()) return;

  cohort_->run(cohort_items_, pool_.get(), cfg_.mixed_precision);

  for (std::size_t i = 0; i < cohort_items_.size(); ++i) {
    WorkerState& w = workers[cohort_ids_[i]];
    w.last_loss = cohort_items_[i].loss;
    w.deposit_gradient(alg.local_gradient_point(w));
  }
  if (obs::enabled()) {
    obs::Registry& reg = obs::Registry::global();
    reg.counter("engine.cohort.fused_grads").add(cohort_items_.size());
    reg.histogram("engine.cohort.size", "",
                  {1, 2, 4, 8, 16, 32, 64, 128})
        .observe(static_cast<double>(cohort_items_.size()));
  }
}

void Engine::build_states(RunState& rs) {
  Rng root(cfg_.seed);
  Rng init_rng = root.fork(0x1217);

  // One shared initial point (Algorithm 1 lines 1–2).
  auto init_model = factory_();
  init_model->init_params(init_rng);
  const Vec x0 = init_model->get_params();

  // Data-size weights.
  std::size_t total_samples = 0;
  std::vector<std::size_t> edge_samples(topo_.num_edges(), 0);
  for (std::size_t w = 0; w < topo_.num_workers(); ++w) {
    total_samples += partition_[w].size();
    edge_samples[topo_.edge_of_worker(w)] += partition_[w].size();
  }

  // Algorithm::init and init_worker run in open_interval: a virtualized
  // run needs its first cohort materialized first.
  if (provider_ != nullptr) {
    // Virtualized run: the provider owns worker-state lifetime; the engine
    // keeps only the id-addressed view (its internal pointers track the
    // provider's containers across cohort changes).
    provider_->begin_run(x0);
    rs.worker_pool.clear();
    rs.workers = provider_->workers();
  } else {
    build_dense_workers(rs, x0, edge_samples, total_samples);
  }

  std::vector<EdgeState>& edges = rs.edges;
  edges.clear();
  edges.resize(topo_.num_edges());
  for (std::size_t e = 0; e < edges.size(); ++e) {
    EdgeState& es = edges[e];
    es.id = e;
    es.weight_global = static_cast<Scalar>(edge_samples[e]) /
                       static_cast<Scalar>(total_samples);
    es.x_plus = x0;
    es.y_plus = x0;
    es.y_minus = x0;
    es.gamma_edge = cfg_.gamma_edge;
  }

  rs.cloud.x = x0;
  rs.cloud.y = x0;
  rs.cloud.extra.clear();
}

void Engine::build_dense_workers(RunState& rs, const Vec& x0,
                                 const std::vector<std::size_t>& edge_samples,
                                 std::size_t total_samples) {
  const std::size_t n = x0.size();
  Rng root(cfg_.seed);
  root.fork(0x1217);  // skip the init-model stream: workers are forks 2+i

  std::vector<WorkerState>& workers = rs.worker_pool;
  workers.clear();
  workers.resize(topo_.num_workers());
  for (std::size_t i = 0; i < workers.size(); ++i) {
    WorkerState& w = workers[i];
    w.id = static_cast<WorkerId>(i);
    w.edge = topo_.edge_of_worker(i);
    w.num_samples = partition_[i].size();
    w.weight_in_edge = static_cast<Scalar>(w.num_samples) /
                       static_cast<Scalar>(edge_samples[w.edge]);
    w.weight_global = static_cast<Scalar>(w.num_samples) /
                      static_cast<Scalar>(total_samples);
    w.x = x0;
    w.y = x0;
    w.v.assign(n, 0.0);
    w.grad.assign(n, 0.0);
    w.sum_grad.assign(n, 0.0);
    w.sum_y.assign(n, 0.0);
    w.sum_v.assign(n, 0.0);
    w.model = factory_();
    // The lazy materializer (src/pop/cohort_store.cpp) reproduces this exact
    // stream derivation via fork_nth: worker i's fork is the (2+i)-th taken
    // from root (fork 1 is the init-model stream). Keep the two in lockstep.
    Rng wrng = root.fork(1000 + i);
    w.batcher = std::make_unique<data::Batcher>(
        data_->train, partition_[i], cfg_.batch_size, wrng.fork(1));
    w.aux_batcher = std::make_unique<data::Batcher>(
        data_->train, partition_[i], cfg_.batch_size, wrng.fork(2));
  }
  rs.workers = WorkerSet(&rs.worker_pool);
}

nn::EvalResult Engine::evaluate(const Vec& params) {
  const data::Dataset& test = data_->test;
  const std::size_t n = cfg_.eval_max_samples == 0
                            ? test.size()
                            : std::min(test.size(), cfg_.eval_max_samples);
  HFL_CHECK(n > 0, "empty test set");

  constexpr std::size_t kTestBatch = 128;
  const std::size_t num_batches = (n + kTestBatch - 1) / kTestBatch;

  std::vector<Scalar> losses(num_batches, 0.0);
  std::vector<Scalar> correct(num_batches, 0.0);
  std::vector<std::size_t> counts(num_batches, 0);

  // One contiguous batch range per per-thread eval model, accumulated into
  // block-local buffers and written back once per block: threads never
  // interleave stores into the shared arrays mid-loop (the earlier
  // round-robin layout had every thread bouncing the same cache lines on
  // each batch — false sharing on the eval hot path). The final merge below
  // walks batches in index order, so the totals are bit-identical for every
  // thread count and block shape.
  const std::size_t num_blocks = std::min(num_batches, eval_slots_.size());
  const std::size_t batches_per_block =
      (num_batches + num_blocks - 1) / num_blocks;
  pool_->parallel_for(num_blocks, [&](std::size_t blk) {
    const std::size_t blo = blk * batches_per_block;
    const std::size_t bhi = std::min(num_batches, blo + batches_per_block);
    if (blo >= bhi) return;
    EvalSlot& slot = eval_slots_[blk];
    nn::Model& model = *slot.model;
    model.set_params(params);
    Tensor& x = slot.x;
    std::vector<std::size_t>& y = slot.y;
    std::vector<std::size_t>& idx = slot.idx;
    std::vector<Scalar> local_loss(bhi - blo), local_correct(bhi - blo);
    std::vector<std::size_t> local_count(bhi - blo);
    for (std::size_t b = blo; b < bhi; ++b) {
      const std::size_t lo = b * kTestBatch;
      const std::size_t hi = std::min(n, lo + kTestBatch);
      idx.resize(hi - lo);
      for (std::size_t i = lo; i < hi; ++i) idx[i - lo] = i;
      test.gather(idx, x, y);
      const nn::EvalResult r = model.evaluate(x, y);
      local_loss[b - blo] = r.loss * static_cast<Scalar>(hi - lo);
      local_correct[b - blo] = r.accuracy * static_cast<Scalar>(hi - lo);
      local_count[b - blo] = hi - lo;
    }
    std::copy(local_loss.begin(), local_loss.end(), losses.begin() + blo);
    std::copy(local_correct.begin(), local_correct.end(),
              correct.begin() + blo);
    std::copy(local_count.begin(), local_count.end(), counts.begin() + blo);
  });

  nn::EvalResult total;
  std::size_t count = 0;
  for (std::size_t b = 0; b < num_batches; ++b) {
    total.loss += losses[b];
    total.accuracy += correct[b];
    count += counts[b];
  }
  total.loss /= static_cast<Scalar>(count);
  total.accuracy /= static_cast<Scalar>(count);
  return total;
}

std::vector<Scalar> Engine::base_weights() const {
  if (provider_ != nullptr) return provider_->base_weights();
  std::vector<Scalar> base(topo_.num_workers());
  for (std::size_t i = 0; i < base.size(); ++i) {
    base[i] = static_cast<Scalar>(partition_[i].size());
  }
  return base;
}

void Engine::prepare_run(Algorithm& alg, const AvailabilityOracle* oracle,
                         RunState& rs) {
  if (!alg.three_tier()) {
    HFL_CHECK(cfg_.pi == 1,
              "two-tier algorithms require pi == 1 (use tau as the global "
              "aggregation period)");
  }
  rs.start = std::chrono::steady_clock::now();

  build_states(rs);

  // Logical synchronization payloads (obs/comm.h). Everything recorded from
  // these is derived from state the simulation already computed; telemetry
  // being on or off cannot change the run (no RNG draws, no reordering).
  const CommProfile comm_profile = comm_profile_for(alg.name());
  const std::uint64_t param_bytes =
      static_cast<std::uint64_t>(rs.cloud.x.size()) * sizeof(Scalar);
  const auto payload = [param_bytes](Scalar vectors) {
    return static_cast<std::uint64_t>(vectors *
                                      static_cast<Scalar>(param_bytes));
  };
  rs.worker_up_bytes = payload(comm_profile.worker_upload_vectors);
  rs.worker_down_bytes = payload(comm_profile.worker_download_vectors);
  rs.edge_up_bytes = payload(comm_profile.edge_upload_vectors);
  rs.edge_down_bytes = payload(comm_profile.edge_download_vectors);

  const bool sampling = provider_ != nullptr && provider_->sampling();
  if (sampling) {
    const std::size_t global_period = cfg_.tau * cfg_.pi;
    HFL_CHECK(cfg_.eval_every == 0 || cfg_.eval_every % global_period == 0,
              "sampled virtualized runs evaluate only at cloud rounds "
              "(eval_every must be 0 or a multiple of tau*pi): the "
              "mid-interval virtual global model would need every worker "
              "materialized");
    HFL_CHECK(!alg.probes_population() || cfg_.mime_cohort_stats,
              alg.name() +
                  " probes every worker's gradient for its server "
                  "statistic, but cohort sampling materializes only the "
                  "sampled workers; set cfg.mime_cohort_stats = true to "
                  "estimate the statistic from the cohort instead");
  }
  if (provider_ != nullptr && oracle != nullptr) {
    // Unmaterialized workers receive the policy lazily: the provider
    // stamps each spill with the interval clock and replays the policy
    // once per missed interval at restore (bit-identical to a
    // materialized worker receiving absent_sync every interval).
    provider_->set_absent_replay(oracle->absent_policy(),
                                 oracle->absent_decay());
  }
  // Sampling and faults both flow through one Participation over the whole
  // population; neither active → part stays null and the run is the exact
  // full-participation path.
  if (sampling || oracle != nullptr) {
    rs.part = std::make_unique<Participation>(topo_, base_weights(),
                                              /*edge_faults=*/alg.three_tier());
    if (oracle != nullptr) {
      rs.part->set_absent_policy(oracle->absent_policy(),
                                 oracle->absent_decay());
    }
  }

  rs.ctx = Context{&cfg_,     &topo_,        &rs.workers, &rs.edges,
                   &rs.cloud, 0,             rs.part.get(), pool_.get()};

  rs.result.algorithm = alg.name();
  if (rs.part) {
    rs.result.worker_miss_counts.assign(rs.workers.size(), 0);
    rs.participation_counts.assign(rs.workers.size(), 0);
    rs.num_part_intervals = 0;
  }

  open_interval(alg, rs, 1, oracle, /*first_interval=*/true);
}

void Engine::open_interval(Algorithm& alg, RunState& rs, std::size_t k,
                           const AvailabilityOracle* oracle,
                           bool first_interval) {
  const bool sampling = provider_ != nullptr && provider_->sampling();
  if (provider_ != nullptr) provider_->begin_interval(k);
  if (sampling) {
    provider_->sample_cohort(k, rs.cohort_ids, rs.cohort_mult);
  } else if (first_interval) {
    // Full cohort: every worker, every interval (rs.cohort_ids keeps
    // describing it).
    rs.cohort_ids.resize(topo_.num_workers());
    std::iota(rs.cohort_ids.begin(), rs.cohort_ids.end(), WorkerId{0});
    rs.cohort_mult.assign(rs.cohort_ids.size(), 1.0);
  }
  // First-timers to initialize: a provider materializes the new cohort and
  // reports them; a dense pool holds every worker from the start.
  std::vector<WorkerId> fresh;
  if (provider_ != nullptr && (sampling || first_interval)) {
    fresh = provider_->set_cohort(rs.cohort_ids);
  } else if (first_interval) {
    fresh = rs.cohort_ids;
  }

  if (rs.part != nullptr) {
    // Compose interval k's roster: cohort members are up unless the oracle
    // says otherwise; everyone outside the cohort is absent. Multiplicity
    // (> 1 only for with-replacement draws) scales aggregation mass so the
    // cohort estimator stays unbiased.
    bool scaled = false;
    rs.cohort_up.resize(rs.cohort_ids.size());
    for (std::size_t i = 0; i < rs.cohort_ids.size(); ++i) {
      const WorkerId id = rs.cohort_ids[i];
      rs.cohort_up[i] =
          (oracle == nullptr || oracle->worker_available(k, id)) ? 1 : 0;
      if (rs.cohort_mult[i] != 1.0) scaled = true;
    }
    rs.roster_edge_up.assign(topo_.num_edges(), 1);
    if (oracle != nullptr) {
      for (std::size_t e = 0; e < topo_.num_edges(); ++e) {
        rs.roster_edge_up[e] = oracle->edge_available(k, e) ? 1 : 0;
      }
    }
    rs.part->set_cohort_roster(rs.cohort_ids, rs.cohort_up, rs.roster_edge_up,
                               scaled ? &rs.cohort_mult : nullptr);
  }

  // Algorithm init runs against a participation-free context (Mime's anchor
  // probe must see the full materialized cohort, not the interval roster).
  Context init_ctx = rs.ctx;
  init_ctx.part = nullptr;
  if (first_interval) alg.init(init_ctx);
  for (const WorkerId id : fresh) alg.init_worker(init_ctx, rs.workers[id]);
}

void Engine::record_point(RunState& rs, std::size_t t, const Vec& params,
                          Scalar sim_time) {
  const obs::Span span("evaluate", "eval");
  const nn::EvalResult r = evaluate(params);
  rs.result.curve.push_back({t, r.loss, r.accuracy, sim_time});
}

void Engine::run_local_steps(Algorithm& alg, RunState& rs) {
  const Participation* part = rs.ctx.part;
  const obs::Span span("local_steps", "worker");
  const bool fused = cohort_ != nullptr && alg.local_gradient_prefetchable();
  if (fused) {
    prefetch_cohort_gradients(alg, rs.ctx, rs.workers);
  } else if (obs::enabled()) {
    const std::size_t active = part ? part->num_active() : rs.workers.size();
    obs::Registry::global().counter("engine.cohort.fallback_grads").add(active);
  }
  // Dispatch over the materialized pool (== every worker in dense runs, the
  // sampled cohort in virtualized ones); slot order is ascending-id order,
  // so the dense dispatch is the exact pre-refactor schedule.
  pool_->parallel_for(rs.workers.num_materialized(), [&](std::size_t s) {
    WorkerState& w = rs.workers.slot(s);
    // A worker that will miss this interval's synchronization is offline:
    // it computes nothing and its batch stream does not advance.
    if (part && !part->worker_active(w.id)) return;
    alg.local_step(rs.ctx, w);
  });
}

void Engine::run_edge_syncs(Algorithm& alg, RunState& rs, std::size_t k) {
  const Participation* part = rs.ctx.part;
  const obs::Span span("edge_sync", "edge");
  if (obs::enabled()) {
    // Comm accounting depends only on the surviving roster, so it is
    // recorded serially in edge-index order BEFORE the (possibly
    // concurrent) edge_sync dispatch: the records stay deterministic
    // under any thread count, and compression savings reported from
    // inside the algorithm always land on an already-counted message.
    obs::CommAccountant& comm = obs::CommAccountant::global();
    obs::Registry& reg = obs::Registry::global();
    for (const EdgeState& e : rs.edges) {
      if (part && !part->edge_active(e.id)) continue;
      // Every surviving worker of this edge uploads its sync payload
      // and receives the redistribution.
      for (const std::size_t w : topo_.workers_of_edge(e.id)) {
        if (part && !part->worker_active(w)) continue;
        comm.record(obs::Link::kWorkerToEdge, e.id, rs.worker_up_bytes);
        comm.record(obs::Link::kEdgeToWorker, e.id, rs.worker_down_bytes);
      }
      reg.counter("engine.edge_syncs").add();
    }
  }
  // The edge barrier itself: re-entrant algorithms run their edges
  // concurrently; serial-only ones (edge_sync_reentrant() == false) walk
  // the edges in index order — the exact 1-thread schedule. Either way
  // an edge with no survivors (node outage or all workers absent) holds
  // its state; its workers are handled by absent_sync in finish_interval.
  const auto sync_edge = [&](std::size_t i) {
    EdgeState& e = rs.edges[i];
    if (part && !part->edge_active(e.id)) return;
    const EdgeSyncGuard guard(edge_sync_entries_, alg.edge_sync_reentrant());
    alg.edge_sync(rs.ctx, e, k);
  };
  if (alg.edge_sync_reentrant()) {
    pool_->parallel_for(rs.edges.size(), sync_edge);
  } else {
    for (std::size_t i = 0; i < rs.edges.size(); ++i) sync_edge(i);
  }
}

void Engine::run_cloud_sync(Algorithm& alg, RunState& rs, std::size_t p) {
  const Participation* part = rs.ctx.part;
  const bool any_survivor =
      !part || (alg.three_tier()
                    ? [&] {
                        for (const EdgeState& e : rs.edges) {
                          if (part->edge_active(e.id)) return true;
                        }
                        return false;
                      }()
                    : part->num_active() > 0);
  if (!any_survivor) return;
  const obs::Span span("cloud_sync", "cloud");
  if (obs::enabled()) {
    obs::CommAccountant& comm = obs::CommAccountant::global();
    if (alg.three_tier()) {
      for (const EdgeState& e : rs.edges) {
        if (part && !part->edge_active(e.id)) continue;
        comm.record(obs::Link::kEdgeToCloud, e.id, rs.edge_up_bytes);
        comm.record(obs::Link::kCloudToEdge, e.id, rs.edge_down_bytes);
      }
    } else {
      for (const WorkerState& w : rs.workers) {
        if (part && !part->worker_active(w.id)) continue;
        comm.record(obs::Link::kWorkerToCloud, w.id, rs.worker_up_bytes);
        comm.record(obs::Link::kCloudToWorker, w.id, rs.worker_down_bytes);
      }
    }
    obs::Registry::global().counter("engine.cloud_syncs").add();
  }
  alg.cloud_sync(rs.ctx, p);
}

void Engine::finish_interval(Algorithm& alg, RunState& rs, std::size_t k) {
  Participation* part = rs.part.get();
  if (obs::enabled()) {
    obs::Registry& reg = obs::Registry::global();
    const std::size_t active = part ? part->num_active() : rs.workers.size();
    reg.counter("engine.sync.intervals").add();
    reg.counter("engine.sync.active_workers").add(active);
    reg.counter("engine.sync.worker_slots").add(rs.workers.size());
    reg.counter("engine.sync.absent_workers").add(rs.workers.size() - active);
  }

  if (part) {
    // Absent-worker policy + participation bookkeeping, once per interval.
    std::size_t active_edges = 0;
    for (const EdgeState& e : rs.edges) {
      if (part->edge_active(e.id)) ++active_edges;
    }
    // absent_sync visits materialized absent workers (== every absent worker
    // in dense runs). Unmaterialized workers hold their spilled state, which
    // is exactly the kHold policy — prepare_run rejects other policies for
    // sampled runs.
    for (WorkerState& w : rs.workers) {
      if (part->worker_active(w.id)) continue;
      alg.absent_sync(rs.ctx, w, k);
    }
    // Miss counts cover the whole population, materialized or not. Count
    // participation (misses fall out at finalize as intervals − hits): only
    // cohort members can participate, so this is O(cohort), not
    // O(population).
    ++rs.num_part_intervals;
    for (const WorkerId id : rs.cohort_ids) {
      if (part->worker_active(id)) ++rs.participation_counts[id];
    }
    rs.result.participation.push_back(
        {k, part->num_active(), rs.workers.size(), active_edges,
         rs.edges.size(),
         static_cast<Scalar>(part->num_active()) /
             static_cast<Scalar>(rs.workers.size())});
  }
}

void Engine::finalize_run(Algorithm& alg, RunState& rs) {
  RunResult& result = rs.result;
  // Derive miss counts from the per-interval participation tallies
  // (finish_interval). Empty tallies mean another accounting path owns the
  // counts (evt's event-driven clock increments them per missed event).
  if (!rs.participation_counts.empty()) {
    for (std::size_t w = 0; w < result.worker_miss_counts.size(); ++w) {
      result.worker_miss_counts[w] =
          rs.num_part_intervals - rs.participation_counts[w];
    }
  }
  if (!result.participation.empty()) {
    Scalar sum = 0;
    for (const ParticipationPoint& p : result.participation) sum += p.rate;
    result.mean_participation_rate =
        sum / static_cast<Scalar>(result.participation.size());
  }

  if (obs::enabled()) {
    obs::Registry::global()
        .counter("engine.iterations", "algorithm=" + alg.name())
        .add(cfg_.total_iterations);
  }

  result.final_accuracy = result.curve.back().test_accuracy;
  result.final_loss = result.curve.back().test_loss;
  result.final_params = rs.cloud.x;
  result.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    rs.start)
          .count();
}

void Engine::set_cohort_provider(CohortProvider* provider) {
  if (provider != nullptr) {
    HFL_CHECK(provider->population() == topo_.num_workers(),
              "cohort provider population must match the topology");
    provider->attach_pool(pool_.get());
  }
  provider_ = provider;
}

RunResult Engine::run(Algorithm& alg, const ParticipationSchedule* schedule) {
  // A null or no-op schedule takes the exact fault-free path; any other
  // schedule is replayed through the oracle adapter, so dense schedules and
  // lazy oracles reach the same roster builder.
  if (schedule == nullptr || schedule->is_noop()) return run_impl(alg, nullptr);
  schedule->validate(topo_, cfg_);
  const ScheduleOracle oracle(*schedule);
  return run_impl(alg, &oracle);
}

RunResult Engine::run_with_oracle(Algorithm& alg,
                                  const AvailabilityOracle* oracle) {
  HFL_CHECK(provider_ != nullptr,
            "run_with_oracle requires an attached cohort provider "
            "(set_cohort_provider)");
  return run_impl(alg, oracle);
}

RunResult Engine::run_impl(Algorithm& alg, const AvailabilityOracle* oracle) {
  const obs::Span run_span("run:" + alg.name(), "engine");

  RunState rs;
  prepare_run(alg, oracle, rs);
  record_point(rs, 0, rs.cloud.x);

  const std::size_t global_period = cfg_.tau * cfg_.pi;
  for (std::size_t t = 1; t <= cfg_.total_iterations; ++t) {
    rs.ctx.t = t;
    if (t > 1 && (t - 1) % cfg_.tau == 0) {
      open_interval(alg, rs, (t - 1) / cfg_.tau + 1, oracle,
                    /*first_interval=*/false);
    }
    run_local_steps(alg, rs);

    const bool sync_point = t % cfg_.tau == 0;
    const std::size_t k = t / cfg_.tau;

    if (alg.three_tier() && sync_point) run_edge_syncs(alg, rs, k);

    if (t % global_period == 0) {
      run_cloud_sync(alg, rs, t / global_period);
      record_point(rs, t, rs.cloud.x);
    } else if (cfg_.eval_every != 0 && t % cfg_.eval_every == 0) {
      // Between synchronizations, evaluate the data-weighted average of the
      // worker models (the paper's virtual global model).
      aggregate_global(rs.workers, worker_x, rs.avg_scratch, nullptr,
                       pool_.get());
      record_point(rs, t, rs.avg_scratch);
    }

    if (sync_point) finish_interval(alg, rs, k);
  }

  finalize_run(alg, rs);
  return rs.result;
}

}  // namespace hfl::fl
