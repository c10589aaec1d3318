// Lazy cohort materialization over a virtualized worker population.
//
// `CohortStore` is the pop-side implementation of `fl::CohortProvider`: the
// engine keeps addressing workers by global id through an `fl::WorkerSet`,
// but only the current cohort is backed by real `fl::WorkerState`s. Three
// lifecycle paths, all bit-identical to a run that keeps every worker
// materialized (the engine's built-in full-cohort provider):
//
//   * first materialization — `fl::init_worker_state` (src/fl/state.h),
//     the function the built-in provider builds every worker with: the
//     same descriptor weights (src/fl/population.h), the same x0 and the
//     same stateless stream derivation off the run seed.
//   * spill — a worker leaving the cohort serializes every mutable field
//     (x, y, v, grad, accumulators, `extra`, both batch-stream
//     checkpoints) into the slab.
//   * restore — byte-exact resurrection: the worker resumes mid-run as if
//     it had stayed materialized the whole time (asserted by
//     tests/pop_test.cpp round-trip and tests/pop_parity_test.cpp).
//
// Shell recycling: a spilled worker's WorkerState is not destroyed. It goes
// to a free list as a "shell" — its scratch model, batchers, extras map
// and vector capacity intact — and the next restore or first-time create
// overwrites or resets every field of it except the model, which it runs
// as found. That is only sound because the factory contract (below)
// forbids models that keep state between batches. The model factory runs
// only while the free list is empty, i.e. while the materialized count
// first grows to the cohort size, so a steady-state turnover allocates
// nothing for worker state (the memory slab still stores each newly
// spilled worker's first blob). The built-in full-cohort provider does not
// recycle: it builds every model afresh each run.
//
// Cohort selection: exact weighted sampling by data mass D_i —
// without-replacement via the Fenwick sampler, or with-replacement via the
// alias table, in which case a worker drawn m times carries multiplicity m
// into the engine's roster scale. Every round forks its own child stream
// from the run seed (fork_nth keyed on the round), so cohorts are
// deterministic at any thread count.
//
// Telemetry (obs gauges/counters): pop.population, pop.cohort_size,
// pop.materialized_workers, pop.materialized_peak, pop.spills, pop.restores,
// pop.spill_bytes, pop.restore_bytes, pop.slab.bytes, pop.slab.peak_bytes.
#pragma once

#include <memory>
#include <vector>

#include "src/common/rng.h"
#include "src/data/partitioner.h"
#include "src/fl/engine.h"
#include "src/fl/population.h"
#include "src/pop/sampler.h"
#include "src/pop/slab.h"

namespace hfl::pop {

struct VirtConfig {
  // Workers per cohort. 0 = materialize the full population (virtualized
  // bookkeeping, dense coverage — the parity-test configuration).
  std::size_t cohort_size = 0;
  // With-replacement (alias-table) draws instead of the default exact
  // without-replacement sampling.
  bool with_replacement = false;
  SlabConfig slab;
};

class CohortStore final : public fl::CohortProvider {
 public:
  // `data` and `partition` must outlive the store (pass the same objects
  // the engine was built from — the store replays their batch streams).
  //
  // Factory contract: the models `factory` builds must keep no state from
  // one batch to the next, because a recycled shell hands a restored or
  // fresh worker the model another worker used last. nn::Dropout breaks
  // this (its mask RNG advances with every training pass), so a population
  // model must not contain it.
  CohortStore(nn::ModelFactory factory, const data::TrainTest& data,
              const data::Partition& partition, const fl::Topology& topo,
              const fl::RunConfig& run, VirtConfig cfg);

  // fl::CohortProvider ------------------------------------------------------
  std::size_t population() const override { return pop_.num_workers(); }
  bool sampling() const override {
    return cfg_.cohort_size > 0 && cfg_.cohort_size < pop_.num_workers();
  }
  std::vector<Scalar> base_weights() const override {
    return pop_.base_weights();
  }
  void begin_run(const Vec& x0) override;
  void sample_cohort(std::size_t k, std::vector<fl::WorkerId>& ids,
                     std::vector<Scalar>& multiplicity) override;
  std::vector<fl::WorkerId> set_cohort(
      const std::vector<fl::WorkerId>& ids) override;
  fl::WorkerSet& workers() override { return view_; }
  // Cohort-turnover parallelism: spill serialization, slab reads of
  // returnees and restore/fresh state construction fan out per worker on
  // the host pool. Serial: the departure/arrival bookkeeping, the one
  // batched slab write per turnover, model-factory calls (warm-up only)
  // and telemetry. Bit-identical at any thread count (no cross-worker
  // reductions).
  void attach_pool(ThreadPool* pool) override { host_pool_ = pool; }
  void begin_interval(std::size_t k) override { clock_ = k; }
  // Lazy absent-momentum replay: every spill records the interval clock;
  // a restore at clock m replays the policy (m − stamp) times — the exact
  // per-interval sequence a materialized absent worker would have received
  // from Algorithm::absent_sync, so kReset/kDecay oracles compose with
  // sampled cohorts without materializing anyone.
  void set_absent_replay(fl::AbsentPolicy policy, Scalar decay) override {
    replay_policy_ = policy;
    replay_decay_ = decay;
  }

  // Introspection (tests, bench) -------------------------------------------
  const fl::Population& descriptors() const { return pop_; }
  const VirtConfig& config() const { return cfg_; }
  std::size_t num_materialized() const { return pool_.size(); }
  std::size_t peak_materialized() const { return peak_materialized_; }
  const Slab& slab() const { return slab_; }

 private:
  // Overwrites or resets every field of `w`, which may be a shell last held
  // by another worker; its model is kept.
  void deserialize(fl::WorkerState& w, fl::WorkerId id,
                   const std::vector<char>& blob) const;
  void serialize(const fl::WorkerState& w, std::vector<char>& blob) const;
  // Run fn(i) for i in [0, n) on the host pool when one is attached, else
  // inline. Tasks must be per-index independent.
  void run_tasks(std::size_t n,
                 const std::function<void(std::size_t)>& fn) const;
  void publish_gauges();

  nn::ModelFactory factory_;
  const data::TrainTest* data_;
  const data::Partition* partition_;
  const fl::Topology* topo_;
  fl::RunConfig run_;
  VirtConfig cfg_;
  fl::Population pop_;

  Rng root_;       // Rng(run.seed): fork_nth source for worker streams
  Vec x0_;         // shared initial point of the current run
  Slab slab_;
  AliasSampler alias_;
  FenwickSampler fenwick_;

  std::vector<fl::WorkerState> pool_;       // cohort states, ascending id
  std::vector<std::uint32_t> slot_of_id_;   // population-sized id → slot
  fl::WorkerSet view_;
  std::size_t peak_materialized_ = 0;

  ThreadPool* host_pool_ = nullptr;         // engine-attached, may be null
  std::size_t clock_ = 0;                   // current interval (0 = no clock)
  fl::AbsentPolicy replay_policy_ = fl::AbsentPolicy::kHold;
  Scalar replay_decay_ = 1.0;
  // Turnover scratch, reused across intervals so steady-state cohort
  // turnover allocates nothing: per-worker (de)serialization buffers, the
  // departures (pool slots and ids), each new slot's kind, and the next
  // pool under assembly (empty between turnovers).
  std::vector<std::vector<char>> spill_bufs_;
  std::vector<std::vector<char>> restore_bufs_;
  std::vector<std::uint32_t> departing_;
  std::vector<fl::WorkerId> departing_ids_;
  std::vector<std::uint8_t> kind_;
  std::vector<fl::WorkerState> next_;
  // Recycled worker shells; every one owns a model and both batchers.
  std::vector<fl::WorkerState> free_;
};

}  // namespace hfl::pop
