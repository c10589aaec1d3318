#include "src/pop/cohort_store.h"

#include <algorithm>
#include <cstring>
#include <numeric>
#include <span>

#include "src/common/errors.h"
#include "src/obs/registry.h"

namespace hfl::pop {

namespace {

// Per-round sampling streams: child = root.fork_nth(kCohortSampleTag, k).
// The tag keeps cohort draws disjoint from the worker streams
// (fork_nth(1000 + i, 2 + i)) and the init stream (fork(0x1217)).
constexpr std::uint64_t kCohortSampleTag = 0xC0480A17ull;

// ---- spill blob encoding (little-endian host layout, memcpy'd) ----------

void put_bytes(std::vector<char>& b, const void* p, std::size_t n) {
  const char* c = static_cast<const char*>(p);
  b.insert(b.end(), c, c + n);
}

void put_u64(std::vector<char>& b, std::uint64_t v) {
  put_bytes(b, &v, sizeof v);
}

void put_scalar(std::vector<char>& b, Scalar v) {
  put_bytes(b, &v, sizeof v);
}

void put_vec(std::vector<char>& b, const Vec& v) {
  put_u64(b, v.size());
  if (!v.empty()) put_bytes(b, v.data(), v.size() * sizeof(Scalar));
}

void put_rng(std::vector<char>& b, const RngState& s) {
  for (const std::uint64_t word : s.s) put_u64(b, word);
  put_u64(b, s.fork_counter);
}

void put_batcher(std::vector<char>& b, const data::Batcher& batcher) {
  static_assert(sizeof(std::size_t) == sizeof(std::uint64_t),
                "spill blobs store batch indices as native 64-bit words");
  put_u64(b, batcher.cursor());
  put_rng(b, batcher.rng_state());
  const std::span<const std::size_t> indices = batcher.indices();
  put_u64(b, indices.size());
  put_bytes(b, indices.data(), indices.size() * sizeof(std::size_t));
}

struct Reader {
  const char* p;
  const char* end;

  std::size_t left() const { return static_cast<std::size_t>(end - p); }
  const char* skip(std::size_t n) {
    HFL_CHECK(n <= left(), "truncated worker spill blob");
    const char* at = p;
    p += n;
    return at;
  }
  void take(void* out, std::size_t n) { std::memcpy(out, skip(n), n); }
  std::uint64_t u64() {
    std::uint64_t v;
    take(&v, sizeof v);
    return v;
  }
  Scalar scalar() {
    Scalar v;
    take(&v, sizeof v);
    return v;
  }
  void vec(Vec& v) {
    const std::uint64_t n = u64();
    HFL_CHECK(n <= left() / sizeof(Scalar), "truncated worker spill blob");
    v.resize(n);
    if (n > 0) take(v.data(), n * sizeof(Scalar));
  }
  RngState rng() {
    RngState s;
    for (std::uint64_t& word : s.s) word = u64();
    s.fork_counter = u64();
    return s;
  }
  // Decodes a batch-stream checkpoint straight into `b`.
  void batcher(data::Batcher& b, const data::Dataset& ds,
               std::size_t batch_size) {
    const std::uint64_t cursor = u64();
    const RngState state = rng();
    const std::uint64_t n = u64();
    HFL_CHECK(n <= left() / sizeof(std::size_t),
              "truncated worker spill blob");
    b.restore(ds, skip(n * sizeof(std::size_t)), n, cursor, state,
              batch_size);
  }
};

}  // namespace

CohortStore::CohortStore(nn::ModelFactory factory, const data::TrainTest& data,
                         const data::Partition& partition,
                         const fl::Topology& topo, const fl::RunConfig& run,
                         VirtConfig cfg)
    : factory_(std::move(factory)),
      data_(&data),
      partition_(&partition),
      topo_(&topo),
      run_(run),
      cfg_(std::move(cfg)),
      pop_(topo, partition),
      root_(run.seed),
      slab_(cfg_.slab),
      alias_(pop_.base_weights()),
      fenwick_(pop_.base_weights()),
      view_(&pool_, pop_.num_workers(), &slot_of_id_) {
  HFL_CHECK(cfg_.cohort_size <= pop_.num_workers(),
            "cohort size exceeds the population");
  slot_of_id_.assign(pop_.num_workers(), fl::WorkerSet::kNoSlot);
}

void CohortStore::begin_run(const Vec& x0) {
  x0_ = x0;
  // Every state with a model is a usable shell, batchers included (a state
  // left moved-from by a failed turnover is not).
  for (std::vector<fl::WorkerState>* states : {&pool_, &next_}) {
    for (fl::WorkerState& w : *states) {
      if (w.model) free_.push_back(std::move(w));
    }
    states->clear();
  }
  slot_of_id_.assign(pop_.num_workers(), fl::WorkerSet::kNoSlot);
  slab_.clear();
  peak_materialized_ = 0;
  clock_ = 0;
  replay_policy_ = fl::AbsentPolicy::kHold;  // until set_absent_replay
  replay_decay_ = 1.0;
  publish_gauges();
}

void CohortStore::run_tasks(
    std::size_t n, const std::function<void(std::size_t)>& fn) const {
  if (host_pool_ != nullptr && n > 1) {
    host_pool_->parallel_for(n, fn);
  } else {
    for (std::size_t i = 0; i < n; ++i) fn(i);
  }
}

void CohortStore::sample_cohort(std::size_t k, std::vector<fl::WorkerId>& ids,
                                std::vector<Scalar>& multiplicity) {
  HFL_CHECK(sampling(), "sample_cohort on a full-population store");
  Rng round = root_.fork_nth(kCohortSampleTag, k);
  ids.clear();
  multiplicity.clear();
  if (cfg_.with_replacement) {
    // m_i draws of worker i contribute mass m_i · D_i to the round's
    // aggregation (the roster scale), keeping the estimator unbiased.
    std::vector<fl::WorkerId> draws(cfg_.cohort_size);
    for (fl::WorkerId& d : draws) {
      d = static_cast<fl::WorkerId>(alias_.draw(round));
    }
    std::sort(draws.begin(), draws.end());
    for (std::size_t i = 0; i < draws.size();) {
      std::size_t j = i;
      while (j < draws.size() && draws[j] == draws[i]) ++j;
      ids.push_back(draws[i]);
      multiplicity.push_back(static_cast<Scalar>(j - i));
      i = j;
    }
  } else {
    std::vector<std::uint32_t> draws = fenwick_.sample(cfg_.cohort_size, round);
    std::sort(draws.begin(), draws.end());
    ids.assign(draws.begin(), draws.end());
    multiplicity.assign(ids.size(), 1.0);
  }
}

std::vector<fl::WorkerId> CohortStore::set_cohort(
    const std::vector<fl::WorkerId>& ids) {
  for (std::size_t i = 0; i < ids.size(); ++i) {
    HFL_CHECK(ids[i] < pop_.num_workers(), "cohort id out of range");
    HFL_CHECK(i == 0 || ids[i - 1] < ids[i],
              "cohort ids must be ascending and unique");
  }

  // Spill every current worker that is not in the new cohort (both lists
  // are ascending, so one merge pass finds the departures). Serialization
  // fans out per departure — each task reads one worker and writes one
  // private buffer — and the slab then takes the whole batch in one call,
  // in ascending-id order. The departed states become shells for this
  // turnover's restores and first-time creates.
  departing_.clear();
  departing_ids_.clear();
  std::size_t j = 0;
  for (std::size_t s = 0; s < pool_.size(); ++s) {
    const fl::WorkerId id = pool_[s].id;
    while (j < ids.size() && ids[j] < id) ++j;
    if (j == ids.size() || ids[j] != id) {
      departing_.push_back(static_cast<std::uint32_t>(s));
      departing_ids_.push_back(id);
    }
  }
  const std::size_t num_departing = departing_.size();
  if (spill_bufs_.size() < num_departing) spill_bufs_.resize(num_departing);
  run_tasks(num_departing, [&](std::size_t d) {
    serialize(pool_[departing_[d]], spill_bufs_[d]);
  });
  slab_.put(departing_ids_,
            std::span<const std::vector<char>>(spill_bufs_.data(),
                                               num_departing));
  std::uint64_t spill_bytes = 0;
  for (std::size_t d = 0; d < num_departing; ++d) {
    spill_bytes += spill_bufs_[d].size();
    slot_of_id_[departing_ids_[d]] = fl::WorkerSet::kNoSlot;
    free_.push_back(std::move(pool_[departing_[d]]));
  }

  // Assemble the new cohort. Serial bookkeeping classifies each slot (keep
  // a stayer, restore a returnee, create a first-timer) and moves a stayer
  // or a shell into it; the factory — caller-supplied, not required to be
  // thread-safe — runs only while there are fewer shells than the cohort
  // needs, i.e. during warm-up. Then the per-worker work fans out into
  // disjoint slots: slab reads (the index is read-only meanwhile), blob
  // decode, batch-stream reconstruction, absent-policy replay, fresh
  // initialization. fork_nth is const (stateless child derivation), so
  // concurrent fresh materializations off the shared root are safe.
  enum : std::uint8_t { kKeep, kRestore, kFresh };
  kind_.resize(ids.size());
  std::vector<fl::WorkerId> fresh;
  std::size_t num_restored = 0;
  std::uint64_t restore_bytes = 0;
  for (std::size_t i = 0; i < ids.size(); ++i) {
    const fl::WorkerId id = ids[i];
    if (slot_of_id_[id] != fl::WorkerSet::kNoSlot) {
      kind_[i] = kKeep;
    } else if (slab_.contains(id)) {
      kind_[i] = kRestore;
      restore_bytes += slab_.length(id);
      ++num_restored;
    } else {
      kind_[i] = kFresh;
      fresh.push_back(id);
    }
  }
  while (free_.size() < num_restored + fresh.size()) {
    fl::WorkerState& shell = free_.emplace_back();
    shell.model = factory_();
    shell.batcher = std::make_unique<data::Batcher>();
    shell.aux_batcher = std::make_unique<data::Batcher>();
  }
  for (std::size_t i = 0; i < ids.size(); ++i) {
    if (kind_[i] == kKeep) {
      next_.push_back(std::move(pool_[slot_of_id_[ids[i]]]));
    } else {
      next_.push_back(std::move(free_.back()));
      free_.pop_back();
    }
  }

  if (restore_bufs_.size() < ids.size()) restore_bufs_.resize(ids.size());
  run_tasks(ids.size(), [&](std::size_t i) {
    switch (kind_[i]) {
      case kKeep:
        break;
      case kRestore:
        slab_.get(ids[i], restore_bufs_[i]);
        deserialize(next_[i], ids[i], restore_bufs_[i]);
        break;
      case kFresh:
        fl::init_worker_state(next_[i], ids[i], pop_, x0_, root_,
                              data_->train, *partition_, run_.batch_size);
        break;
    }
  });

  // The old pool now holds only moved-from states.
  pool_.swap(next_);
  next_.clear();
  for (std::size_t s = 0; s < pool_.size(); ++s) {
    slot_of_id_[pool_[s].id] = static_cast<std::uint32_t>(s);
  }
  peak_materialized_ = std::max(peak_materialized_, pool_.size());
  if (obs::enabled()) {
    obs::Registry& reg = obs::Registry::global();
    if (num_departing > 0) {
      reg.counter("pop.spills").add(num_departing);
      reg.counter("pop.spill_bytes").add(spill_bytes);
    }
    if (num_restored > 0) {
      reg.counter("pop.restores").add(num_restored);
      reg.counter("pop.restore_bytes").add(restore_bytes);
    }
    if (!fresh.empty()) {
      reg.counter("pop.materializations").add(fresh.size());
    }
  }
  publish_gauges();
  return fresh;
}

void CohortStore::serialize(const fl::WorkerState& w,
                            std::vector<char>& blob) const {
  blob.clear();
  put_vec(blob, w.x);
  put_vec(blob, w.y);
  put_vec(blob, w.v);
  put_vec(blob, w.grad);
  put_scalar(blob, w.last_loss);
  put_vec(blob, w.sum_grad);
  put_vec(blob, w.sum_y);
  put_vec(blob, w.sum_v);
  put_u64(blob, w.extra.size());
  for (const auto& [name, vec] : w.extra) {  // std::map: sorted, stable
    put_u64(blob, name.size());
    put_bytes(blob, name.data(), name.size());
    put_vec(blob, vec);
  }
  put_batcher(blob, *w.batcher);
  put_batcher(blob, *w.aux_batcher);
  // Interval stamp: the worker has observed every synchronization finish
  // up to (not including) the interval whose set_cohort spilled it.
  put_u64(blob, clock_);
}

void CohortStore::deserialize(fl::WorkerState& w, fl::WorkerId id,
                              const std::vector<char>& blob) const {
  // Descriptor fields are rebuilt and the shell's scratch model is kept
  // (the factory contract: it holds no cross-batch state); everything
  // mutable comes back byte for byte, overwriting whatever the shell's
  // previous holder left.
  const std::size_t i = id;
  w.id = id;
  w.edge = pop_.edge_of(i);
  w.num_samples = pop_.num_samples(i);
  w.weight_in_edge = pop_.weight_in_edge(i);
  w.weight_global = pop_.weight_global(i);
  w.clear_transients();

  Reader r{blob.data(), blob.data() + blob.size()};
  r.vec(w.x);
  r.vec(w.y);
  r.vec(w.v);
  r.vec(w.grad);
  w.last_loss = r.scalar();
  r.vec(w.sum_grad);
  r.vec(w.sum_y);
  r.vec(w.sum_v);
  const std::uint64_t extras = r.u64();
  w.extra.clear();
  for (std::uint64_t e = 0; e < extras; ++e) {
    std::string name(r.u64(), '\0');
    r.take(name.data(), name.size());
    r.vec(w.extra[name]);
  }
  r.batcher(*w.batcher, data_->train, run_.batch_size);
  r.batcher(*w.aux_batcher, data_->train, run_.batch_size);
  const std::uint64_t stamp = r.u64();
  HFL_CHECK(r.p == r.end, "worker spill blob has trailing bytes");

  // Absent-policy replay: the worker missed every interval from its spill
  // stamp up to (not including) the current one. A dense run applies the
  // policy once at the end of each missed interval, and nothing else
  // touches an absent worker's state in between, so replaying the exact
  // per-interval sequence here is bit-identical (kDecay's repeated
  // y ← x + d(y − x) does NOT fold into a single d^m application in
  // floating point — the loop is the contract). kReset is idempotent and
  // applied once; kHold holds, which spilled state already does.
  HFL_CHECK(stamp <= clock_, "worker spill stamp is from the future");
  const std::uint64_t missed = clock_ - stamp;
  if (missed > 0) {
    switch (replay_policy_) {
      case fl::AbsentPolicy::kHold:
        break;
      case fl::AbsentPolicy::kReset:
        fl::apply_absent_policy(w, replay_policy_, replay_decay_);
        break;
      case fl::AbsentPolicy::kDecay:
        for (std::uint64_t m = 0; m < missed; ++m) {
          fl::apply_absent_policy(w, replay_policy_, replay_decay_);
        }
        break;
    }
  }
}

void CohortStore::publish_gauges() {
  if (!obs::enabled()) return;
  obs::Registry& reg = obs::Registry::global();
  reg.gauge("pop.population").set(static_cast<double>(pop_.num_workers()));
  reg.gauge("pop.cohort_size").set(static_cast<double>(cfg_.cohort_size));
  reg.gauge("pop.materialized_workers")
      .set(static_cast<double>(pool_.size()));
  reg.gauge("pop.materialized_peak")
      .set_max(static_cast<double>(peak_materialized_));
  reg.gauge("pop.slab.bytes").set(static_cast<double>(slab_.bytes()));
  reg.gauge("pop.slab.peak_bytes")
      .set_max(static_cast<double>(slab_.peak_bytes()));
}

}  // namespace hfl::pop
