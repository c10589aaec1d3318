#include "src/evt/async_engine.h"

#include <algorithm>
#include <deque>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "src/common/errors.h"
#include "src/common/rng.h"
#include "src/common/vec_ops.h"
#include "src/evt/event_queue.h"
#include "src/fl/state.h"
#include "src/net/profiles.h"
#include "src/obs/comm.h"
#include "src/obs/registry.h"
#include "src/obs/trace.h"
#include "src/sim/fault_plan.h"

namespace hfl::evt {

namespace {

// The embedded fl::Engine always carries the sync policy: the requested
// config is validated FIRST, so policy-specific errors (semi_async without a
// deadline, async + batched cohort) surface against the user's actual
// settings, and only then sanitized down to what fl::Engine accepts.
// Everything the event-driven paths read through Context::cfg (τ, π, the
// staleness knobs, seeds) is preserved.
fl::RunConfig toolbox_config(fl::RunConfig cfg) {
  cfg.validate();
  cfg.policy = fl::ExecPolicy::kSync;
  cfg.semi_async_deadline_s = 0.0;
  cfg.adaptive_deadline = false;
  return cfg;
}

// v ← (1−α)·pre + α·v — the damped fold of an asynchronous aggregation: the
// aggregator only moves by the admitted cohort's effective (staleness-scaled)
// mass. A full fresh cohort has α = 1 and keeps the plain aggregation; a
// lone stale straggler barely moves the tier. Vectors the aggregation
// resized (algorithm-specific scratch appearing mid-run) are kept as-is.
void damp(Vec& v, const Vec& pre, Scalar alpha) {
  if (alpha >= 1.0 || v.size() != pre.size()) return;
  vec::axpby(1.0 - alpha, pre, alpha, v);  // fused (1−α)·pre + α·v
}

// s(τ) = staleness_decay^τ.
Scalar staleness_weight(Scalar decay, std::size_t tau) {
  Scalar s = 1.0;
  for (std::size_t i = 0; i < tau; ++i) s *= decay;
  return s;
}

// Bucket bounds of the evt.staleness histogram (aggregator versions).
const std::vector<double>& staleness_bounds() {
  static const std::vector<double> bounds{0, 1, 2, 4, 8, 16};
  return bounds;
}

}  // namespace

// The aggregation-visible slice of a worker's state, frozen at upload time
// and stamped with the aggregator version of the model the interval was
// trained on. While the snapshot is in flight the live worker keeps training
// (communication overlaps computation); the aggregation later folds the
// snapshot, never the live state.
struct UploadSnapshot {
  std::size_t download_version = 0;
  Vec x, y, v, grad;
  Scalar last_loss = 0;
  Vec sum_grad, sum_y, sum_v;
  std::map<std::string, Vec> extra;
};

// One arrived upload, as the cohort-sync helpers consume it.
struct Arrival {
  std::size_t w = 0;
  UploadSnapshot snap;
};

// A refresh in flight toward one worker: the version stamp plus exactly the
// fields the aggregation's push-down changed (x is always present — every
// aggregation re-anchors its cohort on the damped tier model). Applied at
// the worker's next interval boundary; an older message never overwrites a
// newer one, so download_version is monotone per worker.
struct DownloadMsg {
  std::size_t version = 0;
  bool has_y = false, has_v = false, has_grad = false;
  bool has_sum_grad = false, has_sum_y = false, has_sum_v = false;
  Vec x, y, v, grad, sum_grad, sum_y, sum_v;
  std::map<std::string, Vec> extra;  // changed entries only
};

namespace {

// Freeze the aggregation-visible fields; the live worker keeps its model and
// momentum (it continues training from where it stands) but hands its
// interval accumulators to the snapshot (they describe the uploaded
// interval, not the next one).
UploadSnapshot snapshot_worker(fl::WorkerState& ws, std::size_t version) {
  UploadSnapshot s;
  s.download_version = version;
  s.x = ws.x;
  s.y = ws.y;
  s.v = ws.v;
  s.grad = ws.grad;
  s.last_loss = ws.last_loss;
  s.sum_grad = ws.sum_grad;
  s.sum_y = ws.sum_y;
  s.sum_v = ws.sum_v;
  s.extra = ws.extra;
  ws.reset_interval_accumulators();
  return s;
}

// Swap the aggregation-visible fields between the live worker and a
// snapshot. Aggregations run against the snapshot state swapped in (so
// Algorithm hooks read/write plain WorkerState), then swap back — the live
// in-progress state is never touched by a sync. Model/batcher handles and
// the static weights stay with the live state.
void swap_snapshot(fl::WorkerState& ws, UploadSnapshot& s) {
  std::swap(ws.x, s.x);
  std::swap(ws.y, s.y);
  std::swap(ws.v, s.v);
  std::swap(ws.grad, s.grad);
  std::swap(ws.last_loss, s.last_loss);
  std::swap(ws.sum_grad, s.sum_grad);
  std::swap(ws.sum_y, s.sum_y);
  std::swap(ws.sum_v, s.sum_v);
  std::swap(ws.extra, s.extra);
}

// Copy of the push-down-visible fields taken right before Algorithm sync
// hooks run, to diff what the push-down actually changed.
struct PushBase {
  Vec y, v, grad, sum_grad, sum_y, sum_v;
  std::map<std::string, Vec> extra;
};

PushBase push_baseline(const fl::WorkerState& ws) {
  return PushBase{ws.y,     ws.v,     ws.grad, ws.sum_grad,
                  ws.sum_y, ws.sum_v, ws.extra};
}

// Compose the download for one admitted worker: the damped tier model plus
// whatever else the algorithm's push-down wrote (diffed against the
// pre-sync baseline, so e.g. HierAdMo's momentum hand-off w.y = e.y_minus
// travels while untouched scratch does not).
DownloadMsg diff_pushdown(const fl::WorkerState& ws, const PushBase& base,
                          std::size_t version, const Vec& anchor) {
  DownloadMsg m;
  m.version = version;
  m.x = anchor;
  if (ws.y != base.y) {
    m.has_y = true;
    m.y = ws.y;
  }
  if (ws.v != base.v) {
    m.has_v = true;
    m.v = ws.v;
  }
  if (ws.grad != base.grad) {
    m.has_grad = true;
    m.grad = ws.grad;
  }
  if (ws.sum_grad != base.sum_grad) {
    m.has_sum_grad = true;
    m.sum_grad = ws.sum_grad;
  }
  if (ws.sum_y != base.sum_y) {
    m.has_sum_y = true;
    m.sum_y = ws.sum_y;
  }
  if (ws.sum_v != base.sum_v) {
    m.has_sum_v = true;
    m.sum_v = ws.sum_v;
  }
  for (const auto& [name, vv] : ws.extra) {
    const auto it = base.extra.find(name);
    if (it == base.extra.end() || it->second != vv) m.extra.emplace(name, vv);
  }
  return m;
}

}  // namespace

// Mutable state of one event-driven run. The fl::RunState inside must not
// move after prepare_run (Context holds pointers into it), so EvtRun lives
// on run_event_driven's stack and is only ever passed by reference.
struct EvtRun {
  fl::RunState rs;
  EventQueue q;
  std::unique_ptr<fl::Participation> mpart;  // per-aggregation roster view
  const sim::FaultPlan* plan = nullptr;
  const fl::ParticipationSchedule* schedule = nullptr;  // null = fault-free
  bool three_tier = true;
  std::size_t K = 0;            // edge intervals per worker (T/τ)
  Scalar last_time = 0;         // latest modeled instant touched
  std::size_t steps_total = 0;  // local steps executed across all workers
  std::string policy_label;     // obs label, e.g. "policy=semi_async"

  // Per-entity latency streams forked off TimeSimConfig::seed: arrival ORDER
  // depends on the sampled delays, but each entity's delay SEQUENCE depends
  // only on the seed — no handler ordering can perturb another stream.
  // wrng feeds each worker's compute + upload draws (in that alternating
  // order per interval), wdrng its download-leg draws, so splitting the
  // monolithic worker event did not reorder any existing stream.
  std::vector<Rng> wrng, wdrng, erng;
  Rng crng{0};

  // Worker progress: completed intervals (quota K), aggregator version of
  // the model the worker currently trains on (the staleness base of its next
  // upload), last observed availability.
  std::vector<std::size_t> w_interval, w_version;
  std::vector<std::uint8_t> w_up;

  // In-flight communication state per worker: FIFO of snapshots racing up
  // the uplink (the uplink serializes, so arrivals are FIFO too), the
  // instant the uplink frees up, and the latest received-but-unapplied
  // refresh (newer versions supersede older ones in this slot).
  std::vector<std::deque<UploadSnapshot>> w_upq;
  std::vector<Scalar> uplink_free;
  std::vector<DownloadMsg> w_pending;
  std::vector<std::uint8_t> w_has_pending;
  // In-flight download payloads, indexed by Event::round of kWorkerDownload.
  std::vector<DownloadMsg> dmsgs;

  // Edge aggregator state: version (bumped per aggregation and per
  // cloud-driven model refresh), fault-schedule round counter, edge
  // intervals since the last cloud push, cloud version at the last cloud
  // interaction, semi-async inbox + armed-deadline flag.
  std::vector<std::size_t> e_version, e_round, e_since_cloud, e_cloud_base;
  std::vector<std::vector<Arrival>> e_inbox;
  std::vector<std::uint8_t> e_deadline_armed, e_up;

  std::size_t cloud_version = 0;
  std::vector<Arrival> c_inbox;  // two-tier semi-async
  bool c_deadline_armed = false;

  // Adaptive semi-async deadlines: per-aggregator EWMA of the observed
  // arrival spread (last − first arrival of each fired round) and the
  // current round's spread trackers. Seeded so the first armed deadline is
  // exactly semi_async_deadline_s.
  std::vector<Scalar> e_deadline_ewma, e_first_arrival, e_last_arrival;
  Scalar c_deadline_ewma = 0, c_first_arrival = 0, c_last_arrival = 0;

  // Staleness accounting (RunResult + obs).
  std::size_t admitted = 0, stale = 0, dropped = 0, max_tau = 0;
  Scalar tau_sum = 0;

  // Communication-event accounting.
  std::size_t uploads_arrived = 0, uploads_coalesced = 0;
  std::size_t downloads_scheduled = 0, downloads_applied = 0;
  std::size_t downloads_superseded = 0;
  Scalar overlap_s = 0;

  // Roster scratch reused across aggregations: the admitted ids
  // (ascending — inboxes coalesce per worker and are sorted), their up
  // bits and staleness weights, and the edge roster.
  std::vector<fl::WorkerId> roster_ids;
  std::vector<std::uint8_t> roster_up, roster_e;
  std::vector<Scalar> scale;
};

AsyncEngine::AsyncEngine(nn::ModelFactory factory, const data::TrainTest& data,
                         data::Partition partition, fl::Topology topo,
                         fl::RunConfig cfg, net::TimeSimConfig sim)
    : cfg_(cfg),
      sim_(std::move(sim)),
      engine_(std::move(factory), data, std::move(partition), std::move(topo),
              toolbox_config(cfg)) {
  if (sim_.model_params == 0) {
    sim_.model_params = engine_.factory_()->num_params();
  }
  if (sim_.worker_devices.empty()) {
    sim_.worker_devices = net::default_worker_roster(engine_.topo_.num_workers());
  }
  sim_.fault_plan = nullptr;  // plans are per-run; see run()
  model_ = std::make_unique<net::LatencyModel>(engine_.topo_, sim_);
}

fl::RunResult AsyncEngine::run(fl::Algorithm& alg, const sim::FaultPlan* plan) {
  if (cfg_.policy == fl::ExecPolicy::kSync) return run_sync(alg, plan);
  return run_event_driven(alg, plan);
}

// ---------------------------------------------------------------------------
// Sync policy: fl::Engine's barrier schedule itself, so it is bit-identical
// to fl::Engine by construction. Modeled time is stamped afterwards from a
// net::TimeSimulator barrier replay of the same run (additive: iteration,
// loss, accuracy and all engine.* counters are untouched).
// ---------------------------------------------------------------------------
fl::RunResult AsyncEngine::run_sync(fl::Algorithm& alg,
                                    const sim::FaultPlan* plan) {
  fl::RunResult result =
      engine_.run(alg, plan != nullptr ? &plan->schedule() : nullptr);
  net::TimeSimConfig tsim = sim_;
  tsim.fault_plan = plan;
  const net::TimeSimulator ts(engine_.topo_, engine_.cfg_, tsim);
  for (fl::MetricPoint& p : result.curve) {
    p.sim_time = ts.time_at_iteration(p.iteration);
  }
  result.sim_seconds = ts.total_time();
  return result;
}

// ---------------------------------------------------------------------------
// Event-driven policies (semi_async / async).
// ---------------------------------------------------------------------------

// Schedule worker w's next interval of local compute: sample its duration
// from the worker's own latency stream and push the compute-done event.
// Availability and straggler factors come from the fault schedule, resolved
// against the worker's OWN interval counter (capped at the schedule horizon)
// — in an asynchronous run workers drift apart, so "interval k" is
// per-worker progress, not global time. Returns the sampled duration (0 when
// the quota is exhausted or the interval is an offline re-check), which the
// caller uses for the comm/compute overlap accounting.
Scalar AsyncEngine::dispatch_compute(fl::Algorithm& alg, EvtRun& er,
                                     std::size_t w, Scalar base) {
  (void)alg;
  const std::size_t kw = er.w_interval[w] + 1;
  if (kw > er.K) return 0;  // quota exhausted — worker is done
  bool up = true;
  Scalar slowdown = 1.0;
  if (er.schedule != nullptr) {
    const std::size_t kc = std::min(kw, er.schedule->num_intervals);
    up = er.schedule->worker_available(kc, w);
    if (up) slowdown = er.schedule->worker_slowdown(kc, w);
  }
  note_availability(er, /*is_edge=*/false, w, up, base);
  if (!up) {
    // Offline interval: nothing is computed or uploaded; the worker
    // re-checks after a nominal (unstretched) interval of compute time so
    // the outage still occupies modeled time.
    const Scalar dt = model_->worker_compute(er.wrng[w], w, engine_.cfg_.tau);
    er.q.push({base + dt, 0, EventType::kWorkerReady, w, kw, /*absent=*/true,
               false});
    return 0;
  }
  const Scalar compute =
      model_->worker_compute(er.wrng[w], w, engine_.cfg_.tau) * slowdown;
  er.q.push({base + compute, 0, EventType::kWorkerReady, w, kw, false, false});
  return compute;
}

// Record an availability flip as a fault event the first time it is observed
// (rosters themselves are resolved at dispatch/admission points).
void AsyncEngine::note_availability(EvtRun& er, bool is_edge, std::size_t id,
                                    bool up, Scalar time) {
  std::uint8_t& cur = is_edge ? er.e_up[id] : er.w_up[id];
  if ((cur != 0) == up) return;
  cur = up ? 1 : 0;
  er.q.push({time, 0, EventType::kFault, id, 0, up, is_edge});
}

// A worker misses interval consumption without contributing an update (its
// own outage): apply the absent-momentum policy, consume the interval and
// schedule the next one.
void AsyncEngine::miss_interval(fl::Algorithm& alg, EvtRun& er, std::size_t w,
                                Scalar tev) {
  fl::RunState& rs = er.rs;
  ++er.w_interval[w];
  rs.ctx.part = er.mpart.get();
  alg.absent_sync(rs.ctx, rs.workers[w], er.w_interval[w]);
  rs.ctx.part = nullptr;
  if (!rs.result.worker_miss_counts.empty()) {
    ++rs.result.worker_miss_counts[w];
  }
  dispatch_compute(alg, er, w, tev);
}

// A worker's already-uploaded update was refused by a dark aggregator: its
// interval is already consumed and its next compute already dispatched, so
// only the sync-miss bookkeeping runs (absent-momentum hook on the live
// state + the miss count).
void AsyncEngine::miss_sync(fl::Algorithm& alg, EvtRun& er, std::size_t w) {
  fl::RunState& rs = er.rs;
  rs.ctx.part = er.mpart.get();
  alg.absent_sync(rs.ctx, rs.workers[w], er.w_interval[w]);
  rs.ctx.part = nullptr;
  if (!rs.result.worker_miss_counts.empty()) {
    ++rs.result.worker_miss_counts[w];
  }
}

// Apply the latest received refresh, if any, at an interval boundary. Only a
// strictly newer version overwrites the worker (monotone download_version);
// a refresh the worker outran — it already holds a newer version — is
// counted superseded and discarded.
void AsyncEngine::apply_pending_download(EvtRun& er, std::size_t w) {
  if (!er.w_has_pending[w]) return;
  er.w_has_pending[w] = 0;
  DownloadMsg& m = er.w_pending[w];
  if (m.version <= er.w_version[w]) {
    ++er.downloads_superseded;
    return;
  }
  fl::WorkerState& ws = er.rs.workers[w];
  ws.x = std::move(m.x);
  if (m.has_y) ws.y = std::move(m.y);
  if (m.has_v) ws.v = std::move(m.v);
  if (m.has_grad) ws.grad = std::move(m.grad);
  if (m.has_sum_grad) ws.sum_grad = std::move(m.sum_grad);
  if (m.has_sum_y) ws.sum_y = std::move(m.sum_y);
  if (m.has_sum_v) ws.sum_v = std::move(m.sum_v);
  for (auto& [name, vv] : m.extra) ws.extra[name] = std::move(vv);
  er.w_version[w] = m.version;
  ++er.downloads_applied;
  er.w_pending[w] = DownloadMsg{};
}

// Put one refresh on the wire: sample the worker's own download leg, charge
// the bytes, and push the arrival event (round = payload index).
void AsyncEngine::schedule_download(EvtRun& er, std::size_t w, DownloadMsg msg,
                                    Scalar base) {
  const Scalar dt = model_->worker_download(er.wdrng[w], w);
  const std::size_t idx = er.dmsgs.size();
  er.dmsgs.push_back(std::move(msg));
  er.q.push({base + dt, 0, EventType::kWorkerDownload, w, idx, false, false});
  ++er.downloads_scheduled;
  er.last_time = std::max(er.last_time, base + dt);
  if (obs::enabled()) {
    obs::CommAccountant::global().record(
        er.three_tier ? obs::Link::kEdgeToWorker : obs::Link::kCloudToWorker,
        er.three_tier ? er.rs.workers[w].edge : w, er.rs.worker_down_bytes);
  }
}

// A refresh lands at worker w: stash it as the pending download unless a
// newer version is already pending or applied.
void AsyncEngine::download_arrival(EvtRun& er, const Event& ev) {
  const std::size_t w = ev.entity;
  DownloadMsg m = std::move(er.dmsgs[ev.round]);
  if (m.version <= er.w_version[w] ||
      (er.w_has_pending[w] && er.w_pending[w].version >= m.version)) {
    ++er.downloads_superseded;
    return;
  }
  if (er.w_has_pending[w]) ++er.downloads_superseded;
  er.w_pending[w] = std::move(m);
  er.w_has_pending[w] = 1;
}

// A worker finishes one interval of local compute: run its τ local steps
// lazily (so it trains on exactly the model it last downloaded), snapshot
// the result onto the uplink, apply any refresh that arrived while it was
// computing, and immediately start the next interval — the upload's flight
// time overlaps the next compute.
void AsyncEngine::worker_arrival(fl::Algorithm& alg, EvtRun& er,
                                 const Event& ev) {
  fl::RunState& rs = er.rs;
  const std::size_t w = ev.entity;
  if (ev.flag) {  // offline interval (scheduled by dispatch_compute)
    miss_interval(alg, er, w, ev.time);
    return;
  }

  fl::WorkerState& ws = rs.workers[w];
  {
    const obs::Span span("local_steps", "worker");
    for (std::size_t s = 0; s < engine_.cfg_.tau; ++s) {
      rs.ctx.t = ++er.steps_total;
      alg.local_step(rs.ctx, ws);
    }
  }
  const std::size_t kw = ++er.w_interval[w];

  // Snapshot the finished interval onto the uplink (FIFO: the link
  // serializes, so a pipelined upload waits for the previous one to clear).
  er.w_upq[w].push_back(snapshot_worker(ws, er.w_version[w]));
  std::size_t attempts = 1;
  if (er.schedule != nullptr && er.plan != nullptr) {
    attempts =
        er.plan->upload_attempts(std::min(kw, er.schedule->num_intervals), w);
  }
  const Scalar up_start = std::max(ev.time, er.uplink_free[w]);
  const Scalar upload = model_->worker_upload(er.wrng[w], w, attempts);
  const Scalar arrive = up_start + upload;
  er.uplink_free[w] = arrive;
  er.q.push({arrive, 0, EventType::kWorkerUpload, w, kw, false, false});
  er.last_time = std::max(er.last_time, arrive);

  // Interval boundary: fold in the freshest refresh received in flight, then
  // start the next interval's compute while the upload travels.
  apply_pending_download(er, w);
  const Scalar next_compute = dispatch_compute(alg, er, w, ev.time);
  if (next_compute > 0) {
    const Scalar overlap =
        std::min(arrive, ev.time + next_compute) - up_start;
    if (overlap > 0) er.overlap_s += overlap;
  }
}

// A worker's upload lands at its aggregator: charge the uplink bytes (the
// transfer happened whatever its fate) and route per policy.
void AsyncEngine::upload_arrival(fl::Algorithm& alg, EvtRun& er,
                                 const Event& ev) {
  fl::RunState& rs = er.rs;
  const std::size_t w = ev.entity;
  HFL_CHECK(!er.w_upq[w].empty(), "upload arrival without an in-flight snapshot");
  Arrival arr{w, std::move(er.w_upq[w].front())};
  er.w_upq[w].pop_front();
  ++er.uploads_arrived;
  if (obs::enabled()) {
    // Every arrival is charged exactly once, here — including updates later
    // discarded for staleness or refused by a dark aggregator, whose bytes
    // were spent all the same.
    obs::CommAccountant::global().record(
        er.three_tier ? obs::Link::kWorkerToEdge : obs::Link::kWorkerToCloud,
        er.three_tier ? rs.workers[w].edge : w, rs.worker_up_bytes);
  }

  if (er.three_tier) {
    const std::size_t e = rs.workers[w].edge;
    if (cfg_.policy == fl::ExecPolicy::kSemiAsync) {
      // Admission happens when the edge's deadline fires; arm it on the
      // round's first arrival. A worker that laps the deadline (its next
      // upload arrives before the round fires) coalesces: the newer
      // snapshot subsumes the older one — uploads are cumulative states,
      // so no work is lost.
      auto& inbox = er.e_inbox[e];
      bool coalesced = false;
      for (Arrival& prev : inbox) {
        if (prev.w == w) {
          prev.snap = std::move(arr.snap);
          ++er.uploads_coalesced;
          coalesced = true;
          break;
        }
      }
      if (!coalesced) inbox.push_back(std::move(arr));
      er.e_last_arrival[e] = ev.time;
      if (!er.e_deadline_armed[e]) {
        er.e_deadline_armed[e] = 1;
        er.e_first_arrival[e] = ev.time;
        er.q.push({ev.time + aggregator_deadline(er, /*edge_tier=*/true, e), 0,
                   EventType::kEdgeSync, e, 0, false, false});
      }
      return;
    }
    // Fully async: the arrival IS the aggregation trigger.
    bool eup = true;
    if (er.schedule != nullptr) {
      const std::size_t kc =
          std::min(er.e_round[e] + 1, er.schedule->num_intervals);
      eup = er.schedule->edge_available(kc, e);
    }
    note_availability(er, /*is_edge=*/true, e, eup, ev.time);
    if (!eup) {
      // Refused at a dark edge: the update is lost and the refusal consumes
      // one edge schedule round — a long outage burns through its scheduled
      // rounds instead of freezing the subtree forever.
      ++er.dropped;
      ++er.e_round[e];
      miss_sync(alg, er, w);
      return;
    }
    std::vector<Arrival> cohort;
    cohort.push_back(std::move(arr));
    edge_cohort_sync(alg, er, e, std::move(cohort), ev.time);
    return;
  }

  // Two-tier: workers talk straight to the cloud.
  if (cfg_.policy == fl::ExecPolicy::kSemiAsync) {
    auto& inbox = er.c_inbox;
    bool coalesced = false;
    for (Arrival& prev : inbox) {
      if (prev.w == w) {
        prev.snap = std::move(arr.snap);
        ++er.uploads_coalesced;
        coalesced = true;
        break;
      }
    }
    if (!coalesced) inbox.push_back(std::move(arr));
    er.c_last_arrival = ev.time;
    if (!er.c_deadline_armed) {
      er.c_deadline_armed = true;
      er.c_first_arrival = ev.time;
      er.q.push({ev.time + aggregator_deadline(er, /*edge_tier=*/false, 0), 0,
                 EventType::kCloudSync, 0, 0, /*deadline=*/true, false});
    }
    return;
  }
  std::vector<Arrival> cohort;
  cohort.push_back(std::move(arr));
  cloud_cohort_sync(alg, er, std::move(cohort), ev.time);
}

// Current admission deadline of an aggregator. Fixed at
// semi_async_deadline_s unless adaptive_deadline tunes it per round:
// deadline = deadline_margin × EWMA(arrival spread), clamped to
// [0.25, 4] × the configured base so a degenerate round (single arrival,
// spread 0) cannot collapse the deadline to zero.
Scalar AsyncEngine::aggregator_deadline(const EvtRun& er, bool edge_tier,
                                        std::size_t e) const {
  const Scalar base = cfg_.semi_async_deadline_s;
  if (!cfg_.adaptive_deadline) return base;
  const Scalar ewma = edge_tier ? er.e_deadline_ewma[e] : er.c_deadline_ewma;
  return std::min(4.0 * base,
                  std::max(0.25 * base, cfg_.deadline_margin * ewma));
}

// Fold a fired round's observed arrival spread into the aggregator's EWMA.
void AsyncEngine::note_round_spread(EvtRun& er, bool edge_tier,
                                    std::size_t e) {
  if (!cfg_.adaptive_deadline) return;
  Scalar& ewma = edge_tier ? er.e_deadline_ewma[e] : er.c_deadline_ewma;
  const Scalar spread = edge_tier
                            ? er.e_last_arrival[e] - er.e_first_arrival[e]
                            : er.c_last_arrival - er.c_first_arrival;
  ewma = 0.5 * (ewma + spread);
}

// Cloud-driven edge model refresh: the edge's model changed without an edge
// aggregation, so bump the edge version and broadcast the new anchor to the
// whole subtree as ordinary versioned downloads — in-flight workers keep
// their causal view and pick the refresh up at their next boundary.
// Momentum travels with the edge's next aggregation push-down, not here
// (the cloud re-anchor is model-only).
void AsyncEngine::broadcast_edge_refresh(EvtRun& er, std::size_t e,
                                         Scalar base) {
  const std::size_t version = ++er.e_version[e];
  const fl::EdgeState& es = er.rs.edges[e];
  for (const std::size_t w : engine_.topo_.workers_of_edge(e)) {
    DownloadMsg m;
    m.version = version;
    m.x = es.x_plus;
    schedule_download(er, w, std::move(m), base);
  }
}

// Edge aggregation over an arrived cohort of upload snapshots. Splits the
// cohort by the staleness bound (τ measured against each snapshot's
// download_version), swaps the admitted snapshots in as the worker states
// Algorithm::edge_sync reads, folds the result with the damped α-mix, then
// swaps the live states back and ships each cohort member a versioned
// download (admitted: the damped model + the push-down's changes; discarded:
// a forced model refresh). The live workers are never touched — they are
// mid-flight in their next interval.
void AsyncEngine::edge_cohort_sync(fl::Algorithm& alg, EvtRun& er,
                                   std::size_t e, std::vector<Arrival> cohort,
                                   Scalar tev) {
  fl::RunState& rs = er.rs;
  fl::EdgeState& es = rs.edges[e];
  std::sort(cohort.begin(), cohort.end(),
            [](const Arrival& a, const Arrival& b) { return a.w < b.w; });

  obs::Registry& reg = obs::Registry::global();
  std::vector<std::size_t> admitted, discarded;  // indices into cohort
  for (std::size_t i = 0; i < cohort.size(); ++i) {
    const std::size_t dv = cohort[i].snap.download_version;
    HFL_CHECK(dv <= er.e_version[e],
              "upload stamped with a future edge version — download "
              "versioning broke monotonicity");
    const std::size_t tau = er.e_version[e] - dv;
    // The histogram profiles every update the aggregator saw, dropped ones
    // included; RunResult's mean/max stay admitted-only.
    if (obs::enabled()) {
      reg.histogram("evt.staleness", er.policy_label, staleness_bounds())
          .observe(static_cast<double>(tau));
    }
    if (static_cast<std::int64_t>(tau) > cfg_.max_staleness) {
      discarded.push_back(i);
    } else {
      admitted.push_back(i);
    }
  }

  const Scalar agg = model_->edge_aggregate(er.erng[e]);
  std::size_t refresh_version = er.e_version[e];

  if (!admitted.empty()) {
    const std::size_t k_agg = ++er.e_version[e];
    ++er.e_round[e];
    refresh_version = k_agg;

    // Roster + staleness weights (s multiplies the data-size mass before the
    // per-edge renormalization inside Participation).
    er.roster_ids.clear();
    er.scale.clear();
    Scalar alpha = 0;
    for (const std::size_t i : admitted) {
      const std::size_t w = cohort[i].w;
      const std::size_t tau = k_agg - 1 - cohort[i].snap.download_version;
      const Scalar s = staleness_weight(cfg_.staleness_decay, tau);
      er.roster_ids.push_back(static_cast<fl::WorkerId>(w));
      er.scale.push_back(s);
      alpha += rs.workers[w].weight_in_edge * s;
      ++er.admitted;
      er.tau_sum += static_cast<Scalar>(tau);
      er.max_tau = std::max(er.max_tau, tau);
    }
    er.roster_up.assign(er.roster_ids.size(), 1);
    er.roster_e.assign(rs.edges.size(), 0);
    er.roster_e[e] = 1;
    er.mpart->set_cohort_roster(er.roster_ids, er.roster_up, er.roster_e,
                                &er.scale);
    rs.ctx.part = er.mpart.get();

    // The aggregation reads the uploaded snapshots, not the live in-flight
    // states: swap them in, run the staleness hook, remember the push-down
    // baseline.
    std::vector<PushBase> bases(admitted.size());
    for (std::size_t j = 0; j < admitted.size(); ++j) {
      Arrival& a = cohort[admitted[j]];
      swap_snapshot(rs.workers[a.w], a.snap);
      const std::size_t tau = k_agg - 1 - a.snap.download_version;
      if (tau > 0) {
        ++er.stale;
        alg.stale_sync(rs.ctx, rs.workers[a.w], tau);
      }
      bases[j] = push_baseline(rs.workers[a.w]);
    }

    // Aggregate against the cohort, then α-damp every edge vector back
    // toward its pre-sync value.
    const Vec pre_x = es.x_plus;
    const Vec pre_yp = es.y_plus;
    const Vec pre_ym = es.y_minus;
    const std::map<std::string, Vec> pre_extra = es.extra;
    {
      const fl::EdgeSyncGuard guard(engine_.edge_sync_entries_,
                                    alg.edge_sync_reentrant());
      alg.edge_sync(rs.ctx, es, k_agg);
    }
    damp(es.x_plus, pre_x, alpha);
    damp(es.y_plus, pre_yp, alpha);
    damp(es.y_minus, pre_ym, alpha);
    for (auto& [name, v] : es.extra) {
      const auto it = pre_extra.find(name);
      if (it != pre_extra.end()) damp(v, it->second, alpha);
    }
    rs.ctx.part = nullptr;

    // Compose each admitted member's download off the post-sync snapshot
    // state (anchored on the damped model), then hand the live state back.
    for (std::size_t j = 0; j < admitted.size(); ++j) {
      Arrival& a = cohort[admitted[j]];
      DownloadMsg msg =
          diff_pushdown(rs.workers[a.w], bases[j], k_agg, es.x_plus);
      swap_snapshot(rs.workers[a.w], a.snap);
      schedule_download(er, a.w, std::move(msg), tev + agg);
    }

    if (obs::enabled()) {
      reg.counter("evt.edge_syncs", er.policy_label).add();
    }
  }

  // Discarded updates: the uploaded interval is lost; the worker is forced
  // back onto the edge's current model (its next upload will be fresh).
  for (const std::size_t i : discarded) {
    ++er.dropped;
    DownloadMsg msg;
    msg.version = refresh_version;
    msg.x = es.x_plus;
    schedule_download(er, cohort[i].w, std::move(msg), tev + agg);
  }
  er.last_time = std::max(er.last_time, tev + agg);

  // Every π-th edge aggregation ships the edge state up to the cloud.
  if (!admitted.empty() && ++er.e_since_cloud[e] >= engine_.cfg_.pi) {
    er.e_since_cloud[e] = 0;
    const Scalar up = model_->edge_upload(er.erng[e]);
    er.q.push({tev + agg + up, 0, EventType::kCloudSync, e, er.e_cloud_base[e],
               false, false});
  }
}

// An edge's update lands at the cloud (three-tier). Staleness is measured in
// cloud versions since the edge's last cloud interaction (`base_version`,
// carried by the event). The cloud folds the edge's state through an
// edge-only roster — no worker is written: if the fold changes the edge
// model, the subtree hears about it through broadcast_edge_refresh's
// versioned downloads (never retroactively). `broadcast` is false only for
// the post-loop terminal flush, where no event would ever be processed.
void AsyncEngine::cloud_edge_arrival(fl::Algorithm& alg, EvtRun& er,
                                     std::size_t e, std::size_t base_version,
                                     Scalar tev, bool broadcast) {
  fl::RunState& rs = er.rs;
  fl::EdgeState& es = rs.edges[e];
  const std::size_t tau_e = er.cloud_version - base_version;
  obs::Registry& reg = obs::Registry::global();
  if (obs::enabled()) {
    // The upload's bytes were spent whatever its fate (see below for the
    // admit/discard split); the histogram likewise profiles every arrival.
    obs::CommAccountant::global().record(obs::Link::kEdgeToCloud, e,
                                         rs.edge_up_bytes);
    reg.histogram("evt.staleness", er.policy_label, staleness_bounds())
        .observe(static_cast<double>(tau_e));
  }

  if (static_cast<std::int64_t>(tau_e) > cfg_.max_staleness) {
    // Too far behind: the edge update is discarded and the edge re-anchored
    // on the current cloud model, which flows to its workers as an ordinary
    // versioned refresh.
    ++er.dropped;
    es.x_plus = rs.cloud.x;
    er.e_cloud_base[e] = er.cloud_version;
    if (obs::enabled()) {
      obs::CommAccountant::global().record(obs::Link::kCloudToEdge, e,
                                           rs.edge_down_bytes);
    }
    const Scalar done = tev + model_->cloud_broadcast(er.crng);
    er.last_time = std::max(er.last_time, done);
    if (broadcast) broadcast_edge_refresh(er, e, done);
    return;
  }

  const std::size_t p = ++er.cloud_version;
  ++er.admitted;
  er.tau_sum += static_cast<Scalar>(tau_e);
  er.max_tau = std::max(er.max_tau, tau_e);
  if (tau_e > 0) ++er.stale;

  // Roster: the edge alone. cloud_sync's worker push-down loops see an
  // all-absent worker roster and skip — in-flight workers are refreshed
  // through versioned downloads, not retroactive writes.
  er.roster_e.assign(rs.edges.size(), 0);
  er.roster_e[e] = 1;
  er.mpart->set_edge_roster(er.roster_e);
  rs.ctx.part = er.mpart.get();

  const Scalar alpha =
      es.weight_global * staleness_weight(cfg_.staleness_decay, tau_e);
  const Vec pre_cx = rs.cloud.x;
  const Vec pre_cy = rs.cloud.y;
  const std::map<std::string, Vec> pre_cextra = rs.cloud.extra;
  const Vec pre_x = es.x_plus;
  const Vec pre_yp = es.y_plus;
  const Vec pre_ym = es.y_minus;
  const std::map<std::string, Vec> pre_extra = es.extra;

  alg.cloud_sync(rs.ctx, p);

  damp(rs.cloud.x, pre_cx, alpha);
  damp(rs.cloud.y, pre_cy, alpha);
  for (auto& [name, v] : rs.cloud.extra) {
    const auto it = pre_cextra.find(name);
    if (it != pre_cextra.end()) damp(v, it->second, alpha);
  }
  damp(es.x_plus, pre_x, alpha);
  damp(es.y_plus, pre_yp, alpha);
  damp(es.y_minus, pre_ym, alpha);
  for (auto& [name, v] : es.extra) {
    const auto it = pre_extra.find(name);
    if (it != pre_extra.end()) damp(v, it->second, alpha);
  }
  rs.ctx.part = nullptr;
  er.e_cloud_base[e] = p;

  if (obs::enabled()) {
    obs::CommAccountant::global().record(obs::Link::kCloudToEdge, e,
                                         rs.edge_down_bytes);
    reg.counter("evt.cloud_syncs", er.policy_label).add();
  }

  const Scalar done = tev + model_->cloud_aggregate(er.crng) +
                      model_->cloud_broadcast(er.crng);
  er.last_time = std::max(er.last_time, done);
  // The fold moved the edge's model: version it and broadcast, so the
  // subtree converges on the cloud view causally.
  if (broadcast && es.x_plus != pre_x) {
    broadcast_edge_refresh(er, e, done);
  }
  engine_.record_point(rs, er.steps_total / rs.workers.size(), rs.cloud.x,
                       done);
}

// Two-tier cloud aggregation over a worker cohort — the cloud-level analog
// of edge_cohort_sync (single aggregator, α over global weights).
void AsyncEngine::cloud_cohort_sync(fl::Algorithm& alg, EvtRun& er,
                                    std::vector<Arrival> cohort, Scalar tev) {
  fl::RunState& rs = er.rs;
  std::sort(cohort.begin(), cohort.end(),
            [](const Arrival& a, const Arrival& b) { return a.w < b.w; });

  obs::Registry& reg = obs::Registry::global();
  std::vector<std::size_t> admitted, discarded;  // indices into cohort
  for (std::size_t i = 0; i < cohort.size(); ++i) {
    const std::size_t dv = cohort[i].snap.download_version;
    HFL_CHECK(dv <= er.cloud_version,
              "upload stamped with a future cloud version — download "
              "versioning broke monotonicity");
    const std::size_t tau = er.cloud_version - dv;
    if (obs::enabled()) {
      reg.histogram("evt.staleness", er.policy_label, staleness_bounds())
          .observe(static_cast<double>(tau));
    }
    if (static_cast<std::int64_t>(tau) > cfg_.max_staleness) {
      discarded.push_back(i);
    } else {
      admitted.push_back(i);
    }
  }

  const Scalar agg = model_->cloud_aggregate(er.crng);
  std::size_t refresh_version = er.cloud_version;

  if (!admitted.empty()) {
    const std::size_t p = ++er.cloud_version;
    refresh_version = p;

    er.roster_ids.clear();
    er.scale.clear();
    Scalar alpha = 0;
    for (const std::size_t i : admitted) {
      const std::size_t w = cohort[i].w;
      const std::size_t tau = p - 1 - cohort[i].snap.download_version;
      const Scalar s = staleness_weight(cfg_.staleness_decay, tau);
      er.roster_ids.push_back(static_cast<fl::WorkerId>(w));
      er.scale.push_back(s);
      alpha += rs.workers[w].weight_global * s;
      ++er.admitted;
      er.tau_sum += static_cast<Scalar>(tau);
      er.max_tau = std::max(er.max_tau, tau);
    }
    er.roster_up.assign(er.roster_ids.size(), 1);
    er.roster_e.assign(rs.edges.size(), 1);
    er.mpart->set_cohort_roster(er.roster_ids, er.roster_up, er.roster_e,
                                &er.scale);
    rs.ctx.part = er.mpart.get();

    std::vector<PushBase> bases(admitted.size());
    for (std::size_t j = 0; j < admitted.size(); ++j) {
      Arrival& a = cohort[admitted[j]];
      swap_snapshot(rs.workers[a.w], a.snap);
      const std::size_t tau = p - 1 - a.snap.download_version;
      if (tau > 0) {
        ++er.stale;
        alg.stale_sync(rs.ctx, rs.workers[a.w], tau);
      }
      bases[j] = push_baseline(rs.workers[a.w]);
    }

    const Vec pre_cx = rs.cloud.x;
    const Vec pre_cy = rs.cloud.y;
    const std::map<std::string, Vec> pre_cextra = rs.cloud.extra;

    alg.cloud_sync(rs.ctx, p);

    damp(rs.cloud.x, pre_cx, alpha);
    damp(rs.cloud.y, pre_cy, alpha);
    for (auto& [name, v] : rs.cloud.extra) {
      const auto it = pre_cextra.find(name);
      if (it != pre_cextra.end()) damp(v, it->second, alpha);
    }
    rs.ctx.part = nullptr;

    for (std::size_t j = 0; j < admitted.size(); ++j) {
      Arrival& a = cohort[admitted[j]];
      DownloadMsg msg =
          diff_pushdown(rs.workers[a.w], bases[j], p, rs.cloud.x);
      swap_snapshot(rs.workers[a.w], a.snap);
      schedule_download(er, a.w, std::move(msg), tev + agg);
    }

    if (obs::enabled()) {
      reg.counter("evt.cloud_syncs", er.policy_label).add();
    }
    engine_.record_point(rs, er.steps_total / rs.workers.size(), rs.cloud.x,
                         tev + agg);
  }

  for (const std::size_t i : discarded) {
    ++er.dropped;
    DownloadMsg msg;
    msg.version = refresh_version;
    msg.x = rs.cloud.x;
    schedule_download(er, cohort[i].w, std::move(msg), tev + agg);
  }
  er.last_time = std::max(er.last_time, tev + agg);
}

fl::RunResult AsyncEngine::run_event_driven(fl::Algorithm& alg,
                                            const sim::FaultPlan* plan) {
  const obs::Span run_span("run:" + alg.name(), "evt");

  EvtRun er;
  er.plan = plan;
  if (plan != nullptr && !plan->schedule().is_noop()) {
    plan->schedule().validate(engine_.topo_, engine_.cfg_);
    er.schedule = &plan->schedule();
  }
  er.three_tier = alg.three_tier();
  er.K = engine_.cfg_.total_iterations / engine_.cfg_.tau;
  er.policy_label = std::string("policy=") + fl::to_string(cfg_.policy);

  fl::RunState& rs = er.rs;
  // Training state exactly as the barrier engine would build it (same seed →
  // same initial point, same batch streams); ctx.part stays null outside
  // aggregation/absence windows, where the aggregation roster is swapped in.
  engine_.prepare_run(alg, nullptr, rs);

  const std::size_t W = engine_.topo_.num_workers();
  const std::size_t E = engine_.topo_.num_edges();
  er.mpart = std::make_unique<fl::Participation>(
      engine_.topo_, engine_.base_weights(), er.three_tier);
  if (er.schedule != nullptr) {
    er.mpart->set_absent_policy(er.schedule->absent_policy,
                                er.schedule->absent_decay);
    rs.result.worker_miss_counts.assign(W, 0);
  }

  // Per-entity latency streams. The download streams are separate forks so
  // the split compute/upload/download events leave each worker's historical
  // compute+upload sequence untouched.
  Rng lroot(sim_.seed);
  er.wrng.reserve(W);
  er.wdrng.reserve(W);
  for (std::size_t w = 0; w < W; ++w) {
    er.wrng.push_back(lroot.fork(0xA5A50000u + w));
  }
  for (std::size_t w = 0; w < W; ++w) {
    er.wdrng.push_back(lroot.fork(0xD0DD0000u + w));
  }
  er.erng.reserve(E);
  for (std::size_t e = 0; e < E; ++e) {
    er.erng.push_back(lroot.fork(0xE5E50000u + e));
  }
  er.crng = lroot.fork(0xC10D);

  er.w_interval.assign(W, 0);
  er.w_version.assign(W, 0);
  er.w_up.assign(W, 1);
  er.w_upq.resize(W);
  er.uplink_free.assign(W, 0.0);
  er.w_pending.resize(W);
  er.w_has_pending.assign(W, 0);
  er.e_version.assign(E, 0);
  er.e_round.assign(E, 0);
  er.e_since_cloud.assign(E, 0);
  er.e_cloud_base.assign(E, 0);
  er.e_inbox.resize(E);
  er.e_deadline_armed.assign(E, 0);
  er.e_up.assign(E, 1);
  // First adaptive deadline = margin × ewma = the configured base.
  const Scalar ewma0 = cfg_.deadline_margin > 0
                           ? cfg_.semi_async_deadline_s / cfg_.deadline_margin
                           : 0.0;
  er.e_deadline_ewma.assign(E, ewma0);
  er.e_first_arrival.assign(E, 0.0);
  er.e_last_arrival.assign(E, 0.0);
  er.c_deadline_ewma = ewma0;

  engine_.record_point(rs, 0, rs.cloud.x, 0.0);
  for (std::size_t w = 0; w < W; ++w) dispatch_compute(alg, er, w, 0.0);

  obs::Registry& reg = obs::Registry::global();
  while (!er.q.empty()) {
    const Event ev = er.q.pop();
    er.last_time = std::max(er.last_time, ev.time);
    switch (ev.type) {
      case EventType::kWorkerReady:
        worker_arrival(alg, er, ev);
        break;
      case EventType::kWorkerUpload:
        upload_arrival(alg, er, ev);
        break;
      case EventType::kWorkerDownload:
        download_arrival(er, ev);
        break;
      case EventType::kEdgeSync: {
        // Semi-async deadline at edge `entity`.
        const std::size_t e = ev.entity;
        er.e_deadline_armed[e] = 0;
        std::vector<Arrival> cohort = std::move(er.e_inbox[e]);
        er.e_inbox[e].clear();
        if (cohort.empty()) break;  // flushed elsewhere — nothing to do
        note_round_spread(er, /*edge_tier=*/true, e);
        bool eup = true;
        if (er.schedule != nullptr) {
          const std::size_t kc =
              std::min(er.e_round[e] + 1, er.schedule->num_intervals);
          eup = er.schedule->edge_available(kc, e);
        }
        note_availability(er, /*is_edge=*/true, e, eup, ev.time);
        if (!eup) {
          // The whole round misses: the outage consumes one schedule round
          // and every member's uploaded interval is lost (their own
          // progress continues — compute was already redispatched).
          ++er.e_round[e];
          for (const Arrival& a : cohort) {
            ++er.dropped;
            miss_sync(alg, er, a.w);
          }
          break;
        }
        edge_cohort_sync(alg, er, e, std::move(cohort), ev.time);
        break;
      }
      case EventType::kCloudSync:
        if (er.three_tier) {
          cloud_edge_arrival(alg, er, ev.entity, ev.round, ev.time,
                             /*broadcast=*/true);
        } else {
          // Two-tier semi-async deadline.
          er.c_deadline_armed = false;
          std::vector<Arrival> cohort = std::move(er.c_inbox);
          er.c_inbox.clear();
          if (!cohort.empty()) {
            note_round_spread(er, /*edge_tier=*/false, 0);
            cloud_cohort_sync(alg, er, std::move(cohort), ev.time);
          }
        }
        break;
      case EventType::kFault:
        if (obs::enabled()) reg.counter("evt.fault.transitions").add();
        break;
    }
  }

  // Terminal flush: edges still holding un-pushed aggregations (a partial π
  // window) hand them to the cloud in ascending edge order. No broadcast —
  // the queue is drained, so a download event would never be processed.
  if (er.three_tier) {
    for (std::size_t e = 0; e < E; ++e) {
      if (er.e_since_cloud[e] > 0 && er.e_version[e] > 0) {
        er.e_since_cloud[e] = 0;
        const Scalar up = model_->edge_upload(er.erng[e]);
        cloud_edge_arrival(alg, er, e, er.e_cloud_base[e], er.last_time + up,
                           /*broadcast=*/false);
      }
    }
  }

  // Final curve point at the final cloud model.
  const std::size_t final_iter = er.steps_total / W;
  if (rs.result.curve.back().iteration != final_iter ||
      rs.result.curve.size() == 1) {
    engine_.record_point(rs, final_iter, rs.cloud.x, er.last_time);
  }

  rs.result.sim_seconds = er.last_time;
  rs.result.admitted_updates = er.admitted;
  rs.result.stale_updates = er.stale;
  rs.result.dropped_updates = er.dropped;
  rs.result.max_staleness_seen = er.max_tau;
  rs.result.mean_staleness =
      er.admitted > 0 ? er.tau_sum / static_cast<Scalar>(er.admitted) : 0.0;
  rs.result.overlap_seconds = er.overlap_s;
  rs.result.downloads_applied = er.downloads_applied;
  rs.result.downloads_superseded = er.downloads_superseded;

  if (obs::enabled()) {
    reg.counter("evt.updates.admitted", er.policy_label).add(er.admitted);
    reg.counter("evt.updates.stale", er.policy_label).add(er.stale);
    reg.counter("evt.updates.dropped", er.policy_label).add(er.dropped);
    reg.counter("evt.uploads.arrived", er.policy_label)
        .add(er.uploads_arrived);
    reg.counter("evt.uploads.coalesced", er.policy_label)
        .add(er.uploads_coalesced);
    reg.counter("evt.downloads.scheduled", er.policy_label)
        .add(er.downloads_scheduled);
    reg.counter("evt.downloads.applied", er.policy_label)
        .add(er.downloads_applied);
    reg.counter("evt.downloads.superseded", er.policy_label)
        .add(er.downloads_superseded);
    reg.counter("evt.overlap_modeled_ms", er.policy_label)
        .add(static_cast<std::uint64_t>(er.overlap_s * 1e3));
    if (cfg_.adaptive_deadline) {
      Scalar mean_ewma = er.c_deadline_ewma;
      if (er.three_tier && E > 0) {
        mean_ewma = 0;
        for (std::size_t e = 0; e < E; ++e) mean_ewma += er.e_deadline_ewma[e];
        mean_ewma /= static_cast<Scalar>(E);
      }
      reg.gauge("evt.deadline.ewma_ms", er.policy_label)
          .set(static_cast<double>(mean_ewma * 1e3));
    }
  }

  engine_.finalize_run(alg, rs);
  return rs.result;
}

}  // namespace hfl::evt
