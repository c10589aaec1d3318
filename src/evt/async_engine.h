// Event-driven engine: drives an Algorithm through a deterministic
// discrete-event queue, so simulated time is the actual execution order
// (DESIGN.md §12).
//
// Three execution policies, selected by RunConfig::policy:
//
//   * sync — the paper's barrier schedule: fl::Engine::run itself, so
//     curves, final parameters and engine obs counters are bit-identical to
//     fl::Engine for every registry algorithm at any thread count — the
//     degenerate correctness anchor, asserted by tests/async_engine_test.cpp.
//     On top, every curve point is stamped with the modeled wall-clock time
//     of the barrier replay (net::TimeSimulator over the same TimeSimConfig).
//
//   * semi_async — deadline-based cohort admission per aggregator: each edge
//     (each round of the cloud, for two-tier algorithms) waits
//     `semi_async_deadline_s` modeled seconds, then aggregates whatever
//     updates arrived, weighting each by staleness (see below). Stragglers
//     simply land in a later round instead of stalling everyone.
//
//   * async — fully event-ordered: every update arrival triggers its
//     aggregator immediately with a single-member cohort.
//
// Staleness contract (semi_async and async): an update trained on the model
// a worker downloaded at aggregator version v and admitted at version v' has
// staleness τ = v' − v ≥ 0. Admitted updates are weighted by
// s(τ) = staleness_decay^τ (renormalized inside the cohort) and folded into
// the aggregator state by a damped mixing step: state ← (1−α)·state +
// α·cohort_result with α = Σ_admitted full-roster-weight·s(τ) — a full fresh
// cohort reproduces the plain aggregation (α = 1), a lone stale straggler
// barely moves the tier. Updates with τ > max_staleness are dropped and the
// sender force-refreshed. Algorithm::stale_sync runs for every admitted
// stale update before the aggregation. All of this happens at the engine
// level through fl::Participation rosters composed per aggregation, so every
// registry algorithm participates without async-specific code.
//
// Causal model propagation (semi_async and async): communication is explicit
// and versioned in both directions. A worker's finished interval is
// snapshotted into an upload that travels as its own event while the worker
// immediately starts its next local steps (communication overlaps
// computation); τ is measured against the version stamped on the snapshot.
// Aggregations never write through to workers — each cohort member is sent a
// versioned download event carrying exactly what the aggregation's push-down
// changed, applied at the worker's next interval boundary, superseded if a
// newer version arrives first. A cloud round folds an edge's upload through
// an edge-only roster (fl::Participation::set_edge_roster), so in-flight
// workers are never retroactively refreshed: they learn of the new model
// through the edge's next versioned broadcast, and each worker's
// download_version is monotone by construction.
//
// Determinism: the event loop is serial; all latency draws come from
// per-entity RNG streams forked off TimeSimConfig::seed, all training draws
// from the worker-owned streams seeded by RunConfig::seed, and parallelism
// is confined to the deterministic reductions and batch-eval paths of
// src/fl — identical seeds give identical event traces, curves and counters
// at any thread count (tests/async_engine_test.cpp mirrors
// tests/parallel_sync_test.cpp).
#pragma once

#include <memory>

#include "src/evt/event.h"
#include "src/fl/engine.h"
#include "src/net/latency_model.h"
#include "src/net/time_simulator.h"

namespace hfl::sim {
class FaultPlan;  // src/sim/fault_plan.h
}

namespace hfl::evt {

struct EvtRun;       // internal per-run state (async_engine.cpp)
struct Arrival;      // one arrived upload: worker id + state snapshot
struct DownloadMsg;  // one in-flight versioned refresh toward a worker

class AsyncEngine {
 public:
  // Same contract as fl::Engine plus the deployment model the event clock
  // samples delays from. `sim.model_params` (0 = auto-filled from the
  // factory) and `sim.worker_devices` (empty = default roster) are
  // completed here; `sim.fault_plan` is ignored — pass the plan to run().
  AsyncEngine(nn::ModelFactory factory, const data::TrainTest& data,
              data::Partition partition, fl::Topology topo, fl::RunConfig cfg,
              net::TimeSimConfig sim);

  fl::RunResult run(fl::Algorithm& alg) { return run(alg, nullptr); }

  // Fault-aware run: the plan (which must outlive the call and match the
  // topology/run) supplies availability, straggler and retry behaviour. In
  // the event-driven policies schedule intervals are resolved against each
  // entity's own round counter (capped at the schedule horizon).
  fl::RunResult run(fl::Algorithm& alg, const sim::FaultPlan* plan);

  const fl::Topology& topology() const { return engine_.topology(); }
  // The policy actually executed (the embedded fl::Engine always reports
  // sync — it only serves as the shared toolbox).
  const fl::RunConfig& config() const { return cfg_; }

 private:
  fl::RunResult run_sync(fl::Algorithm& alg, const sim::FaultPlan* plan);
  fl::RunResult run_event_driven(fl::Algorithm& alg,
                                 const sim::FaultPlan* plan);

  // Event-mode helpers (see async_engine.cpp).
  Scalar dispatch_compute(fl::Algorithm& alg, EvtRun& er, std::size_t w,
                          Scalar base);
  void worker_arrival(fl::Algorithm& alg, EvtRun& er, const Event& ev);
  void upload_arrival(fl::Algorithm& alg, EvtRun& er, const Event& ev);
  void download_arrival(EvtRun& er, const Event& ev);
  void apply_pending_download(EvtRun& er, std::size_t w);
  void schedule_download(EvtRun& er, std::size_t w, DownloadMsg msg,
                         Scalar base);
  void broadcast_edge_refresh(EvtRun& er, std::size_t e, Scalar base);
  void edge_cohort_sync(fl::Algorithm& alg, EvtRun& er, std::size_t e,
                        std::vector<Arrival> cohort, Scalar tev);
  void cloud_cohort_sync(fl::Algorithm& alg, EvtRun& er,
                         std::vector<Arrival> cohort, Scalar tev);
  void cloud_edge_arrival(fl::Algorithm& alg, EvtRun& er, std::size_t e,
                          std::size_t base_version, Scalar tev,
                          bool broadcast);
  void miss_interval(fl::Algorithm& alg, EvtRun& er, std::size_t w, Scalar tev);
  void miss_sync(fl::Algorithm& alg, EvtRun& er, std::size_t w);
  void note_availability(EvtRun& er, bool is_edge, std::size_t id, bool up,
                         Scalar time);
  Scalar aggregator_deadline(const EvtRun& er, bool edge_tier,
                             std::size_t e) const;
  void note_round_spread(EvtRun& er, bool edge_tier, std::size_t e);

  fl::RunConfig cfg_;       // the requested (validated) configuration
  net::TimeSimConfig sim_;  // completed deployment model
  fl::Engine engine_;       // shared toolbox; runs with a sanitized config
  std::unique_ptr<net::LatencyModel> model_;
};

}  // namespace hfl::evt
