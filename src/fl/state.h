// Mutable per-tier simulation state.
//
// WorkerState mirrors the paper's worker {i, ℓ}: model parameters x, momentum
// parameter y, velocity v = y_t − y_{t−1}, the interval accumulators that
// Algorithm 1 line 9 uploads (Σ∇F_i and Σy_i, plus Σv_i for the velocity
// interpretation of eq. (6) — see core/hieradmo.h), the worker's data stream,
// and a scratch model instance used to evaluate gradients. EdgeState carries
// the post-aggregation values y_{ℓ−}, y_{ℓ+}, x_{ℓ+} and the currently
// adapted γℓ. CloudState carries the cloud model and the cloud-aggregated
// worker momentum.
//
// Generic algorithm scratch ("extra" slots) lets two-tier baselines store
// their server momenta without widening this struct per algorithm.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>

#include "src/common/errors.h"
#include "src/common/vec_ops.h"
#include "src/data/batcher.h"
#include "src/fl/topology.h"
#include "src/nn/model.h"

namespace hfl {

class ThreadPool;  // src/common/thread_pool.h

}  // namespace hfl

namespace hfl::fl {

struct WorkerState {
  WorkerId id = 0;
  std::size_t edge = 0;
  Scalar weight_in_edge = 0;  // D_{i,ℓ} / D_ℓ
  Scalar weight_global = 0;   // D_{i,ℓ} / D
  std::size_t num_samples = 0;

  Vec x;       // worker model parameter x_{i,ℓ}
  Vec y;       // worker momentum parameter y_{i,ℓ}
  Vec v;       // velocity v_{i,ℓ} = y_t − y_{t−1}
  Vec grad;    // most recent mini-batch gradient ∇F_i(x^{t−1})
  Scalar last_loss = 0;

  // Interval accumulators (reset at every edge synchronization).
  Vec sum_grad;  // Σ_t ∇F_i(x^t)
  Vec sum_y;     // Σ_t y^t_i
  Vec sum_v;     // Σ_t v^t_i

  std::unique_ptr<nn::Model> model;
  std::unique_ptr<data::Batcher> batcher;
  std::unique_ptr<data::Batcher> aux_batcher;  // for gradient probes (Mime)

  // Named algorithm-specific vectors (server momentum copies, etc.).
  std::map<std::string, Vec> extra;

  // Draw the next mini-batch and compute the gradient of the local loss at
  // `at`; stores it in `grad` and returns the batch loss.
  //
  // Fused-path interplay: if the engine has prefetched this iteration's batch
  // and deposited its gradient (draw_batch + deposit_gradient below), the
  // deposit is consumed instead of re-running the model — but ONLY when `at`
  // is the exact vector the deposit was computed at (pointer identity with
  // the engine's Algorithm::local_gradient_point). A mismatch fails loudly:
  // it means an algorithm broke the prefetch contract.
  Scalar compute_gradient(const Vec& at);

  // Engine-side half of the fused cohort path (src/fl/engine.cpp). draw_batch
  // advances the main stream exactly like compute_gradient's draw and exposes
  // the batch; deposit_gradient marks `grad`/`last_loss` (already filled by
  // the cohort executor) as the precomputed result for the parameter vector
  // `at`, to be consumed by the next compute_gradient call.
  void draw_batch(const Tensor*& x, const std::vector<std::size_t>*& y);
  // Zero-copy draw for row-gather cohort execution (nn::CohortModel): same
  // stream advancement as draw_batch, but exposes per-sample row pointers
  // into the dataset instead of a gathered tensor. The two draw forms are
  // interchangeable draw-for-draw; the batch size is y->size().
  void draw_batch_rows(const Scalar* const*& rows,
                       const std::vector<std::size_t>*& y);
  void deposit_gradient(const Vec& at);

  // Draw ONE mini-batch and evaluate the gradient at two parameter points on
  // that same batch (paired SVRG-style evaluation: the sampling noise of the
  // two gradients cancels in their difference). `grad` receives ∇F_B(at);
  // `grad_anchor` receives ∇F_B(anchor). Returns the batch loss at `at`.
  Scalar compute_gradient_pair(const Vec& at, const Vec& anchor,
                               Vec& grad_anchor);

  // Gradient probe at arbitrary parameters using the auxiliary batch stream
  // (does not disturb the main stream). Result in `out`.
  Scalar probe_gradient(const Vec& at, Vec& out);

  void reset_interval_accumulators();

  // Drop the per-step transients, keeping their capacity: an unconsumed
  // prefetched gradient and the batch scratch. A recycled state (the
  // population subsystem reuses departed workers' states) then carries
  // nothing of its previous holder beyond what the caller overwrites.
  void clear_transients();

 private:
  Tensor batch_x_;
  std::vector<std::size_t> batch_y_;
  std::vector<const Scalar*> batch_rows_;  // draw_batch_rows scratch
  // Non-null while a prefetched gradient awaits its compute_gradient call;
  // points at the Vec the gradient was evaluated at.
  const Scalar* pending_grad_at_ = nullptr;
};

struct EdgeState {
  std::size_t id = 0;
  Scalar weight_global = 0;  // D_ℓ / D

  Vec x_plus;   // x_{ℓ+}: edge model after the edge momentum update
  Vec y_plus;   // y_{ℓ+}: edge momentum parameter
  Vec y_minus;  // y_{ℓ−}: edge-aggregated worker momentum

  Scalar gamma_edge = 0;       // current (possibly adapted) γℓ
  Scalar last_cos_theta = 0;   // diagnostics: cosθ_{k,ℓ} of the last adaptation

  std::map<std::string, Vec> extra;
};

struct CloudState {
  Vec x;  // cloud model x
  Vec y;  // cloud-aggregated worker momentum y
  std::map<std::string, Vec> extra;
};

// Index-based view over the materialized WorkerStates of a run. The classic
// dense engine materializes every worker, so pool slot i holds worker id i;
// the virtualized engine (src/pop/cohort_store.h) materializes only the
// sampled cohort and supplies a population-sized id → slot table. Algorithms
// address workers by GLOBAL id (operator[]) or iterate the materialized
// states in ascending-id order (begin/end); both patterns behave identically
// across the two layouts, which is what keeps the dense and virtualized
// paths bit-identical (tests/pop_parity_test.cpp). Addressing a worker that
// is not materialized fails loudly — it means engine-side roster logic and
// the cohort store disagree.
class WorkerSet {
 public:
  static constexpr std::uint32_t kNoSlot = 0xFFFFFFFFu;

  WorkerSet() = default;
  // Dense view: pool slot i holds worker id i. The pool must outlive the
  // view (the view tracks the vector object, not its buffer).
  explicit WorkerSet(std::vector<WorkerState>* pool) : pool_(pool) {}
  // Sparse view over an ascending-id cohort. `slot_of_id` has one entry per
  // population id (kNoSlot = not materialized) and must outlive the view.
  WorkerSet(std::vector<WorkerState>* pool, std::size_t population,
            const std::vector<std::uint32_t>* slot_of_id)
      : pool_(pool), population_(population), slot_of_id_(slot_of_id) {}

  // Population size (== materialized count for dense views).
  std::size_t size() const {
    return slot_of_id_ != nullptr ? population_ : pool_->size();
  }
  std::size_t num_materialized() const { return pool_->size(); }
  bool is_materialized(std::size_t id) const {
    return slot_of_id_ == nullptr ? id < pool_->size()
                                  : (*slot_of_id_)[id] != kNoSlot;
  }

  WorkerState& operator[](std::size_t id) {
    return (*pool_)[slot_of(id)];
  }
  const WorkerState& operator[](std::size_t id) const {
    return (*pool_)[slot_of(id)];
  }

  // Materialized states by pool slot (ascending worker id).
  WorkerState& slot(std::size_t s) { return (*pool_)[s]; }
  const WorkerState& slot(std::size_t s) const { return (*pool_)[s]; }

  // Iterate the materialized states in ascending-id order.
  std::vector<WorkerState>::iterator begin() { return pool_->begin(); }
  std::vector<WorkerState>::iterator end() { return pool_->end(); }
  std::vector<WorkerState>::const_iterator begin() const {
    return pool_->begin();
  }
  std::vector<WorkerState>::const_iterator end() const { return pool_->end(); }

 private:
  std::size_t slot_of(std::size_t id) const {
    if (slot_of_id_ == nullptr) return id;
    const std::uint32_t s = (*slot_of_id_)[id];
    HFL_CHECK(s != kNoSlot,
              "worker " + std::to_string(id) +
                  " is not materialized — roster and cohort store disagree");
    return s;
  }

  std::vector<WorkerState>* pool_ = nullptr;
  std::size_t population_ = 0;
  const std::vector<std::uint32_t>* slot_of_id_ = nullptr;  // null = dense
};

// Weighted aggregation helpers. The accessor receives a worker/edge and
// returns the vector to aggregate; weights are the paper's D-ratios.
using WorkerVecAccessor = const Vec& (*)(const WorkerState&);
using EdgeVecAccessor = const Vec& (*)(const EdgeState&);

class Participation;  // src/fl/availability.h

// out = Σ_{i ∈ edge ℓ} (D_{i,ℓ}/D_ℓ) · acc(worker_i). Requires every worker
// of the edge to be materialized (full-participation aggregation).
void aggregate_edge(const Topology& topo, std::size_t edge,
                    const WorkerSet& workers, WorkerVecAccessor acc, Vec& out);

// out = Σ_i (D_{i,ℓ}/D) · acc(worker_i) over all materialized workers
// (== all workers in the dense engine).
void aggregate_global(const WorkerSet& workers, WorkerVecAccessor acc,
                      Vec& out);

// Partial-participation overloads: only surviving workers contribute, with
// their data weights renormalized over the survivors. A null `part` takes
// the exact full-participation path above (bit-identical results). The
// participating set must be non-empty (the engine skips syncs for tiers
// with no survivors).
void aggregate_edge(const Topology& topo, std::size_t edge,
                    const WorkerSet& workers, WorkerVecAccessor acc, Vec& out,
                    const Participation* part);
void aggregate_global(const WorkerSet& workers, WorkerVecAccessor acc,
                      Vec& out, const Participation* part);

// Deterministic parallel reduction: the element range of `out` is split
// across the pool's threads and each element is accumulated over the inputs
// in fixed input-index order (vec::weighted_sum_range), so the result is
// bit-identical to the serial overloads for every thread count and partition
// shape. A null pool (or a small problem) takes the serial path — same bits
// either way. Algorithms reach the pool through `Context::pool`.
void aggregate_global(const WorkerSet& workers, WorkerVecAccessor acc,
                      Vec& out, const Participation* part, ThreadPool* pool);

// Cloud-tier edge aggregation: out = Σ_{reachable edges ℓ} w_ℓ · acc(edge_ℓ)
// with the weights renormalized over the survivors (full roster when `part`
// is null). Replaces the per-algorithm axpy loops so the cloud reduction
// shares the deterministic parallel path above.
void aggregate_edges(const std::vector<EdgeState>& edges, EdgeVecAccessor acc,
                     Vec& out, const Participation* part,
                     ThreadPool* pool = nullptr);

// Common accessors.
const Vec& worker_x(const WorkerState& w);
const Vec& worker_y(const WorkerState& w);
const Vec& edge_x_plus(const EdgeState& e);
const Vec& edge_y_minus(const EdgeState& e);

}  // namespace hfl::fl
