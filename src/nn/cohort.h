// Cohort executor: one fused forward/backward pass for a whole cohort of
// workers.
//
// The per-worker path evaluates each worker's mini-batch gradient through its
// own Model instance: set_params copies the flat vector into layer tensors,
// zero_grads clears them, forward/backward run B-row products, get_grads
// copies the result back out. A cohort of N workers pays that staging N times
// and runs N slim GEMM sequences.
//
// CohortModel runs the same computation over concatenated activation
// tensors: worker i's mini-batch occupies the contiguous row segment
// [row_off[i], row_off[i+1]) of every activation, dense/conv products read
// parameters straight from each worker's flat vector (no set_params) and
// accumulate straight into its flat gradient (no get_grads). Conv stages run
// their per-sample im2col products as strided-batch GEMMs with the worker's
// weights as a shared packed operand (src/tensor/gemm_batched.h); dense
// stages run one product per worker in place — cross-worker dense products
// share no operand, so for them the fused win is the eliminated staging, not
// GEMM fusion.
//
// Execution is TILED: the cohort is split into fixed item groups whose
// concatenated activations fit in cache (~2 MB), and each tile runs the full
// forward+backward before the next tile starts. Running stage-by-stage over
// the whole cohort instead would stream every activation tensor (tens of MB
// at 32 workers) through the cache once per stage and lose 20-30% on conv
// nets. Tiles are the parallel unit — one pool task per tile, no intra-stage
// barriers. Tiling is invisible in the FP results: each loss/gradient is
// computed purely from that item's own rows, so any grouping (and any thread
// count) produces bit-identical outputs.
//
// The plan also exploits two structural facts:
//   * Dead input gradients — the backward pass stops at the model's FIRST
//     parametric stage: every stage before it is parameter-free, so that
//     stage's dX has no consumer. For a logistic/MLP front layer this removes
//     the widest backward GEMM outright; for a conv front layer it removes
//     the dCol product and the col2im scatter. The per-worker chain applies
//     the same rule (Sequential::backward_into with a null grad_in, which
//     Model::loss_and_gradient passes), so both paths skip the same work.
//   * Direct input — when everything before the first parametric stage is a
//     Flatten (a pure reshape), the executor never materializes the
//     concatenated input tensor: dense/conv products read each item's own
//     mini-batch tensor in place, skipping the concat memcpy and the leading
//     flatten forward/backward. Values and row order are identical either
//     way, so this, too, is invisible in the FP results.
//
// FP contract: with `mixed == false`, every item's loss and gradient are
// bit-identical to Model::loss_and_gradient on the same (params, batch), for
// any thread count — work is partitioned by item, and items are mutually
// independent (asserted by tests/batched_parity_test.cpp).
// `mixed == true` switches dense/conv products to the FP32-compute /
// FP64-accumulate kernels (src/tensor/gemm_mixed.h): ≤1e-6 relative error,
// NOT bit-identical, opt-in via RunConfig::mixed_precision.
//
// `create` returns nullptr for architectures or losses the executor does not
// support (Residual blocks, nested Sequentials, unknown layer kinds); the
// engine then keeps the per-worker path for the whole run.
#pragma once

#include <array>
#include <memory>
#include <span>
#include <vector>

#include "src/nn/model.h"

namespace hfl {

class ThreadPool;  // src/common/thread_pool.h

}  // namespace hfl

namespace hfl::nn {

// One worker's slot in a cohort pass. `params` and `grad` are flat vectors of
// the model's num_params(); `grad` is overwritten (not accumulated). `x`/`y`
// are the worker's drawn mini-batch; batch sizes may differ between items.
struct CohortItem {
  const Scalar* params = nullptr;
  const Tensor* x = nullptr;
  const std::vector<std::size_t>* y = nullptr;
  Scalar* grad = nullptr;
  Scalar loss = 0;  // out: mean batch loss
  // Zero-copy alternative to `x`: y->size() row pointers of sample_elems
  // scalars each (dataset rows drawn by Batcher::next_rows). Only valid when
  // the model reports supports_row_gather() and `mixed` is off; the dense
  // products then read the rows in place through the row-gathered GEMM entry
  // points — bit-identical to the gathered tensor (cohort.cpp).
  const Scalar* const* x_rows = nullptr;
};

class CohortModel {
 public:
  // Compiles an execution plan for the factory's architecture, or returns
  // nullptr if any layer/loss is unsupported (caller falls back per worker).
  static std::unique_ptr<CohortModel> create(const ModelFactory& factory);

  ~CohortModel();

  std::size_t num_params() const;

  // True when items may carry `x_rows` instead of a gathered `x`: the plan
  // is direct-input (flatten-only prefix) and its first parametric stage is
  // dense, so every read of the input consumes flat sample rows.
  bool supports_row_gather() const;

  // Computes loss + flat gradient for every item. `pool` may be null
  // (serial). See the FP contract above.
  void run(std::span<CohortItem> items, ThreadPool* pool, bool mixed);

 private:
  struct Stage;
  explicit CohortModel(std::unique_ptr<Model> probe);

  // Full forward+backward for items [ilo, ihi) using tile slot `t`'s probe
  // model (for stateless layers, which cache forward state) and activation
  // scratch. Runs on exactly one thread.
  void run_tile(std::size_t t, std::size_t ilo, std::size_t ihi,
                std::span<CohortItem> items, bool mixed);

  // Stage helpers. `in == nullptr` selects direct-input mode (read each
  // item's own mini-batch tensor in place); `gin == nullptr` skips the dead
  // input-gradient computation at the first parametric stage.
  void dense_forward(const Stage& st, const Tensor* in, Tensor& out,
                     std::span<CohortItem> items, std::size_t ilo,
                     std::size_t ihi, bool mixed);
  void dense_backward(const Stage& st, const Tensor* in, const Tensor& gout,
                      Tensor* gin, std::span<CohortItem> items,
                      std::size_t ilo, std::size_t ihi, bool mixed);
  void conv_forward(const Stage& st, const Tensor* in, Tensor& out,
                    std::span<CohortItem> items, std::size_t ilo,
                    std::size_t ihi, bool mixed);
  void conv_backward(const Stage& st, const Tensor* in, const Tensor& gout,
                     Tensor* gin, std::span<CohortItem> items, std::size_t ilo,
                     std::size_t ihi, bool mixed);
  void loss_stage(const Tensor& pred, Tensor& grad,
                  std::span<CohortItem> items, std::size_t ilo,
                  std::size_t ihi);

  std::size_t batch_of(std::size_t i) const {
    return row_off_[i + 1] - row_off_[i];
  }

  // The probe model anchors the plan (geometry, param offsets, loss kind);
  // tile slots get their own probe clones because stateless layers cache
  // forward state for backward.
  std::unique_ptr<Model> probe_;
  ModelFactory factory_;
  std::vector<Stage> stages_;
  bool softmax_loss_ = false;
  std::size_t first_param_ = 0;    // backward stops here (dead dX above)
  bool direct_input_ = false;      // read items' tensors in place
  std::size_t sample_elems_ = 1;   // elements per sample (flattened)
  std::size_t max_row_elems_ = 1;  // widest activation, elems per sample row

  // Per-run state. row_off_ holds global prefix sums of item batch sizes;
  // tile slots (probe + activation and gradient scratch) are reused across
  // runs: every stage, pass stages included, writes its output into
  // tile_acts_, and the loss gradient and stage input gradients alternate
  // between the slot's two tile_grads_ buffers.
  std::vector<std::size_t> row_off_;
  std::vector<std::unique_ptr<Model>> tile_probes_;
  std::vector<std::vector<Tensor>> tile_acts_;
  std::vector<std::array<Tensor, 2>> tile_grads_;
};

}  // namespace hfl::nn
