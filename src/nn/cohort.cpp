#include "src/nn/cohort.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "src/common/errors.h"
#include "src/common/thread_pool.h"
#include "src/nn/conv2d.h"
#include "src/nn/dense.h"
#include "src/tensor/gemm.h"
#include "src/tensor/gemm_mixed.h"

namespace hfl::nn {
namespace {

// Tile activation budget: the largest concatenated activation of a tile stays
// within ~2 MB of Scalar so a tile's full forward+backward working set is
// cache-resident. Purely a performance knob — per-item results do not depend
// on tiling (see cohort.h).
constexpr std::size_t kTileElems = std::size_t{1} << 18;

}  // namespace

struct CohortModel::Stage {
  enum class Kind { kDense, kConv, kPass };
  Kind kind = Kind::kPass;
  std::size_t layer = 0;        // index into the Sequential (Kind::kPass)
  std::size_t in = 0, out = 0;  // dense geometry
  Conv2d::Spec conv;            // conv geometry
  std::size_t w_off = 0, b_off = 0;  // offsets into the flat param/grad vecs
};

CohortModel::CohortModel(std::unique_ptr<Model> probe)
    : probe_(std::move(probe)) {}

CohortModel::~CohortModel() = default;

std::size_t CohortModel::num_params() const { return probe_->num_params(); }

bool CohortModel::supports_row_gather() const {
  return direct_input_ && first_param_ < stages_.size() &&
         stages_[first_param_].kind == Stage::Kind::kDense;
}

std::unique_ptr<CohortModel> CohortModel::create(const ModelFactory& factory) {
  auto probe = factory();
  Sequential& net = probe->net();
  std::vector<Stage> stages;
  std::size_t off = 0;
  for (std::size_t i = 0; i < net.num_layers(); ++i) {
    Layer& layer = net.layer(i);
    Stage st;
    if (auto* d = dynamic_cast<Dense*>(&layer)) {
      st.kind = Stage::Kind::kDense;
      st.in = d->in_features();
      st.out = d->out_features();
      st.w_off = off;
      st.b_off = off + st.out * st.in;
      off = st.b_off + st.out;
    } else if (auto* c = dynamic_cast<Conv2d*>(&layer)) {
      st.kind = Stage::Kind::kConv;
      st.conv = {c->in_channels(), c->out_channels(), c->kernel(),
                 c->padding()};
      st.w_off = off;
      st.b_off = off + st.conv.out_ch * st.conv.kk();
      off = st.b_off + st.conv.out_ch;
    } else {
      // Stateless layers run directly on the concatenated tile tensor: their
      // forward/backward treat batch rows (or NCHW planes) independently, so
      // per-worker row segments come out bit-identical to per-worker calls.
      const std::string kind = layer.kind();
      const bool stateless = kind == "relu" || kind == "tanh" ||
                             kind == "sigmoid" || kind == "maxpool2d" ||
                             kind == "avgpool2d" || kind == "flatten";
      if (!stateless) return nullptr;  // Residual, nested Sequential, ...
      st.kind = Stage::Kind::kPass;
      st.layer = i;
    }
    stages.push_back(st);
  }
  if (off != probe->num_params()) return nullptr;  // unexpected param layout

  const std::string loss_kind = probe->loss_fn().kind();
  bool softmax = false;
  if (loss_kind == "softmax_ce") {
    softmax = true;
  } else if (loss_kind == "mse_onehot") {
    softmax = false;
  } else {
    return nullptr;
  }

  // First parametric stage: its input gradient has no consumer (the stages
  // before it are parameter-free), so the backward pass stops there. When
  // additionally every stage before it is a Flatten — a pure reshape — the
  // executor reads each item's mini-batch tensor in place and never
  // materializes the concatenated input at all.
  std::size_t first_param = stages.size();
  bool direct_input = true;
  for (std::size_t i = 0; i < stages.size(); ++i) {
    if (stages[i].kind != Stage::Kind::kPass) {
      first_param = i;
      break;
    }
    if (net.layer(stages[i].layer).kind() != "flatten") direct_input = false;
  }
  std::size_t sample_elems = 1;
  for (const std::size_t d : probe->sample_shape()) sample_elems *= d;
  if (first_param < stages.size() &&
      stages[first_param].kind == Stage::Kind::kDense &&
      stages[first_param].in != sample_elems) {
    direct_input = false;  // flatten-prefix shape surprise: stay generic
  }
  if (first_param >= stages.size()) direct_input = false;

  // Dry 1-sample forward to size the widest activation — the tile budget
  // divides by this to pick how many rows fit in cache.
  std::size_t max_row_elems = 1;
  {
    std::vector<std::size_t> shape{1};
    const auto& ss = probe->sample_shape();
    shape.insert(shape.end(), ss.begin(), ss.end());
    Tensor t(std::move(shape));
    max_row_elems = t.size();
    for (std::size_t i = 0; i < net.num_layers(); ++i) {
      t = net.layer(i).forward(t, /*train=*/false);
      max_row_elems = std::max(max_row_elems, t.size());
    }
  }

  auto cohort = std::unique_ptr<CohortModel>(new CohortModel(std::move(probe)));
  cohort->factory_ = factory;
  cohort->stages_ = std::move(stages);
  cohort->softmax_loss_ = softmax;
  cohort->first_param_ = first_param;
  cohort->direct_input_ = direct_input;
  cohort->sample_elems_ = sample_elems;
  cohort->max_row_elems_ = max_row_elems;
  return cohort;
}

// Dense forward: per item, y_seg = x_seg · W_iᵀ + b_i — the exact
// matmul_transpose_b + add_row_bias sequence of Dense::forward, evaluated on
// the item's row segment. Cross-worker dense products share NOTHING (every
// worker has its own weights and inputs), so there is no panel to amortize:
// the products run per item, reading each worker's parameters in place —
// the fused win for dense layers is the eliminated set_params / zero_grads /
// get_grads staging, not GEMM fusion. (Conv stages are different: within one
// worker the weight operand is shared across samples, and the conv spans
// batch those products — see conv2d.h.)
//
// `in == nullptr` selects direct-input mode: the A operand is the item's own
// mini-batch tensor (bit-identical to reading the flattened concat, which
// would hold the same values in the same row order).
void CohortModel::dense_forward(const Stage& st, const Tensor* in, Tensor& out,
                                std::span<CohortItem> items, std::size_t ilo,
                                std::size_t ihi, bool mixed) {
  const std::size_t nin = st.in, nout = st.out;
  HFL_CHECK(in == nullptr || (in->rank() == 2 && in->dim(1) == nin),
            "cohort dense input width mismatch");
  const std::size_t base = row_off_[ilo];
  out.resize({row_off_[ihi] - base, nout});

  const auto gemm1 = mixed ? ops::gemm_mixed : ops::gemm;
  for (std::size_t i = ilo; i < ihi; ++i) {
    const std::size_t row = row_off_[i] - base;
    if (in == nullptr && items[i].x_rows != nullptr) {
      // Row-gather mode: the A operand is read row-by-row straight from the
      // dataset — bit-identical to the gathered-tensor product below.
      ops::gemm_rows_a(batch_of(i), nout, nin, items[i].x_rows,
                       /*trans_b=*/true, items[i].params + st.w_off, nin, 0.0,
                       out.raw() + row * nout, nout);
    } else {
      const Scalar* a =
          in != nullptr ? in->raw() + row * nin : items[i].x->raw();
      gemm1(false, true, batch_of(i), nout, nin, a, nin,
            items[i].params + st.w_off, nin, 0.0, out.raw() + row * nout,
            nout);
    }
    // Bias rows, replicating ops::add_row_bias on the segment.
    const Scalar* pb = items[i].params + st.b_off;
    Scalar* py = out.raw() + row * nout;
    for (std::size_t r = 0; r < batch_of(i); ++r) {
      for (std::size_t j = 0; j < nout; ++j) py[r * nout + j] += pb[j];
    }
  }
}

// Dense backward, replicating Dense::backward per item: dW into scratch then
// added into the (zeroed) flat grad — the scratch-then-add order is part of
// the bit-identity contract (the final += through 0.0 normalizes signed
// zeros exactly like the per-worker path) — db via the sum_rows loop, and
// grad_in = g_seg · W_i. `gin == nullptr` skips the grad_in product (first
// parametric stage: dX is dead); `in == nullptr` is direct-input mode as in
// dense_forward.
void CohortModel::dense_backward(const Stage& st, const Tensor* in,
                                 const Tensor& gout, Tensor* gin,
                                 std::span<CohortItem> items, std::size_t ilo,
                                 std::size_t ihi, bool mixed) {
  const std::size_t nin = st.in, nout = st.out;
  const std::size_t base = row_off_[ilo];
  if (gin != nullptr) gin->resize({row_off_[ihi] - base, nin});

  const auto gemm1 = mixed ? ops::gemm_mixed : ops::gemm;
  thread_local Vec dw;
  dw.resize(nout * nin);
  thread_local Vec db;
  for (std::size_t i = ilo; i < ihi; ++i) {
    const std::size_t row = row_off_[i] - base;
    // dW_i = g_segᵀ · x_seg (matmul_transpose_a shape conventions) into
    // scratch, then += into the zeroed flat grad. In row-gather mode the B
    // operand (the mini-batch) is read row-by-row from the dataset —
    // bit-identical to the gathered-tensor product.
    if (in == nullptr && items[i].x_rows != nullptr) {
      ops::gemm_rows_b(/*trans_a=*/true, nout, nin, batch_of(i),
                       gout.raw() + row * nout, nout, items[i].x_rows, 0.0,
                       dw.data(), nin);
    } else {
      const Scalar* a =
          in != nullptr ? in->raw() + row * nin : items[i].x->raw();
      gemm1(true, false, nout, nin, batch_of(i), gout.raw() + row * nout,
            nout, a, nin, 0.0, dw.data(), nin);
    }
    Scalar* gw = items[i].grad + st.w_off;
    for (std::size_t e = 0; e < nout * nin; ++e) gw[e] += dw[e];

    // db: sum_rows into scratch, then += — same loops, same order.
    db.assign(nout, 0.0);
    const Scalar* pg = gout.raw() + row * nout;
    for (std::size_t r = 0; r < batch_of(i); ++r) {
      for (std::size_t j = 0; j < nout; ++j) db[j] += pg[r * nout + j];
    }
    Scalar* gb = items[i].grad + st.b_off;
    for (std::size_t j = 0; j < nout; ++j) gb[j] += db[j];

    // grad_in = g_seg · W_i, reading the worker's weights in place.
    if (gin != nullptr) {
      gemm1(false, false, batch_of(i), nin, nout, gout.raw() + row * nout,
            nout, items[i].params + st.w_off, nin, 0.0,
            gin->raw() + row * nin, nin);
    }
  }
}

// `in == nullptr`: direct-input mode, each item's mini-batch tensor is the
// conv input (first parametric stage of a conv-first model).
void CohortModel::conv_forward(const Stage& st, const Tensor* in, Tensor& out,
                               std::span<CohortItem> items, std::size_t ilo,
                               std::size_t ihi, bool mixed) {
  const Conv2d::Spec& s = st.conv;
  const Tensor& shape_src = in != nullptr ? *in : *items[ilo].x;
  HFL_CHECK(shape_src.rank() == 4 && shape_src.dim(1) == s.in_ch,
            "cohort conv input expects NCHW with C=" +
                std::to_string(s.in_ch) + ", got " +
                shape_src.shape_string());
  const std::size_t H = shape_src.dim(2), W = shape_src.dim(3);
  HFL_CHECK(H + 2 * s.pad >= s.k && W + 2 * s.pad >= s.k,
            "conv2d kernel larger than padded input");
  const std::size_t OH = H + 2 * s.pad - s.k + 1;
  const std::size_t OW = W + 2 * s.pad - s.k + 1;
  const std::size_t base = row_off_[ilo];
  out.resize({row_off_[ihi] - base, s.out_ch, OH, OW});

  for (std::size_t i = ilo; i < ihi; ++i) {
    Scalar* out0 = out.raw() + (row_off_[i] - base) * s.out_ch * OH * OW;
    if (in != nullptr) {
      Conv2d::forward_span(s, items[i].params + st.w_off,
                           items[i].params + st.b_off, *in,
                           row_off_[i] - base, batch_of(i), out0, mixed);
    } else {
      Conv2d::forward_span(s, items[i].params + st.w_off,
                           items[i].params + st.b_off, *items[i].x, 0,
                           batch_of(i), out0, mixed);
    }
  }
}

// `gin == nullptr` skips dX (first parametric stage); `in == nullptr` is
// direct-input mode.
void CohortModel::conv_backward(const Stage& st, const Tensor* in,
                                const Tensor& gout, Tensor* gin,
                                std::span<CohortItem> items, std::size_t ilo,
                                std::size_t ihi, bool mixed) {
  const Conv2d::Spec& s = st.conv;
  const Tensor& shape_src = in != nullptr ? *in : *items[ilo].x;
  const std::size_t H = shape_src.dim(2), W = shape_src.dim(3);
  const std::size_t OH = H + 2 * s.pad - s.k + 1;
  const std::size_t OW = W + 2 * s.pad - s.k + 1;
  const std::size_t base = row_off_[ilo];
  if (gin != nullptr) {
    gin->resize({row_off_[ihi] - base, s.in_ch, H, W});
    gin->fill(0.0);  // col2im scatter-adds into it
  }
  for (std::size_t i = ilo; i < ihi; ++i) {
    const std::size_t row = row_off_[i] - base;
    const Scalar* gout0 = gout.raw() + row * s.out_ch * OH * OW;
    Scalar* gin0 =
        gin != nullptr ? gin->raw() + row * s.in_ch * H * W : nullptr;
    if (in != nullptr) {
      Conv2d::backward_span(s, items[i].params + st.w_off, *in, row,
                            batch_of(i), gout0, items[i].grad + st.w_off,
                            items[i].grad + st.b_off, gin0, mixed);
    } else {
      Conv2d::backward_span(s, items[i].params + st.w_off, *items[i].x, 0,
                            batch_of(i), gout0, items[i].grad + st.w_off,
                            items[i].grad + st.b_off, gin0, mixed);
    }
  }
}

// Loss forward + backward fused per item, replicating loss.cpp on each row
// segment with the item's own batch size in the 1/B mean.
void CohortModel::loss_stage(const Tensor& pred, Tensor& grad,
                             std::span<CohortItem> items, std::size_t ilo,
                             std::size_t ihi) {
  HFL_CHECK(pred.rank() == 2, "loss expects (B, K) predictions");
  const std::size_t K = pred.dim(1);
  grad = pred;  // transformed in place below
  const bool softmax = softmax_loss_;
  const std::size_t base = row_off_[ilo];

  for (std::size_t i = ilo; i < ihi; ++i) {
    const std::size_t b = batch_of(i);
    const std::vector<std::size_t>& labels = *items[i].y;
    for (const std::size_t y : labels) {
      HFL_CHECK(y < K, "label out of class range");
    }
    Scalar* pp = grad.raw() + (row_off_[i] - base) * K;
    Scalar total = 0;
    if (softmax) {
      for (std::size_t r = 0; r < b; ++r) {
        Scalar* row = pp + r * K;
        Scalar mx = row[0];
        for (std::size_t j = 1; j < K; ++j) mx = std::max(mx, row[j]);
        Scalar denom = 0;
        for (std::size_t j = 0; j < K; ++j) {
          row[j] = std::exp(row[j] - mx);
          denom += row[j];
        }
        const Scalar inv = 1.0 / denom;
        for (std::size_t j = 0; j < K; ++j) row[j] *= inv;
        // Clamp to avoid -inf when a probability underflows to zero.
        total += -std::log(std::max(row[labels[r]], Scalar{1e-300}));
      }
    } else {
      for (std::size_t r = 0; r < b; ++r) {
        for (std::size_t j = 0; j < K; ++j) {
          const Scalar target = (j == labels[r]) ? 1.0 : 0.0;
          const Scalar d = pp[r * K + j] - target;
          total += 0.5 * d * d;
        }
      }
    }
    items[i].loss = total / static_cast<Scalar>(b);

    // Backward: grad rows are the (softmax probs | predictions) with 1
    // subtracted at the label, scaled by the item's 1/B.
    const Scalar inv_b = 1.0 / static_cast<Scalar>(b);
    for (std::size_t r = 0; r < b; ++r) {
      pp[r * K + labels[r]] -= 1.0;
      for (std::size_t j = 0; j < K; ++j) pp[r * K + j] *= inv_b;
    }
  }
}

void CohortModel::run_tile(std::size_t t, std::size_t ilo, std::size_t ihi,
                           std::span<CohortItem> items, bool mixed) {
  const std::size_t num_params = probe_->num_params();
  const std::size_t base = row_off_[ilo];
  const std::size_t rows = row_off_[ihi] - base;
  Sequential& net = tile_probes_[t]->net();
  std::vector<Tensor>& acts = tile_acts_[t];
  acts.resize(stages_.size() + 1);
  std::array<Tensor, 2>& grads = tile_grads_[t];

  for (std::size_t i = ilo; i < ihi; ++i) {
    std::fill(items[i].grad, items[i].grad + num_params, 0.0);
  }

  // Tile input: concatenate the tile's mini-batches — skipped entirely in
  // direct-input mode, where the first parametric stage reads each item's
  // tensor in place (any leading Flatten is a pure reshape).
  const std::size_t fwd_start = direct_input_ ? first_param_ : 0;
  if (!direct_input_) {
    const auto& ss = probe_->sample_shape();
    std::vector<std::size_t> shape;
    shape.reserve(ss.size() + 1);
    shape.push_back(rows);
    shape.insert(shape.end(), ss.begin(), ss.end());
    acts[0].resize(shape);
    for (std::size_t i = ilo; i < ihi; ++i) {
      std::memcpy(acts[0].raw() + (row_off_[i] - base) * sample_elems_,
                  items[i].x->raw(),
                  batch_of(i) * sample_elems_ * sizeof(Scalar));
    }
  }

  for (std::size_t s = fwd_start; s < stages_.size(); ++s) {
    const Stage& st = stages_[s];
    const Tensor* in =
        direct_input_ && s == first_param_ ? nullptr : &acts[s];
    switch (st.kind) {
      case Stage::Kind::kPass:
        net.layer(st.layer).forward_into(acts[s], acts[s + 1],
                                         /*train=*/true);
        break;
      case Stage::Kind::kDense:
        dense_forward(st, in, acts[s + 1], items, ilo, ihi, mixed);
        break;
      case Stage::Kind::kConv:
        conv_forward(st, in, acts[s + 1], items, ilo, ihi, mixed);
        break;
    }
  }

  // The loss gradient lands in the tile's second gradient buffer; stage
  // input gradients then alternate between the two, starting with the
  // first, so no stage writes the buffer it reads.
  loss_stage(acts[stages_.size()], grads[1], items, ilo, ihi);
  const Tensor* g = &grads[1];
  std::size_t cur = 0;

  // Backward stops at the first parametric stage: everything before it is
  // parameter-free, so its input gradient is dead work (the same rule
  // Sequential::backward_into applies when given a null grad_in).
  for (std::size_t s = stages_.size(); s-- > first_param_;) {
    const Stage& st = stages_[s];
    const bool last = s == first_param_;
    const Tensor* in = direct_input_ && last ? nullptr : &acts[s];
    Tensor* gin = last ? nullptr : &grads[cur];
    switch (st.kind) {
      case Stage::Kind::kPass:
        net.layer(st.layer).backward_into(*g, gin);
        break;
      case Stage::Kind::kDense:
        dense_backward(st, in, *g, gin, items, ilo, ihi, mixed);
        break;
      case Stage::Kind::kConv:
        conv_backward(st, in, *g, gin, items, ilo, ihi, mixed);
        break;
    }
    g = gin;
    cur ^= 1;
  }
}

void CohortModel::run(std::span<CohortItem> items, ThreadPool* pool,
                      bool mixed) {
  if (items.empty()) return;

  row_off_.assign(items.size() + 1, 0);
  const bool rows_ok = supports_row_gather() && !mixed;
  for (std::size_t i = 0; i < items.size(); ++i) {
    HFL_CHECK(items[i].y != nullptr && items[i].params != nullptr &&
                  items[i].grad != nullptr,
              "cohort item not fully wired");
    std::size_t b = 0;
    if (items[i].x_rows != nullptr) {
      HFL_CHECK(rows_ok,
                "row-gather cohort items require a dense-first direct-input "
                "plan and full precision");
      b = items[i].y->size();
      HFL_CHECK(b > 0, "cohort item with empty batch");
    } else {
      HFL_CHECK(items[i].x != nullptr, "cohort item not fully wired");
      b = items[i].x->dim(0);
      HFL_CHECK(b > 0, "cohort item with empty batch");
      HFL_CHECK(items[i].y->size() == b, "label count must match batch size");
      HFL_CHECK(items[i].x->size() == b * sample_elems_,
                "cohort item batch shape mismatch: " +
                    items[i].x->shape_string());
    }
    row_off_[i + 1] = row_off_[i] + b;
  }

  // Tile boundaries: greedily group consecutive items until the tile's
  // widest activation would exceed the cache budget — additionally capped so
  // there are at least as many tiles as pool threads (small models would
  // otherwise collapse into one tile and run serial). FP results are
  // independent of tiling: every loss/gradient is per-item exact.
  const std::size_t threads = pool != nullptr ? pool->size() : 1;
  const std::size_t rows_total = row_off_.back();
  const std::size_t rows_per_tile = std::max<std::size_t>(
      1, std::min(kTileElems / std::max<std::size_t>(1, max_row_elems_),
                  (rows_total + threads - 1) / threads));
  std::vector<std::pair<std::size_t, std::size_t>> tiles;
  std::size_t lo = 0;
  for (std::size_t i = 1; i <= items.size(); ++i) {
    if (i == items.size() ||
        row_off_[i + 1] - row_off_[lo] > rows_per_tile) {
      tiles.emplace_back(lo, i);
      lo = i;
    }
  }

  while (tile_probes_.size() < tiles.size()) tile_probes_.push_back(factory_());
  tile_acts_.resize(tiles.size());
  tile_grads_.resize(tiles.size());

  if (pool == nullptr || pool->size() <= 1 || tiles.size() <= 1) {
    for (std::size_t t = 0; t < tiles.size(); ++t) {
      run_tile(t, tiles[t].first, tiles[t].second, items, mixed);
    }
  } else {
    pool->parallel_for(tiles.size(), [&](std::size_t t) {
      run_tile(t, tiles[t].first, tiles[t].second, items, mixed);
    });
  }
}

}  // namespace hfl::nn
