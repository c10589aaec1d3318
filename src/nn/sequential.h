// Sequential container: a chain of layers applied in order.
//
// Also a Layer itself, so residual blocks can nest a Sequential as their
// inner branch.
//
// The chain owns the intermediate buffers and reuses them across calls, so
// a steady stream of same-sized batches allocates nothing after the first:
//   * a training forward writes layer i's output into a per-layer buffer,
//     and the backward pass writes layer i's input gradient into a
//     per-layer buffer;
//   * an evaluation forward alternates between two buffers — no backward
//     pass will read its activations, so it never holds more than the
//     current layer's input and output;
//   * the last layer writes straight into the caller's `out`, and the first
//     layer's input gradient into the caller's `grad_in`.
// backward_into(g, nullptr) stops at the first parametric layer: every
// layer before it is parameter-free, so that layer's input gradient and
// everything upstream of it is dead work (the layer itself is passed
// nullptr and skips its dX product).
#pragma once

#include "src/nn/layer.h"

namespace hfl::nn {

class Sequential final : public Layer {
 public:
  Sequential() = default;

  // Chaining-friendly: seq.add<Dense>(10, 5).add<ReLU>() is not supported to
  // keep ownership obvious; use repeated add() calls instead.
  void add(LayerPtr layer);

  template <typename L, typename... Args>
  L& emplace(Args&&... args) {
    auto layer = std::make_unique<L>(std::forward<Args>(args)...);
    L& ref = *layer;
    add(std::move(layer));
    return ref;
  }

  std::size_t num_layers() const { return layers_.size(); }
  Layer& layer(std::size_t i);

  std::string kind() const override { return "sequential"; }
  void forward_into(const Tensor& x, Tensor& out, bool train) override;
  void backward_into(const Tensor& grad_out, Tensor* grad_in) override;
  std::vector<Tensor*> params() override;
  std::vector<Tensor*> grads() override;
  void init_params(Rng& rng) override;

 private:
  // Sizes bufs_ and finds first_param_ on the first pass after add().
  void prepare();

  std::vector<LayerPtr> layers_;
  // Reused buffers for n layers: [0, n) training output of layer i,
  // [n, 2n) input gradient of layer i, [2n, 2n + 2) the two evaluation
  // alternates. Empty until the first pass, so a model that never runs
  // (a spilled worker's scratch model) carries no buffers.
  std::vector<Tensor> bufs_;
  std::size_t first_param_ = 0;  // first parametric layer (n if none)
};

}  // namespace hfl::nn
