// Residual block: y = inner(x) + shortcut(x).
//
// The shortcut is the identity when the inner branch preserves the shape, or
// a caller-supplied projection layer (e.g. 1×1 convolution) when it does not.
// This is the structural core of the MiniResNet model standing in for the
// paper's ResNet18.
#pragma once

#include "src/nn/sequential.h"

namespace hfl::nn {

class Residual final : public Layer {
 public:
  // Identity shortcut.
  explicit Residual(LayerPtr inner);
  // Projection shortcut.
  Residual(LayerPtr inner, LayerPtr shortcut);

  std::string kind() const override { return "residual"; }
  void forward_into(const Tensor& x, Tensor& out, bool train) override;
  void backward_into(const Tensor& grad_out, Tensor* grad_in) override;
  std::vector<Tensor*> params() override;
  std::vector<Tensor*> grads() override;
  void init_params(Rng& rng) override;

 private:
  LayerPtr inner_;
  LayerPtr shortcut_;  // nullptr => identity
  // Reused branch outputs and input gradients.
  Tensor branch_, skip_;
  Tensor grad_branch_, grad_skip_;
};

}  // namespace hfl::nn
