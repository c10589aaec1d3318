// Flatten: (B, d1, d2, ...) -> (B, d1*d2*...). Backward restores the shape.
#pragma once

#include "src/nn/layer.h"

namespace hfl::nn {

class Flatten final : public Layer {
 public:
  std::string kind() const override { return "flatten"; }
  void forward_into(const Tensor& x, Tensor& out, bool train) override;
  void backward_into(const Tensor& grad_out, Tensor* grad_in) override;

 private:
  std::vector<std::size_t> in_shape_;
};

}  // namespace hfl::nn
