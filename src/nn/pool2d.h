// 2-D pooling layers over NCHW tensors (kernel == stride, no padding).
//
// MaxPool2d remembers the winning index per window for the backward pass;
// AvgPool2d (used by the MiniResNet head as global average pooling when the
// window covers the whole plane) spreads the gradient uniformly.
#pragma once

#include "src/nn/layer.h"

namespace hfl::nn {

class MaxPool2d final : public Layer {
 public:
  explicit MaxPool2d(std::size_t window);

  std::string kind() const override { return "maxpool2d"; }
  void forward_into(const Tensor& x, Tensor& out, bool train) override;
  void backward_into(const Tensor& grad_out, Tensor* grad_in) override;

 private:
  std::size_t window_;
  std::vector<std::size_t> argmax_;  // flat input index per output element
  std::vector<std::size_t> in_shape_;
};

class AvgPool2d final : public Layer {
 public:
  explicit AvgPool2d(std::size_t window);

  std::string kind() const override { return "avgpool2d"; }
  void forward_into(const Tensor& x, Tensor& out, bool train) override;
  void backward_into(const Tensor& grad_out, Tensor* grad_in) override;

 private:
  std::size_t window_;
  std::vector<std::size_t> in_shape_;
};

}  // namespace hfl::nn
