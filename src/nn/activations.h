// Elementwise activation layers: ReLU, Tanh, Sigmoid.
//
// Stateless apart from the forward cache needed by backward.
#pragma once

#include "src/nn/layer.h"

namespace hfl::nn {

class ReLU final : public Layer {
 public:
  std::string kind() const override { return "relu"; }
  void forward_into(const Tensor& x, Tensor& out, bool train) override;
  void backward_into(const Tensor& grad_out, Tensor* grad_in) override;

 private:
  Tensor input_;
};

class Tanh final : public Layer {
 public:
  std::string kind() const override { return "tanh"; }
  void forward_into(const Tensor& x, Tensor& out, bool train) override;
  void backward_into(const Tensor& grad_out, Tensor* grad_in) override;

 private:
  Tensor output_;
};

class Sigmoid final : public Layer {
 public:
  std::string kind() const override { return "sigmoid"; }
  void forward_into(const Tensor& x, Tensor& out, bool train) override;
  void backward_into(const Tensor& grad_out, Tensor* grad_in) override;

 private:
  Tensor output_;
};

}  // namespace hfl::nn
