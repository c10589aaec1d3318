#include "src/nn/activations.h"

#include <cmath>

namespace hfl::nn {

void ReLU::forward_into(const Tensor& x, Tensor& out, bool train) {
  if (train) input_ = x;
  out.resize(x.shape());
  for (std::size_t i = 0; i < x.size(); ++i) out[i] = x[i] < 0 ? 0 : x[i];
}

void ReLU::backward_into(const Tensor& grad_out, Tensor* grad_in) {
  HFL_CHECK(grad_out.same_shape(input_), "ReLU backward shape mismatch");
  if (grad_in == nullptr) return;
  grad_in->resize(grad_out.shape());
  for (std::size_t i = 0; i < grad_out.size(); ++i) {
    (*grad_in)[i] = input_[i] <= 0 ? 0 : grad_out[i];
  }
}

void Tanh::forward_into(const Tensor& x, Tensor& out, bool train) {
  out.resize(x.shape());
  for (std::size_t i = 0; i < x.size(); ++i) out[i] = std::tanh(x[i]);
  if (train) output_ = out;
}

void Tanh::backward_into(const Tensor& grad_out, Tensor* grad_in) {
  HFL_CHECK(grad_out.same_shape(output_), "Tanh backward shape mismatch");
  if (grad_in == nullptr) return;
  grad_in->resize(grad_out.shape());
  for (std::size_t i = 0; i < grad_out.size(); ++i) {
    (*grad_in)[i] = grad_out[i] * (1.0 - output_[i] * output_[i]);
  }
}

void Sigmoid::forward_into(const Tensor& x, Tensor& out, bool train) {
  out.resize(x.shape());
  for (std::size_t i = 0; i < x.size(); ++i) {
    out[i] = 1.0 / (1.0 + std::exp(-x[i]));
  }
  if (train) output_ = out;
}

void Sigmoid::backward_into(const Tensor& grad_out, Tensor* grad_in) {
  HFL_CHECK(grad_out.same_shape(output_), "Sigmoid backward shape mismatch");
  if (grad_in == nullptr) return;
  grad_in->resize(grad_out.shape());
  for (std::size_t i = 0; i < grad_out.size(); ++i) {
    (*grad_in)[i] = grad_out[i] * (output_[i] * (1.0 - output_[i]));
  }
}

}  // namespace hfl::nn
