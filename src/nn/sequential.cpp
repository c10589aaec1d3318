#include "src/nn/sequential.h"

namespace hfl::nn {

void Sequential::add(LayerPtr layer) {
  HFL_CHECK(layer != nullptr, "cannot add null layer");
  layers_.push_back(std::move(layer));
  bufs_.clear();
}

Layer& Sequential::layer(std::size_t i) {
  HFL_CHECK(i < layers_.size(), "layer index out of range");
  return *layers_[i];
}

void Sequential::prepare() {
  if (!bufs_.empty()) return;
  const std::size_t n = layers_.size();
  bufs_.resize(2 * n + 2);
  first_param_ = 0;
  while (first_param_ < n && layers_[first_param_]->num_params() == 0) {
    ++first_param_;
  }
}

void Sequential::forward_into(const Tensor& x, Tensor& out, bool train) {
  const std::size_t n = layers_.size();
  if (n == 0) {
    out = x;
    return;
  }
  prepare();
  const Tensor* in = &x;
  for (std::size_t i = 0; i < n; ++i) {
    Tensor& dst = i + 1 == n ? out : train ? bufs_[i] : bufs_[2 * n + i % 2];
    layers_[i]->forward_into(*in, dst, train);
    in = &dst;
  }
}

void Sequential::backward_into(const Tensor& grad_out, Tensor* grad_in) {
  const std::size_t n = layers_.size();
  if (n == 0) {
    if (grad_in != nullptr) *grad_in = grad_out;
    return;
  }
  prepare();
  // With no consumer for the chain's input gradient, layers before the
  // first parametric one are skipped and that layer gets nullptr.
  const std::size_t stop = grad_in != nullptr ? 0 : first_param_;
  const Tensor* g = &grad_out;
  for (std::size_t i = n; i-- > stop;) {
    Tensor* dst = i == stop ? grad_in : &bufs_[n + i];
    layers_[i]->backward_into(*g, dst);
    g = dst;
  }
}

std::vector<Tensor*> Sequential::params() {
  std::vector<Tensor*> out;
  for (auto& l : layers_) {
    for (Tensor* p : l->params()) out.push_back(p);
  }
  return out;
}

std::vector<Tensor*> Sequential::grads() {
  std::vector<Tensor*> out;
  for (auto& l : layers_) {
    for (Tensor* g : l->grads()) out.push_back(g);
  }
  return out;
}

void Sequential::init_params(Rng& rng) {
  for (auto& l : layers_) l->init_params(rng);
}

}  // namespace hfl::nn
