#include "src/nn/residual.h"

#include "src/tensor/tensor_ops.h"

namespace hfl::nn {

Residual::Residual(LayerPtr inner) : inner_(std::move(inner)) {
  HFL_CHECK(inner_ != nullptr, "residual inner branch must not be null");
}

Residual::Residual(LayerPtr inner, LayerPtr shortcut)
    : inner_(std::move(inner)), shortcut_(std::move(shortcut)) {
  HFL_CHECK(inner_ != nullptr, "residual inner branch must not be null");
}

void Residual::forward_into(const Tensor& x, Tensor& out, bool train) {
  inner_->forward_into(x, branch_, train);
  const Tensor* skip = &x;
  if (shortcut_) {
    shortcut_->forward_into(x, skip_, train);
    skip = &skip_;
  }
  HFL_CHECK(branch_.same_shape(*skip),
            "residual branch/shortcut shape mismatch: " +
                branch_.shape_string() + " vs " + skip->shape_string());
  ops::add(branch_, *skip, out);
}

void Residual::backward_into(const Tensor& grad_out, Tensor* grad_in) {
  if (grad_in == nullptr) {
    inner_->backward_into(grad_out, nullptr);
    if (shortcut_) shortcut_->backward_into(grad_out, nullptr);
    return;
  }
  inner_->backward_into(grad_out, &grad_branch_);
  const Tensor* grad_skip = &grad_out;
  if (shortcut_) {
    shortcut_->backward_into(grad_out, &grad_skip_);
    grad_skip = &grad_skip_;
  }
  ops::add(grad_branch_, *grad_skip, *grad_in);
}

std::vector<Tensor*> Residual::params() {
  std::vector<Tensor*> out = inner_->params();
  if (shortcut_) {
    for (Tensor* p : shortcut_->params()) out.push_back(p);
  }
  return out;
}

std::vector<Tensor*> Residual::grads() {
  std::vector<Tensor*> out = inner_->grads();
  if (shortcut_) {
    for (Tensor* g : shortcut_->grads()) out.push_back(g);
  }
  return out;
}

void Residual::init_params(Rng& rng) {
  inner_->init_params(rng);
  if (shortcut_) shortcut_->init_params(rng);
}

}  // namespace hfl::nn
