#include "src/nn/flatten.h"

#include <algorithm>

namespace hfl::nn {

void Flatten::forward_into(const Tensor& x, Tensor& out, bool /*train*/) {
  HFL_CHECK(x.rank() >= 2, "flatten expects rank >= 2");
  in_shape_ = x.shape();
  out.resize({x.dim(0), x.size() / x.dim(0)});
  std::copy(x.data().begin(), x.data().end(), out.raw());
}

void Flatten::backward_into(const Tensor& grad_out, Tensor* grad_in) {
  HFL_CHECK(!in_shape_.empty(), "flatten backward before forward");
  if (grad_in == nullptr) return;
  HFL_CHECK(grad_out.size() == Tensor::shape_size(in_shape_),
            "flatten backward shape mismatch");
  grad_in->resize(in_shape_);
  std::copy(grad_out.data().begin(), grad_out.data().end(), grad_in->raw());
}

}  // namespace hfl::nn
