#include "src/nn/dropout.h"

namespace hfl::nn {

Dropout::Dropout(Scalar rate) : rate_(rate) {
  HFL_CHECK(rate_ >= 0.0 && rate_ < 1.0, "dropout rate must be in [0, 1)");
}

void Dropout::init_params(Rng& rng) { rng_ = rng.fork(0xD60); }

void Dropout::forward_into(const Tensor& x, Tensor& out, bool train) {
  last_train_ = train && rate_ > 0.0;
  if (!last_train_) {
    out = x;  // copy-assignment reuses out's buffer
    return;
  }
  HFL_CHECK(rng_.has_value(), "dropout used before init_params");
  const Scalar keep = 1.0 - rate_;
  const Scalar scale = 1.0 / keep;
  mask_.resize(x.size());
  out.resize(x.shape());
  for (std::size_t i = 0; i < x.size(); ++i) {
    mask_[i] = rng_->uniform() < keep ? scale : 0.0;
    out[i] = x[i] * mask_[i];
  }
}

void Dropout::backward_into(const Tensor& grad_out, Tensor* grad_in) {
  if (grad_in == nullptr) return;
  if (!last_train_) {
    *grad_in = grad_out;
    return;
  }
  HFL_CHECK(grad_out.size() == mask_.size(), "dropout backward shape mismatch");
  grad_in->resize(grad_out.shape());
  for (std::size_t i = 0; i < grad_out.size(); ++i) {
    (*grad_in)[i] = grad_out[i] * mask_[i];
  }
}

}  // namespace hfl::nn
